"""Span tracing around the program's layer boundaries, from outside the program.

The program is not instrumented. Instead, for each traced function the
tracer finds every ``dmse`` module attribute bound to it (``dmse.mvn`` and
every module that imported it by name, such as ``dmse.training`` and
``dmse.model``) and rebinds that attribute to a wrapper for the duration of
a traced pass. A function that no longer exists is skipped, so its layer
reports zero calls.

Each call records a span ``(name, thread, id, parent, start, end, counts)``
in memory. The parent is the innermost open span of the calling thread; a
span opened by a worker thread with nothing open is parented to the
innermost open span of the thread that started tracing (the training loop
waiting on its thread pool). Self time is a span's duration minus the part
of it covered by the union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _cdf_counts(args, kwargs, result):
    used = int(result.samples_used)
    missed = not bool(result.tolerance_reached)
    return {"evals": used, "tol_miss": int(missed), "wasted_evals": used if missed else 0}


def _sampler_counts(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    sweeps = cfg.burn_in_sweeps + cfg.n_samples * cfg.thinning
    return {"coord_updates": int(problem.dim) * int(sweeps)}


def _cholesky_counts(args, kwargs, result):
    return {"jitter": int(bool(result[1]))}


def _clip_counts(args, kwargs, result):
    return {"widened": len(result.widened)}


#: ``module.function`` -> function computing exact counts of one call, or None.
LAYERS = {
    "training.train": None,
    "training.adagrad_step": None,
    "model.mu_forward": None,
    "mlp.mlp_forward": None,
    "mlp.mlp_backward": None,
    "gradients.grad_mu_sigma": None,
    "gradients.assemble_bundle": None,
    "mvn.sample_truncated": _sampler_counts,
    "mvn.cdf_rectangle": _cdf_counts,
    "mvn.cholesky": _cholesky_counts,
    "mvn.clip_rectangle": _clip_counts,
    "dataio.load_csv": None,
    "checkpoint.load_checkpoint": None,
    "evaluation.auc": None,
}

#: Counts that must repeat exactly between two traced passes of the same work.
EXACT_COUNTS = (
    "mvn.cdf_rectangle.evals",
    "mvn.cdf_rectangle.tol_miss",
    "mvn.sample_truncated.coord_updates",
    "mvn.cholesky.jitter",
    "mvn.clip_rectangle.widened",
)
COUNTS = EXACT_COUNTS + ("mvn.cdf_rectangle.wasted_evals",)


def thread_count() -> int:
    """Operating-system threads of this process (Python threads if /proc is absent)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


class Tracer:
    """Records spans for the calls into :data:`LAYERS` while installed."""

    def __init__(self):
        self.spans = []
        self.threads_max = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._main_thread = threading.get_ident()
        self._restore = []

    def _stack(self):
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, count_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
                tracer.threads_max = max(tracer.threads_max, thread_count())
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            counts = None
            if count_fn is not None:
                try:
                    counts = count_fn(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError) as exc:
                    print(f"perfbench: cannot count {name}: {exc!r}", file=sys.stderr)
            tracer.spans.append((name, threading.get_ident(), sid, parent, t0, t1, counts))
            return result

        return traced

    def install(self):
        importlib.import_module("dmse.cli")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dmse" or key.startswith("dmse."))]
        for name, count_fn in LAYERS.items():
            mod_name, fn_name = name.split(".")
            home = sys.modules.get(f"dmse.{mod_name}")
            fn = getattr(home, fn_name, None)
            if not callable(fn):
                continue
            wrapper = self._wrap(name, fn, count_fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict:
        """Per-layer ``calls``, ``busy_s``, ``self_s`` and summed counts."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append((span[4], span[5]))
        out = defaultdict(float)
        for name in LAYERS:
            out[f"{name}.calls"] = 0
            out[f"{name}.busy_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for key in COUNTS:
            out[key] = 0
        for name, _, sid, _, t0, t1, counts in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += t1 - t0
            out[f"{name}.self_s"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
            for key, value in (counts or {}).items():
                out[f"{name}.{key}"] += value
        return {k: v if k.endswith("_s") else int(v) for k, v in out.items()}

    def write(self, path):
        """Write the spans as JSON lines, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, tid, sid, parent, t0, t1, counts in self.spans:
                fh.write(json.dumps({"name": name, "thread": tid, "id": sid,
                                     "parent": parent, "start": t0, "end": t1,
                                     "counts": counts}) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total
