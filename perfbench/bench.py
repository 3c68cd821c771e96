"""One benchmark workload, run in its own process (see run.py and README.md).

Usage: python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1

Set-up builds the inputs from the seed with the program's own generator
(``synth_generate``), writes them as CSV, config and checkpoint files, and
is repeated ``SETUP_REPEATS`` times; its median is ``setup_s``. The program
then sees only those files. One operation is one call of ``dmse.cli.main``,
made in a child forked from this process after set-up: every operation
starts from the same warm interpreter with cold program caches, as one CLI
invocation does, and ``os.wait4`` gives that operation's own peak RSS.

With ``--trace 0`` the benchmark runs operations for about ``--seconds``
(see ``measure``) and reports medians over operations. With
``--trace 1`` it runs operation 0 three times: traced, traced again, then
untraced. The two traced passes must give identical exact counts; the
per-layer metrics come from the second, and the tracing overhead is its
time minus the untraced time. Every operation's outputs are checked against
an exact reference. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import logging
import math
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import log_ndtr, ndtr
from scipy.stats import rankdata

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracle import equicorrelation, log_pattern_prob  # noqa: E402
from spans import COUNTS, EXACT_COUNTS, Tracer  # noqa: E402

M_FEATURES = 5
RHO = 0.3
MU_SCALE = 1.5
D1 = 8
HIDDEN = (32, 32, 8)
N_CHUNKS = 16
SETUP_REPEATS = 15
#: Seed of the generating process (the synthetic truth and the planted
#: model), and of whatever a workload does not let ``--seed`` draw. A
#: process's own difficulty would otherwise dominate the spread of a
#: metric between seeds.
PROCESS_SEED = 20160928
#: Rows of the generating process's own sample, which fixes the planted
#: model's feature standardization and habitat scale.
PROCESS_ROWS = 512
EVAL_TOL = 1e-3

#: A predict query fails when its relative error against the oracle exceeds
#: this many times the requested tolerance (the CLI default, 1e-6).
PREDICT_TOL = 1e-6
PREDICT_FAIL_FACTOR = 10.0
#: Outputs further than this from the reference make the run incorrect.
EVAL_ERR_LIMIT = 10 * EVAL_TOL
PREDICT_ERR_LIMIT = 1e-3


@dataclass(frozen=True)
class Workload:
    kind: str  # "train", "eval" or "predict"
    n_species: int
    rows: int  # CSV rows per operation
    d2: int
    #: What ``--seed`` draws: "rows" (the observations) and "calls" (each
    #: CLI call's ``--seed``); the rest comes from PROCESS_SEED. An
    #: integration's cost falls in classes 2x apart, one per doubling of
    #: lattice points, and both the rows and the lattice randomization pick
    #: the class. A train step caps every call, so it draws both; an eval
    #: operation sums 64 rows, so it draws its randomization; a run holds
    #: only about eight predict queries, so predict draws neither.
    seeded: tuple[str, ...]


WORKLOADS = {
    "train-n20": Workload("train", 20, 32, 20, seeded=("rows", "calls")),
    "train-n100": Workload("train", 100, 8, 100, seeded=("rows", "calls")),
    "eval-n20": Workload("eval", 20, 64, 20, seeded=("calls",)),
    "predict-n8": Workload("predict", 8, 1, 8, seeded=()),
}

PER_LAYER_CALLS = (
    "training.train", "training.adagrad_step", "model.mu_forward", "mlp.mlp_forward",
    "mlp.mlp_backward", "gradients.grad_mu_sigma", "gradients.assemble_bundle",
    "mvn.sample_truncated", "mvn.cdf_rectangle", "mvn.cholesky", "mvn.clip_rectangle",
    "dataio.load_csv", "checkpoint.load_checkpoint", "evaluation.auc",
)
PER_LAYER_SELF = (
    "training.train", "gradients.grad_mu_sigma", "model.mu_forward",
    "gradients.assemble_bundle",
)
QUALITY_UNITS = {
    "train_grad_se": "nat",
    "eval_loglik_err": "nat/obs",
    "predict_rel_err": "ratio",
    "fail_frac": "ratio",
}


def sub_seed(seed: int, *labels) -> int:
    """Seed for one named input stream, independent of the program's own seeding."""
    key = [seed] + [zlib.crc32(str(label).encode()) for label in labels]
    return int(np.random.SeedSequence(key).generate_state(1)[0] & 0x7FFFFFFF)


def read_table(path):
    """Species names, presence bits and features of a CSV in the program's format."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    sp = [i for i, h in enumerate(header) if h.startswith("sp:")]
    env = [i for i, h in enumerate(header) if h.startswith("env:")]
    bits = np.array([[int(r[i]) for i in sp] for r in rows[1:]], dtype=np.int8)
    feats = np.array([[float(r[i]) for i in env] for r in rows[1:]], dtype=float)
    return [header[i] for i in sp], [header[i] for i in env], bits, feats


def split_csv(path, rows: int, out_dir: Path) -> list[Path]:
    """Cut a CSV into ``N_CHUNKS`` files of ``rows`` data rows each."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    chunks = []
    for k in range(N_CHUNKS):
        p = out_dir / f"chunk{k}.csv"
        p.write_text(lines[0] + "".join(lines[1 + k * rows : 1 + (k + 1) * rows]),
                     encoding="utf-8")
        chunks.append(p)
    return chunks


def planted_model(data: Path, seed: int, out_path: Path) -> None:
    """Write a model whose correlation is exactly the equicorrelation RHO.

    ``Lambda_raw = chol(Sigma)^T`` has unit columns, so its normalized Gram
    matrix is Sigma. The seeded habitat side is rescaled per species so the
    latent means over the rows of ``data`` have standard deviation MU_SCALE.
    """
    from dmse.checkpoint import save_checkpoint
    from dmse.model import FeatureStandardization, init_model_params, mu_forward

    species, features, _, feats = read_table(data)
    mean, std = feats.mean(axis=0), feats.std(axis=0)
    constant = std < 1e-12
    stats = FeatureStandardization(mean, np.where(constant, 1.0, std), constant)
    params = init_model_params(
        [s[3:] for s in species], [f[4:] for f in features],
        d1=D1, d2=len(species), hidden_dims=HIDDEN, seed=seed, standardization=stats,
    )
    params.Lambda_raw[...] = np.linalg.cholesky(equicorrelation(len(species), RHO)).T
    mu = np.array([mu_forward(params, stats.apply(row))[0] for row in feats])
    params.S *= MU_SCALE / mu.std(axis=0)
    save_checkpoint(params, out_path)


def setup(name: str, seed: int, work: Path) -> dict:
    """Write every input file of the workload; deterministic in ``seed``.

    The generating process (truth and planted model) comes from
    PROCESS_SEED; ``seed`` draws the observations when the workload says so.
    """
    from dmse.dataio import SynthSpec, save_csv, synth_from_truth, synth_generate

    wl = WORKLOADS[name]
    spec = SynthSpec(n_species=wl.n_species, m_features=M_FEATURES, n_obs=PROCESS_ROWS,
                     mu_map="linear", true_sigma=equicorrelation(wl.n_species, RHO),
                     mu_scale=MU_SCALE, seed=sub_seed(PROCESS_SEED, name, "truth"))
    process_sample, truth = synth_generate(spec)
    data = work / "data.csv"
    draw_seed = sub_seed(seed if "rows" in wl.seeded else PROCESS_SEED, name, "draw")
    save_csv(synth_from_truth(truth, wl.rows * N_CHUNKS, draw_seed), data)
    inputs = {"chunks": split_csv(data, wl.rows, work)}
    if wl.kind == "train":
        inputs["config"] = work / "train.cfg"
        inputs["config"].write_text(
            f"minibatch_size = {wl.rows}\nepochs = 1\nd1 = {D1}\nd2 = {wl.d2}\n"
            f"hidden_dims = {','.join(map(str, HIDDEN))}\n"
            "n_samples = 64\nburn_in_sweeps = 16\nthinning = 1\n",
            encoding="utf-8")
    else:
        sample = work / "process.csv"
        save_csv(process_sample, sample)
        inputs["model"] = work / "model.ckpt"
        planted_model(sample, sub_seed(PROCESS_SEED, name, "model"), inputs["model"])
    return inputs


class ToleranceMisses(logging.Handler):
    """Counts the program's warnings that an integration missed its tolerance."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "tolerance" in record.getMessage():
            self.count += 1


def _child(argv, status: Path, spans: Path | None) -> None:
    """Body of a forked operation: one CLI call, reported through ``status``."""
    from dmse.cli import main

    misses = ToleranceMisses()
    logging.getLogger("dmse").addHandler(misses)
    tracer = Tracer() if spans else None
    with contextlib.redirect_stdout(io.StringIO()), tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
    info = {"code": code, "seconds": elapsed, "misses": misses.count}
    if tracer:
        tracer.write(spans)
        info["summary"] = tracer.summary()
        info["threads"] = tracer.threads_max
    status.write_text(json.dumps(info), encoding="utf-8")


class Runner:
    """Builds, runs and checks the CLI operations of one workload."""

    def __init__(self, name, seed, work, inputs):
        self.name, self.wl, self.seed = name, WORKLOADS[name], seed
        self.work, self.inputs = work, inputs
        self._refs = {}
        self.params = None
        if "model" in inputs:
            from dmse.checkpoint import load_checkpoint
            self.params = load_checkpoint(inputs["model"])

    def argv(self, i: int) -> list[str]:
        chunk = str(self.inputs["chunks"][i % N_CHUNKS])
        op_seed = str(sub_seed(self.seed if "calls" in self.wl.seeded else PROCESS_SEED,
                               self.name, "op", i))
        w = self.work
        if self.wl.kind == "train":
            return ["train", "--data", chunk, "--config", str(self.inputs["config"]),
                    "--out", str(w / "trained.ckpt"), "--seed", op_seed]
        model = str(self.inputs["model"])
        if self.wl.kind == "eval":
            return ["eval", "--data", chunk, "--model", model, "--tol", repr(EVAL_TOL),
                    "--seed", op_seed, "--out-prefix", str(w / "eval")]
        _, _, bits, _ = read_table(chunk)
        return ["predict", "--features-csv", chunk, "--model", model,
                "--out", str(w / "predict.csv"), "--seed", op_seed,
                "--joint-patterns", ",".join("".join(map(str, b)) for b in bits)]

    def run(self, i: int, spans: Path | None = None) -> dict:
        """Operation ``i`` in a forked child, then its checked outcome."""
        argv = self.argv(i)
        status = self.work / "status.json"
        status.unlink(missing_ok=True)
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            try:
                _child(argv, status, spans)
                code = 0
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                sys.stderr.flush()
            os._exit(code)
        try:
            _, wait_status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        if os.waitstatus_to_exitcode(wait_status) != 0 or not status.exists():
            raise RuntimeError(f"operation {i} failed: dmse {' '.join(argv)}")
        info = json.loads(status.read_text(encoding="utf-8"))
        if info["code"] != 0:
            raise RuntimeError(f"dmse {' '.join(argv)} exited with {info['code']}")
        outcome = getattr(self, f"_check_{self.wl.kind}")(i, info)
        outcome.update(seconds=info["seconds"], rss_mb=usage.ru_maxrss / 1024.0,
                       threads=info.get("threads"), summary=info.get("summary"))
        return outcome

    def _mu(self, feats):
        from dmse.model import mu_forward

        std = self.params.standardization
        return np.array([mu_forward(self.params, std.apply(row))[0] for row in feats])

    def _check_train(self, i, info):
        from dmse.checkpoint import load_checkpoint

        log = (self.work / "trained.ckpt.log").read_text(encoding="utf-8")
        steps = [r for r in map(json.loads, log.splitlines()) if "grad_se" in r]
        params = load_checkpoint(self.work / "trained.ckpt")
        tensors = [params.S, params.Lambda_raw, params.W]
        if params.mlp is not None:
            tensors += list(params.mlp.weights) + list(params.mlp.biases)
        ses = [r["grad_se"] for r in steps]
        ok = (len(steps) == 1 and all(np.all(np.isfinite(t)) for t in tensors)
              and all(math.isfinite(s) for s in ses))
        return {"ok": ok, "items": self.wl.rows, "attempted": len(steps),
                "failed": sum(bool(r["skipped"]) for r in steps), "grad_se": ses}

    def _reference(self, i):
        k = i % N_CHUNKS
        if k not in self._refs:
            _, _, bits, feats = read_table(self.inputs["chunks"][k])
            mu = self._mu(feats)
            self._refs[k] = (bits, mu, [log_pattern_prob(m, b, RHO) for m, b in zip(mu, bits)])
        return self._refs[k]

    def _check_eval(self, i, info):
        bits, mu, logp = self._reference(i)
        report = {}
        for line in (self.work / "eval.txt").read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition(" = ")
            report[key] = value
        n = len(bits)
        joint_err = abs(float(report["joint_loglik"]) - sum(logp)) / n
        indep_ref = float(np.sum(log_ndtr((2.0 * bits - 1.0) * mu)))
        aucs = []
        for y, score in zip(bits.T, ndtr(mu).T):
            pos = int(y.sum())
            if 0 < pos < n:
                rank_sum = rankdata(score)[y == 1].sum()
                aucs.append((rank_sum - pos * (pos + 1) / 2) / (pos * (n - pos)))
        ok = (int(report["n_obs"]) == n and joint_err <= EVAL_ERR_LIMIT
              and abs(float(report["independent_loglik"]) - indep_ref) <= 1e-8 * n
              and abs(float(report["mean_auc"]) - float(np.mean(aucs))) <= 1e-12)
        return {"ok": ok, "items": n, "attempted": n, "failed": info["misses"],
                "loglik_err": joint_err}

    def _check_predict(self, i, info):
        bits, mu, logp = self._reference(i)
        with open(self.work / "predict.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        n = bits.shape[1]
        values = np.array([[float(v) for v in row] for row in rows])
        ok = values.shape == (len(mu), n + len(bits))
        errs = []
        if ok:
            ok = np.allclose(values[:, :n], ndtr(mu), rtol=1e-12, atol=0.0)
            refs = np.exp(logp)
            errs = [abs(est / ref - 1.0) for row in values for est, ref in zip(row[n:], refs)]
        ok = bool(ok) and max(errs) <= PREDICT_ERR_LIMIT
        return {"ok": ok, "items": len(errs), "attempted": len(errs),
                "failed": int(sum(e > PREDICT_FAIL_FACTOR * PREDICT_TOL for e in errs)),
                "rel_err": max(errs, default=math.inf)}


def quality(outcomes) -> dict:
    attempted = sum(o["attempted"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    ses = [s for o in outcomes for s in o.get("grad_se", [])]
    return {
        "train_grad_se": float(np.mean(ses)) if ses else 0.0,
        "eval_loglik_err": max((o["loglik_err"] for o in outcomes if "loglik_err" in o),
                               default=0.0),
        "predict_rel_err": max((o["rel_err"] for o in outcomes if "rel_err" in o),
                               default=0.0),
        "fail_frac": failed / max(attempted, 1),
    }


def measure(runner: Runner, seconds: float):
    """Untraced operations while another one would end nearer ``seconds``
    than stopping now, so operations longer than half the run still repeat."""
    outcomes = []
    start = time.perf_counter()
    while True:
        outcomes.append(runner.run(len(outcomes)))
        typical = statistics.median(o["seconds"] for o in outcomes)
        if time.perf_counter() - start + typical / 2 > seconds:
            return outcomes


def traced(runner: Runner, spans_path: Path):
    """Two traced passes and one untraced pass of operation 0."""
    first, second, untraced = (runner.run(0, spans_path), runner.run(0, spans_path),
                               runner.run(0))
    a, b = first["summary"], second["summary"]
    exact = all(a[k] == b[k] for k in EXACT_COUNTS) and all(
        a[f"{layer}.calls"] == b[f"{layer}.calls"] for layer in PER_LAYER_CALLS)
    metrics = {}
    for layer in PER_LAYER_CALLS:
        metrics[f"{layer}.calls"] = (b[f"{layer}.calls"], "count")
        metrics[f"{layer}.busy_s"] = (b[f"{layer}.busy_s"], "s")
    for layer in PER_LAYER_SELF:
        metrics[f"{layer}.self_s"] = (b[f"{layer}.self_s"], "s")
    for key in COUNTS:
        metrics[key] = (b[key], "count")
    metrics["trace.overhead_s"] = (second["seconds"] - untraced["seconds"], "s")
    metrics["process.threads_max"] = (max(first["threads"], second["threads"]), "count")
    outcomes = [first, second, untraced]
    for key, value in quality(outcomes).items():
        metrics[key] = (value, QUALITY_UNITS[key])
    return metrics, outcomes, exact


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import dmse
    import dmse.cli  # imported once here, not by every forked operation

    src = (ROOT / "src").resolve()
    if src not in Path(dmse.__file__).resolve().parents:
        print(f"perfbench: dmse imported from {dmse.__file__}, not {src}", file=sys.stderr)
        return 2

    runs = ROOT / ".perfbench_run"
    work = runs / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = setup(args.workload, args.seed, work)
            setup_times.append(time.perf_counter() - t0)
        runner = Runner(args.workload, args.seed, work, inputs)
        if args.trace:
            spans = runs / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, outcomes, exact = traced(runner, spans)
        else:
            outcomes = measure(runner, args.seconds)
            exact = True
            op_s = statistics.median(o["seconds"] for o in outcomes)
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (statistics.median(o["rss_mb"] for o in outcomes), "MB"),
                "items_per_s": (outcomes[0]["items"] / op_s, "1/s"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for i, o in enumerate(outcomes):
        print(f"op {i}: {o['seconds']:.3f} s, {o['rss_mb']:.0f} MB, {o['items']} items, "
              f"{o['failed']} failed, ok={o['ok']}", file=sys.stderr)
    result = {
        "correct": bool(exact and all(o["ok"] for o in outcomes)),
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": int(sum(o["failed"] for o in outcomes)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
