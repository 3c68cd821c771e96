"""Launcher of the dmse benchmark: one workload in one fresh process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-n20 --seed 1 --seconds 20 --trace 0

It pins the BLAS and OpenMP thread pools to one thread, runs
``perfbench/bench.py`` with the same arguments in a child process (so the
child's peak RSS covers this workload alone), waits for it, checks that its
result reports exactly the metrics ``BENCHMARK.json`` names, and prints that
result as the last line. It exits non-zero, printing no result, when the
child fails or times out.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def expected_metrics(trace: bool) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, default=0)
    trace = ap.parse_known_args(argv)[0].trace == 1
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **THREAD_ENV)
    # The child forks one process per operation; a process group of its own
    # lets a timeout or an interrupt stop all of them at once.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "bench.py"), *argv],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"perfbench: workload exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    missing = expected_metrics(trace) ^ set(result["metrics"])
    if missing:
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main(sys.argv[1:]))
