"""cmlab benchmark: one workload, end-to-end or per-layer metrics, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_1d --seed 10 --seconds 57 --trace 0

Workloads: sweep_1d, solve_2d, eig_2d_cliff, verify_props (see
perfbench/NOTES.md for why each exists).  ``--trace 0`` reports the
end-to-end metrics (wall_s, setup_s, peak_rss_mb); ``--trace 1`` reports the
per-layer metrics of one traced operation and the tracing overhead.  Every
metric is printed by name with its unit; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

The workload runs in a child process whose BLAS and OpenMP pools are pinned
to one thread and which imports cmlab from the checkout's ``src``.  This
process imports neither numpy nor cmlab.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import workloads  # noqa: E402  (stdlib only)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PAIRS = 4
DEADLINE_S = 170.0

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "CM_LAB_THREADS": "1",
}


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args: list, env: dict, cwd: str, deadline: float) -> str:
    """Run worker.py to completion; return its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("benchmark deadline passed")
    proc = subprocess.run(
        [sys.executable, WORKER, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=remaining
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed nothing")
    return lines[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "cmlab", "cli.py")):
        print(f"error: no cmlab sources at {SRC}; run from the root of a cmlab checkout", file=sys.stderr)
        return 2
    seed = workloads.normalize_seed(args.seed)
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = pinned_env()
    common = ["--workload", args.workload, "--seed", str(seed), "--src", SRC, "--workdir", workdir]

    # One set-up sample is a pair of fresh processes, each pinned to another
    # CPU, and keeps the faster: on a shared host a neighbour can slow one CPU
    # for seconds at a time.  Half the pairs run before the operations, half
    # after, so their median is not one moment's contention.
    cpus = sorted(os.sched_getaffinity(0))

    def setup_pair() -> list:
        pair = []
        for cpu in (cpus[0], cpus[-1]):
            argv = ["--probe-setup", *common, "--seconds", "0", "--cpu", str(cpu)]
            pair.append(json.loads(run_worker(argv, env, workdir, deadline))["setup_s"])
        return pair

    pairs = 0 if args.trace else SETUP_PAIRS
    try:
        setup = [setup_pair() for _ in range(pairs // 2)]
        line = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, workdir, deadline
        )
        result = json.loads(line)
        setup += [setup_pair() for _ in range(pairs - pairs // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("environment: " + json.dumps({**result["environment"], **THREAD_ENV}, sort_keys=True))
    attempted = len(result["walls"])
    failed = sum(1 for problems in result["problems"] if problems)
    for index, problems in enumerate(result["problems"]):
        for problem in problems:
            print(f"operation {index} FAILED: {problem}")
    for index, fingerprint in enumerate(result["fingerprints"]):
        print(f"fingerprint {index}: " + json.dumps(fingerprint, sort_keys=True))
    walls = result["walls"]
    print(f"operations: {attempted} attempted, {failed} failed; wall_s per operation: {walls}")

    if args.trace:
        metrics = result["per_layer"]
    else:
        print(f"setup_s probe pairs: {setup}")
        print(f"wall_s median over operations: {statistics.median(walls)}")
        metrics = {
            "wall_s": {"value": min(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(min(pair) for pair in setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
