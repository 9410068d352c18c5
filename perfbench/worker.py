"""One benchmark run of one workload, inside the pinned environment ``run.py`` sets up.

Two modes:

* ``--probe-setup``: time ``import cmlab`` plus ``cli.load_config`` and
  ``cli.build_operator`` on the workload's config, print the seconds.  Run in
  a fresh process per sample, so the import is never cached.
* default: run the workload through ``cmlab.cli.main`` and print one JSON
  line with the per-operation wall times, failures, fingerprints, peak RSS,
  the numpy/scipy/BLAS versions and, with ``--trace 1``, the per-layer
  metrics of a traced operation.

An operation is one CLI invocation; its wall time runs from config load to
the last output written.  Interpreter start and imports are outside it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads


def _import_cmlab(src_dir: str):
    import cmlab
    import cmlab.cli

    where = os.path.realpath(cmlab.__file__)
    if not where.startswith(os.path.realpath(src_dir) + os.sep):
        raise SystemExit(f"error: imported cmlab from {where}, not from {src_dir}")
    return cmlab.cli


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
    }


def probe_setup(args) -> None:
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    t0 = time.perf_counter()
    cli = _import_cmlab(args.src)
    t1 = time.perf_counter()
    path = workloads.WORKLOADS[args.workload].setup_config_path(args.seed, args.workdir)
    t2 = time.perf_counter()
    cli.build_operator(cli.load_config(path))
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))


def run_operation(cli, workload, seed: int, workdir: str, tracer=None) -> dict:
    """One CLI invocation plus its output check."""
    out_dir = os.path.join(workdir, workload.out_dir)
    if workload.out_dir:
        shutil.rmtree(out_dir, ignore_errors=True)
    argv = workload.argv(seed, workdir)
    stdout, stderr = io.StringIO(), io.StringIO()
    record = {"problems": [], "fingerprint": {}}
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("op", cli.main, (argv,), {})
    except Exception:
        record["problems"].append("exception: " + traceback.format_exc())
        return record
    finally:
        record["wall_s"] = time.perf_counter() - t0
    if code != 0:
        record["problems"].append(f"exit code {code}: {stderr.getvalue().strip()}")
        return record
    try:
        problems, fingerprint = workload.check(stdout.getvalue(), out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems, fingerprint = [f"output unreadable: {exc!r}"], {}
    record["problems"] += problems
    record["fingerprint"] = fingerprint
    return record


def run(args) -> None:
    cli = _import_cmlab(args.src)
    workload = workloads.WORKLOADS[args.workload]
    os.chdir(args.workdir)  # relative output dirs of the configs land here
    records = []
    result = {}
    if args.trace:
        import tracer as tracing

        records.append(run_operation(cli, workload, args.seed, args.workdir))
        tracer = tracing.Tracer()
        with tracer.installed():
            records.append(run_operation(cli, workload, args.seed, args.workdir, tracer))
        layers = tracer.metrics(records[1]["wall_s"], records[0]["wall_s"])
        result["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        records[1]["fingerprint"]["start_objectives_traced"] = tracer.start_objectives
    else:
        # Operations repeat while another one of median length fits the budget.
        # They take turns on the CPUs this process may use: on a shared host a
        # neighbour can slow one CPU for a whole run, and wall_s is the fastest
        # operation.
        cpus = sorted(os.sched_getaffinity(0))
        start = time.perf_counter()
        while True:
            os.sched_setaffinity(0, {cpus[len(records) % len(cpus)]})
            records.append(run_operation(cli, workload, args.seed, args.workdir))
            typical = statistics.median(r["wall_s"] for r in records)
            if time.perf_counter() - start + typical > args.seconds:
                break
    result["walls"] = [r["wall_s"] for r in records]
    result["problems"] = [r["problems"] for r in records]
    result["fingerprints"] = [r["fingerprint"] for r in records]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    sys.__stdout__.write(json.dumps(result) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe-setup", action="store_true")
    parser.add_argument("--cpu", type=int, help="CPU a set-up probe runs on")
    args = parser.parse_args()
    if args.probe_setup:
        probe_setup(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
