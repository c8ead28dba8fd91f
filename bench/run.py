"""Benchmark of the pvdkit command line, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload graphs-enum --seed 1 --seconds 30 --trace 0

Workloads: ``graphs-enum``, ``lp-route``, ``skeleton-tensor`` (see
``bench/README.md``).  The launcher sets the BLAS thread count to the number
of usable cores, runs the set-up step several times in fresh processes
(``setup_s`` is the median of their times, each scaled to the reference
speed; see ``worker.REF_UNIT_S``), then starts one workload process that
drives ``pvdkit.cli.main`` in-process for ``--seconds`` and checks every
report.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 29, "failed": 2, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, from rounds run under the
span recorder, plus the recorder's overhead against untraced rounds.
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

from worker import REF_UNIT_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: fresh-process set-ups per run; setup_s is their median
SETUP_REPEATS = 15
#: every run, set-up included, ends within this many seconds
RUN_LIMIT_S = 170.0

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child(argv: list, env: dict, deadline: float) -> list:
    """Run the worker; return its stdout lines, or exit like it did."""
    try:
        proc = subprocess.run([sys.executable, WORKER, *argv], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"error: worker {argv[0]} exceeded the {RUN_LIMIT_S:.0f} s run limit")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    return proc.stdout.splitlines()


def main() -> None:
    parser = argparse.ArgumentParser(description="pvdkit CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    env = dict(os.environ)
    cores = str(len(os.sched_getaffinity(0)))
    env.update({var: cores for var in BLAS_THREAD_VARS})
    workdir = os.path.join(ROOT, ".bench_run",
                           f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--inputs", workdir]
    try:
        setups = [json.loads(child(["setup", *common], env, deadline)[-1])
                  for _ in range(SETUP_REPEATS)]
        lines = child(["run", *common, "--seconds", str(args.seconds),
                       "--trace", str(args.trace)], env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(lines[-1])
    if not args.trace:
        setup_s = statistics.median(s["setup_s"] * REF_UNIT_S / s["unit_s"] for s in setups)
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
        print(f"unscaled setup_s {statistics.median(s['setup_s'] for s in setups):.6f} s")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
