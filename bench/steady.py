"""Steadiness check: run the benchmark in two sets and compare against the bounds.

Usage (from the root of a checkout)::

    python3 bench/steady.py --seeds 1-10

For every seed and workload of ``BENCHMARK.json`` it runs ``bench/run.py
--trace 0`` twice, once for each set, for ``run_seconds``; which set runs
first alternates from one pair to the next, so that a slow phase of the
machine falls on both sets alike.  For every end-to-end metric it prints each
set's median and spread (third minus first quartile, over the median).  A
spread above the metric's bound fails, a second median worse than the first
by more than the bound fails, and so does any difference in the share of
failed operations.  The seeds are an argument so that a claim can be
re-checked on seeds not used while making it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"error: {workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in bench["workloads"]]
    sets = (0, 1)

    results = {}          # (set, workload) -> list of result objects
    pairs = [(seed, w) for seed in seeds for w in workloads]
    for i, (seed, w) in enumerate(pairs):
        for s in (sets if i % 2 == 0 else sets[::-1]):
            res = run_once(w, seed, bench["run_seconds"])
            results.setdefault((s, w), []).append(res)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"set {s} {w} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {values}", flush=True)

    ok = True
    for w in workloads:
        shares = []
        for s in sets:
            runs = results[(s, w)]
            if not all(r["correct"] for r in runs):
                print(f"FAIL {w} set {s}: a run reported incorrect output")
                ok = False
            shares.append({r["failed"] / r["attempted"] for r in runs})
        if any(len(x) != 1 for x in shares) or len(set.union(*shares)) != 1:
            print(f"FAIL {w}: failed shares differ: {shares}")
            ok = False
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in results[(s, w)]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                verdict = "ok"
                if spread > bound:
                    verdict, ok = "FAIL", False
                elif spread > bound / 3:
                    verdict = "wide"
                print(f"{verdict:4s} {w:16s} {name:12s} set {s}: median {med:.5g} "
                      f"q1 {q1:.5g} q3 {q3:.5g} spread {spread:.4f} (bound {bound})")
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (medians[1] - medians[0]) / medians[0]
            verdict = "ok" if worse <= bound else "FAIL"
            ok = ok and verdict == "ok"
            print(f"{verdict:4s} {w:16s} {name:12s} second median worse by {worse:+.4f} "
                  f"(bound {bound})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
