"""Exact-frontier reference timings: one exact normalized-cut step per route.

Usage (from the root of a checkout)::

    python3 bench/frontier.py              # enumeration 10-12, completion 13-17
    python3 bench/frontier.py --lp 13      # also cut_lp_exact at side 13 (minutes)

Each step maximizes |R(S,T)| / sqrt(|S||T|) over the mean-centred residual
R = A - mean(A) of a seeded G(n, 1/2) graph, unit weights: the sign-mixed
matrix a greedy cut step sees after its first term.  Times are the median of
three calls (one call for the LP route).
"""
from __future__ import annotations

import argparse
import os
import statistics
import sys
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from pvdkit.cutnorm import cut_lp_exact, exact_completion, normalized_cut_bruteforce  # noqa: E402
from workloads import gnp  # noqa: E402


def residual(n: int) -> np.ndarray:
    A = gnp(np.random.default_rng([7, n]), n)
    return A - A.mean()


def timed(fn, repeats: int) -> tuple:
    times, value = [], None
    for _ in range(repeats):
        start = perf_counter()
        value = fn()
        times.append(perf_counter() - start)
    return statistics.median(times), value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lp", type=int, nargs="*", default=[],
                        help="sides at which to time cut_lp_exact as well")
    args = parser.parse_args()
    print(f"{'route':12s} {'side':>4s} {'seconds':>10s} {'value':>12s}")
    for n in (10, 11, 12):
        R = residual(n)
        t, pair = timed(lambda: normalized_cut_bruteforce(R, cap=n), 3)
        print(f"{'enumeration':12s} {n:4d} {t:10.4f} {abs(pair.value):12.6f}", flush=True)
    for n in range(13, 18):
        R = residual(n)
        ones = np.ones(n)
        t, pairs = timed(lambda: exact_completion(R, ones, ones), 3)
        print(f"{'completion':12s} {n:4d} {t:10.4f} {abs(pairs[0].value):12.6f}", flush=True)
    for n in args.lp:
        R = residual(n)
        t, pair = timed(lambda: cut_lp_exact(R, np.ones(n), np.ones(n)), 1)
        print(f"{'cut_lp_exact':12s} {n:4d} {t:10.4f} {abs(pair.value):12.6f}", flush=True)


if __name__ == "__main__":
    main()
