"""Seeded inputs and job lists for the three benchmark workloads.

A workload is a fixed list of CLI invocations ("jobs") over input files that
are generated from the workload seed.  Everything here is deterministic in
the seed, so the same seed always yields the same files and the same jobs.
The arrays are kept alongside the file names so that the independent checks
can read the input without going through pvdkit's parsers.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

#: stream of the inputs that do not depend on ``--seed``: the uncertified
#: ``pvd`` jobs fail on every seed, so their inputs are fixed and the share of
#: failed jobs is the same in every run.  Stream 4 is the first whose
#: 12-vertex graph exhausts in under 2 s (18 terms; other streams take up to
#: 134 terms and 11 s).
FIXED_STREAM = (20191126, 4)

WORKLOADS = ("graphs-enum", "lp-route", "skeleton-tensor")

#: seeded instances of every job in one round.  The cost of one instance
#: varies by a factor of 2-4 from seed to seed (simplex pivots, greedy
#: terms), so one round runs several and a run's time varies less by seed.
COPIES = 3


@dataclass(frozen=True)
class Job:
    metric: str      # end-to-end latency key, e.g. "cutnorm_eps_s"
    command: str     # pvdkit subcommand
    input: str       # file name inside the input directory
    args: tuple = ()

    def argv(self, input_dir: str, output: str) -> list:
        return [self.command, "--input", os.path.join(input_dir, self.input),
                *self.args, "--output", output]

    @property
    def ip(self) -> str:
        return self.args[self.args.index("--ip") + 1] if "--ip" in self.args else "euclidean"

    def option(self, flag: str, default=None):
        return self.args[self.args.index(flag) + 1] if flag in self.args else default


@dataclass
class Workload:
    """Input arrays by file name, and the job list over them."""

    arrays: dict = field(default_factory=dict)
    jobs: list = field(default_factory=list)

    def write(self, input_dir: str) -> None:
        os.makedirs(input_dir, exist_ok=True)
        for name, array in self.arrays.items():
            path = os.path.join(input_dir, name)
            if name.endswith(".edges"):
                _write_edge_list(path, array)
            elif name.endswith(".mtx"):
                _write_matrix_market(path, array)
            elif "flat" in name:
                _write_json(path, {"dims": list(array.shape),
                                   "entries": array.ravel().tolist()})
            else:
                _write_json(path, array.tolist())


def gnp(rng, n: int, p: float = 0.5) -> np.ndarray:
    """Symmetric 0/1 adjacency of a G(n, p) sample with every degree positive
    (redrawn until it is), so that degree weights are valid."""
    while True:
        upper = np.triu(rng.random((n, n)) < p, 1)
        A = (upper | upper.T).astype(float)
        if A.sum(axis=1).min() > 0:
            return A


def mixed_int(rng, m: int, n: int) -> np.ndarray:
    """Integer matrix with entries uniform in -3..3 (both signs)."""
    return rng.integers(-3, 4, size=(m, n)).astype(float)


def low_rank_noise(rng, m: int, n: int, rank: int = 3, noise: float = 0.1) -> np.ndarray:
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)) \
        + noise * rng.standard_normal((m, n))


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    # one stream per input file, so adding a file never shifts the others
    streams = iter(np.random.default_rng([seed, WORKLOADS.index(name), k])
                   for k in range(1_000))
    w = Workload()
    if name == "graphs-enum":
        fixed = np.random.default_rng(FIXED_STREAM)
        w.arrays["fixed10.mtx"] = gnp(fixed, 10)
        w.arrays["fixed12.edges"] = gnp(fixed, 12)
        w.jobs += [Job("pvd_s", "pvd", "fixed10.mtx"),      # uncertified: n > 8
                   Job("pvd_s", "pvd", "fixed12.edges")]    # uncertified: n > 8
    for copy in range(COPIES):
        arrays, jobs = _WORKLOADS[name](streams)
        prefix = f"{copy}-"
        w.arrays.update((prefix + f, a) for f, a in arrays.items())
        w.jobs += [Job(j.metric, j.command, prefix + j.input, j.args) for j in jobs]
    return w


def _graphs_enum(streams):
    arrays = {
        "g8.edges": gnp(next(streams), 8),
        "g9.edges": gnp(next(streams), 9),
        "g10.mtx": gnp(next(streams), 10),
        "g11.mtx": gnp(next(streams), 11),
        "g11.edges": gnp(next(streams), 11),
        "g12.mtx": gnp(next(streams), 12),
    }
    deg = ("--ip", "degree")
    jobs = [
        Job("pvd_s", "pvd", "g8.edges", deg),
        Job("weakreg_s", "weakreg", "g9.edges", ("--eps", "0.5")),
        Job("weakreg_s", "weakreg", "g12.mtx", ("--eps", "0.5", *deg)),
        Job("szemreg_s", "szemreg", "g8.edges", ("--eps", "0.8")),
        Job("szemreg_s", "szemreg", "g11.mtx", ("--eps", "0.8", *deg)),
        Job("maxcut_s", "maxcut", "g10.mtx", ("--eps", "0.5")),
        Job("maxcut_s", "maxcut", "g11.edges", ("--eps", "0.5")),
        Job("classes_s", "classes", "g10.mtx", deg),
        Job("classes_s", "classes", "g11.edges"),
    ]
    return arrays, jobs


def _lp_route(streams):
    arrays = {
        "int5a.json": mixed_int(next(streams), 5, 5),
        "int5b.json": mixed_int(next(streams), 5, 5),
        "int6.json": mixed_int(next(streams), 6, 6),
        "int7.json": mixed_int(next(streams), 7, 7),
        "int8.json": mixed_int(next(streams), 8, 8),
        "int9x6.json": mixed_int(next(streams), 9, 6),
        "g6.mtx": gnp(next(streams), 6),
        "g5a.edges": gnp(next(streams), 5),
        "g5b.mtx": gnp(next(streams), 5),
        "g5c.edges": gnp(next(streams), 5),
    }
    # a cap below the vertex count sends every greedy step to the LP maximizer
    # and the weak irregularity to the cut_norm_lp_upper fallback
    cap = ("--bf-cap", "4")
    jobs = [
        Job("cutnorm_s", "cutnorm", "int6.json"),
        Job("cutnorm_s", "cutnorm", "int8.json"),
        Job("cutnorm_s", "cutnorm", "int9x6.json"),
        Job("cutnorm_s", "cutnorm", "g6.mtx", ("--ip", "degree")),
        Job("cutnorm_eps_s", "cutnorm", "int7.json", ("--eps", "0.1")),
        Job("cutnorm_eps_s", "cutnorm", "int5a.json", ("--eps", "0.01")),
        Job("cutnorm_eps_s", "cutnorm", "int5b.json", ("--eps", "0.01")),
    ]
    for graph in ("g5a.edges", "g5b.mtx", "g5c.edges"):
        jobs += [Job("weakreg_s", "weakreg", graph, ("--eps", "0.5", *cap)),
                 Job("maxcut_s", "maxcut", graph, ("--eps", "0.5", *cap)),
                 Job("classes_s", "classes", graph, cap)]
    return arrays, jobs


def _skeleton_tensor(streams):
    arrays = {
        "skel20.json": low_rank_noise(next(streams), 20, 20),
        "skel24.json": low_rank_noise(next(streams), 24, 24),
        "skel30.json": low_rank_noise(next(streams), 30, 30),
        "tensor444.json": next(streams).standard_normal((4, 4, 4)),
        "flat455.json": next(streams).standard_normal((4, 5, 5)),
        "flat555.json": next(streams).standard_normal((5, 5, 5)),
    }
    jobs = [
        Job("cur_s", "cur", "skel20.json", ("--eps", "0.25")),
        Job("cur_s", "cur", "skel24.json", ("--eps", "0.4")),
        Job("cur_s", "cur", "skel30.json", ("--eps", "0.25")),
        Job("tensor_s", "tensor", "tensor444.json", ("--r", "3")),
        Job("tensor_s", "tensor", "flat455.json", ("--r", "3")),
        Job("tensor_s", "tensor", "flat555.json", ("--r", "3")),
    ]
    return arrays, jobs


_WORKLOADS = {"graphs-enum": _graphs_enum, "lp-route": _lp_route,
            "skeleton-tensor": _skeleton_tensor}


def _write_edge_list(path: str, A: np.ndarray) -> None:
    n = A.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# G(n, p) sample, {n} vertices\n")
        for i in range(n):
            for j in range(i + 1, n):
                if A[i, j]:
                    fh.write(f"{i} {j}\n")


def _write_matrix_market(path: str, A: np.ndarray) -> None:
    n = A.shape[0]
    lower = [(i, j) for j in range(n) for i in range(j, n) if A[i, j]]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate integer symmetric\n")
        fh.write(f"{n} {n} {len(lower)}\n")
        for i, j in lower:
            fh.write(f"{i + 1} {j + 1} {int(A[i, j])}\n")


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
