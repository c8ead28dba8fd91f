"""The traced benchmark run wraps pvdkit from the outside (bench/recorder.py):
functions by name, methods from each class's own ``__dict__``.  Installing
and removing it here makes a refactor that moves a wrapped name fail the
suite, not only the opt-in traced run."""
import importlib.util
import json
import pathlib

import numpy as np

from pvdkit import cli, cutnorm, domains, regularity, simplex, tensor
from pvdkit.cur import cur_pvd

import oracles

RECORDER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "recorder.py"


def _load_recorder():
    spec = importlib.util.spec_from_file_location("bench_recorder", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_installs_and_uninstalls():
    originals = {(cls, name): cls.__dict__[name]
                 for cls in (domains.ColumnRowDomain, tensor.CutTuples)
                 for name in ("__init__", "atom", "max_step")}
    rec = _load_recorder().Recorder()
    try:
        rec.install()
        cur_pvd(np.outer([1.0, 2.0, -1.0], [3.0, 0.5, 1.0]), 0.5)
        tensor.tensor_bound_check(np.arange(8.0).reshape(2, 2, 2),
                                  tensor.CutTuples([np.ones(2)] * 3), 1)
    finally:
        rec.uninstall()
    assert rec.calls["domains.column_row.build"] == 1
    assert rec.calls["tensor.domain.build"] == 1
    assert rec.calls["tensor.max_step"] > 0
    for (cls, name), original in originals.items():
        assert cls.__dict__[name] is original


def test_recorder_wraps_the_lp_route():
    wrapped = ("build_cut_lp", "solve_cut_lp", "lp_round", "cut_lp_exact", "cut_lp_approx",
               "exact_completion", "cut_norm_lp_upper")
    originals = {name: getattr(cutnorm, name) for name in wrapped}
    solve = simplex.simplex_solve
    rec = _load_recorder().Recorder()
    A = np.array([[2.0, -1.0, 0.0], [1.0, 3.0, -2.0], [0.0, 1.0, 1.0]])
    try:
        rec.install()
        pair = cutnorm.cut_lp_exact(A, [1, 2, 1], [2, 1, 1])
    finally:
        rec.uninstall()
    assert rec.calls["cutnorm.lp_exact"] == 1
    assert rec.calls["cutnorm.completion"] == 1
    assert rec.errors["cutnorm.lp_exact"] == 0 and not rec._lp_groups
    for name, original in originals.items():
        assert getattr(cutnorm, name) is original, name
    assert simplex.simplex_solve is solve and cutnorm.simplex_solve is solve
    assert cutnorm.cut_lp_exact(A, [1, 2, 1], [2, 1, 1]) == pair


def test_recorder_records_the_regularity_layers(tmp_path):
    """Each regularity layer the per-layer metrics read records calls on the
    subcommands that run it, so a refactor that takes a wrapped name off
    the call path fails here."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(oracles.gnp_adjacency(np.random.default_rng(5), 7, 0.5).tolist()))
    out = str(tmp_path / "report.json")
    rec = _load_recorder().Recorder()
    try:
        rec.install()
        for argv in (["weakreg", "--eps", "0.5"], ["szemreg", "--eps", "0.8"],
                     ["maxcut", "--eps", "0.5"]):
            assert cli.main([argv[0], "--input", str(path), *argv[1:], "--output", out]) == 0
    finally:
        rec.uninstall()
    for layer in ("regularity.weak", "regularity.szem", "regularity.maxcut",
                  "regularity.irregularity"):
        assert rec.calls[layer] > 0, layer
    assert not hasattr(regularity.max_cut_details, "__wrapped__")
