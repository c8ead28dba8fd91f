"""The traced benchmark run wraps pvdkit from the outside (bench/recorder.py):
functions by name, methods from each class's own ``__dict__``.  Installing
and removing it here makes a refactor that moves a wrapped name fail the
suite, not only the opt-in traced run."""
import importlib.util
import pathlib

import numpy as np

from pvdkit import domains, tensor
from pvdkit.cur import cur_pvd

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
