"""Scale equivariance: every subcommand's report on ``X * 2**k``, with
weights ``w * 2**j``, is the report on ``X`` and ``w`` with each value times
its power of two, bit for bit, with the same picks, parts and exit code."""
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pvdkit import cli

#: each subcommand with the options of its runs, and the kind of its input
COMMANDS = {
    "pvd": ([], "matrix"),
    "cutnorm": ([], "matrix"),
    "cur": (["--eps", "0.5"], "matrix"),
    "weakreg": (["--eps", "0.6"], "graph"),
    "szemreg": (["--eps", "0.8"], "graph"),
    "classes": ([], "graph"),
    "maxcut": (["--eps", "0.5"], "graph"),
    "tensor": ([], "tensor"),
}

#: the value each subcommand reports first, and its unit
MAIN_VALUE = {"pvd": ("sigmas", "white"), "cutnorm": ("value", "white"),
              "cur": ("sigmas", "white"), "weakreg": ("weak_irregularity_ub", "plain"),
              "szemreg": ("mass_horizon", "mass"), "classes": ("spectral_projection_values", "white"),
              "maxcut": ("estimate", "plain"), "tensor": ("sigmas", "white")}

#: outside the window [2^-10, 2^10) of ``linalg.unit_scale`` for a largest
#: entry in [1, 2), with |k| <= 300
_EXPONENTS = st.one_of(st.integers(-300, -11), st.integers(10, 300))


def _gnp10() -> np.ndarray:
    """The G(10, 1/2) of the benchmark's workloads at seed [1, 0, 10]."""
    rng = np.random.default_rng([1, 0, 10])
    while True:
        upper = np.triu(rng.random((10, 10)) < 0.5, 1)
        A = (upper | upper.T).astype(float)
        if A.sum(axis=1).min() > 0:
            return A


def _input(kind: str, seed: int) -> np.ndarray:
    """A small input of ``kind`` whose largest |entry| lies in [1, 2)."""
    if seed == -1:
        return _gnp10()
    if seed == -2:  # the 8x9 normal matrix of the ``cur`` tests, at a power-of-two scale
        X = np.random.default_rng(3).normal(size=(8, 9))
        return np.ldexp(X, 1 - math.frexp(np.abs(X).max())[1])
    rng = np.random.default_rng(seed)
    if kind == "tensor":
        X = rng.normal(size=(3, 2, 2))
    elif kind == "matrix":
        X = rng.normal(size=tuple(rng.integers(2, 6, size=2)))
    else:
        n = int(rng.integers(4, 8))
        upper = np.triu(rng.random((n, n)) < 0.5, 1) * rng.choice([1.0, 0.5, 0.75], size=(n, n))
        upper[np.arange(n - 1), np.arange(1, n)] = 1.0  # a path, so every degree is positive
        X = upper + upper.T
    return X / np.abs(X).max() * 1.5


def _report(tmp_path, capsys, command, X, ip_weights, extra):
    """Exit code and report of ``command`` on ``X``, with file weights when
    ``ip_weights`` is an array and ``--ip`` ``ip_weights`` otherwise."""
    path = tmp_path / "input.json"
    if X.ndim == 2:
        path.write_text(json.dumps(X.tolist()))
    else:
        path.write_text(json.dumps({"dims": list(X.shape), "entries": X.ravel().tolist()}))
    argv = [command, "--input", str(path), *extra]
    if isinstance(ip_weights, np.ndarray):
        weights = tmp_path / "weights.txt"
        weights.write_text(" ".join(map(repr, ip_weights.tolist())) + "\n")
        argv += ["--ip", f"file:{weights}"]
    elif ip_weights != "euclidean":
        argv += ["--ip", ip_weights]
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def _assert_scaled(got, want, powers, path="report"):
    """``got`` is ``want`` with each float times ``2**e`` for some ``e`` of
    ``powers``, exactly, and everything else equal."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for key in want:
            _assert_scaled(got[key], want[key], powers, f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_scaled(g, w, powers, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(want, bool):
        assert any(got == math.ldexp(want, e) for e in powers), (path, got, want)
    else:
        assert got == want, path


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(COMMANDS)), seed=st.integers(0, 2**32 - 1),
       k=_EXPONENTS, ip=st.sampled_from(["euclidean", "file", "degree"]), j=_EXPONENTS)
# the motivating runs: each exited 0 with 0 terms, an estimate or a value
# of 0, or (cur) 0 terms against 5 at scale 1
@example(command="pvd", seed=-1, k=-40, ip="euclidean", j=10)
@example(command="maxcut", seed=-1, k=-40, ip="euclidean", j=10)
@example(command="cutnorm", seed=-1, k=-40, ip="euclidean", j=10)
@example(command="cur", seed=-2, k=-40, ip="euclidean", j=10)
# past the float range of squares: these exited 2 on overflow refusals
@example(command="szemreg", seed=-1, k=250, ip="euclidean", j=10)
@example(command="classes", seed=-1, k=250, ip="euclidean", j=10)
@example(command="pvd", seed=-1, k=250, ip="degree", j=10)
def test_reports_scale_by_powers_of_two(tmp_path, capsys, command, seed, k, ip, j):
    extra, kind = COMMANDS[command]
    X = _input(kind, seed)
    if ip == "degree" and kind != "graph" or command == "cur":
        ip = "euclidean"  # degrees need a graph; ``cur`` takes no ``--ip``
    if ip == "file":
        count = sum(X.shape) if X.ndim == 3 or X.shape[0] != X.shape[1] else X.shape[0]
        w = np.random.default_rng(seed + 1).uniform(0.25, 1.0, size=count)
        w[0] = 1.5
        j -= j * X.ndim % 2  # an odd number of modes whitens by 2**(j * ndim / 2)
        weights, scaled_weights = w, np.ldexp(w, j)
    else:
        j, weights, scaled_weights = 0, ip, ip
    # the whitened input scales by 2**white: degree weights carry the scale
    white = 0 if ip == "degree" else k - j * X.ndim // 2
    powers = {"plain": k, "white": white, "mass": 2 * white}
    code, want = _report(tmp_path, capsys, command, X, weights, extra)
    got_code, got = _report(tmp_path, capsys, command, np.ldexp(X, k), scaled_weights, extra)
    assert got_code == code
    if want is None:
        return
    _assert_scaled(got, want, {0, *powers.values()})
    key, unit = MAIN_VALUE[command]
    main = want["results"][key]
    for g, v in zip(np.ravel(got["results"][key]), np.ravel(main)):
        assert g == math.ldexp(v, powers[unit]), key


def test_zero_input_reports_zeros(tmp_path, capsys):
    """An all-zero matrix has no scale: ``unit_scale`` leaves it as it is."""
    code, rep = _report(tmp_path, capsys, "pvd", np.zeros((3, 3)), "euclidean", [])
    assert code == 0 and rep["results"]["num_terms"] == 0 and rep["results"]["exhausted"]


@pytest.mark.parametrize("scale", [2.0**-40, 2.0**531])
def test_scaled_reports_keep_their_terms(tmp_path, capsys, scale):
    """G(10) at 2^-40 reported 0 terms, exhausted, and at 2^531 ``pvd --ip
    degree`` exited 2 on an overflow refusal; both now report the terms of
    G(10) itself."""
    A = _gnp10()
    for ip in ("euclidean", "degree"):
        code, want = _report(tmp_path, capsys, "pvd", A, ip, ["--r", "2"])
        got_code, got = _report(tmp_path, capsys, "pvd", A * scale, ip, ["--r", "2"])
        assert code == got_code == 0
        assert got["results"]["num_terms"] == want["results"]["num_terms"] == 2
        assert got["results"]["selected"] == want["results"]["selected"]


def test_deleted_scale_guards_see_only_unit_scale_operands(tmp_path, capsys, monkeypatch):
    """``whitened`` and ``frob_inner`` lost their own operand scalings, and
    ``resolve_weights`` its weight-mass refusal: on inputs and weights far
    from 1, every operand they and the LP family see is at unit scale
    (largest |entry| below 2^10), so the products and masses they form stay
    finite."""
    from pvdkit import cutnorm, graphs, linalg

    seen = []

    def spy(module, name):
        inner = getattr(module, name)

        def wrapped(*args, **kwargs):
            out = inner(*args, **kwargs)
            arrays = [a for a in args if isinstance(a, np.ndarray)]
            arrays += [w for w in (out[0] if name == "resolve_weights" else [])]
            seen.append((name, max(float(np.abs(a).max()) for a in arrays)))
            return out

        monkeypatch.setattr(module, name, wrapped)

    for module, name in ((cli, "whitened"), (graphs, "whitened"), (linalg, "frob_inner"),
                         (cutnorm, "_CutLpFamily"), (cli, "resolve_weights")):
        spy(module, name)
    A = _gnp10()
    runs = [("cutnorm", A, 531, "degree", []), ("cutnorm", A, -300, np.full(10, 1e-300), []),
            ("cutnorm", A, 300, np.full(10, 1e200), ["--eps", "0.5"]),
            ("classes", A, 531, "degree-plus-avg", []), ("classes", A, -300, "euclidean", [])]
    for command, X, k, ip, extra in runs:
        code, _ = _report(tmp_path, capsys, command, np.ldexp(X, k), ip, extra)
        assert code == 0
    assert {name for name, _ in seen} == {"whitened", "frob_inner", "_CutLpFamily",
                                          "resolve_weights"}
    assert all(big < 2.0**10 for _, big in seen), seen
