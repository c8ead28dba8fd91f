import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from pvdkit import cli, cutnorm, domains, regularity
from pvdkit.cutnorm import COMPLETION_CAP, normalized_cut_bruteforce
from pvdkit.domains import UnsupportedDomain
from pvdkit.linalg import frob_norm, unit_scale
from pvdkit.pvd import best_truncation, compute_pvd
from pvdkit.regularity import szemeredi_partition
from pvdkit.tensor import CutTuples, tensor_bound_check

import oracles


def _graph_file(tmp_path, name="g.edges"):
    p = tmp_path / name
    p.write_text("a b\nb c\nc a\nc d 2.0\n")
    return str(p)


def _mtx_file(tmp_path, name="m.mtx"):
    p = tmp_path / name
    p.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                 "4 4 4\n1 2 1.0\n2 3 1.0\n1 3 1.0\n3 4 1.0\n")
    return str(p)


def _gnp_file(tmp_path, n, seed, name="gnp.edges"):
    A = oracles.gnp_adjacency(np.random.default_rng(seed), n, 0.5)
    p = tmp_path / name
    p.write_text("".join(f"{i} {j}\n" for i in range(n) for j in range(i + 1, n) if A[i, j]))
    return str(p), A


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_pvd_report_shape(tmp_path, capsys):
    code, rep = _run(capsys, ["pvd", "--input", _graph_file(tmp_path), "--r", "3"])
    assert code == 0
    assert rep["version"] == "0.1.0"
    assert rep["command"] == "pvd"
    assert rep["input"]["labels"] == ["a", "b", "c", "d"]
    assert rep["results"]["num_terms"] == 3
    assert rep["all_certificates_pass"] is True
    for cert in rep["certificates"]:
        assert set(cert) == {"name", "lhs", "rhs", "pass"}


def test_pvd_certifies_beyond_eight_vertices(tmp_path, capsys):
    path, _ = _gnp_file(tmp_path, 10, 11)
    code, rep = _run(capsys, ["pvd", "--input", path])
    assert code == 0
    assert rep["results"]["verified"] is True
    names = [c["name"] for c in rep["certificates"]]
    assert "projection-identity" in names and "step-dominance" in names
    assert all(c["pass"] for c in rep["certificates"])


def test_pvd_refused_verification_is_exit_two(tmp_path, capsys, monkeypatch):
    """A replay that cannot run is an error, not an empty, passing list."""
    def refuse(result):
        raise UnsupportedDomain("verification refused")

    monkeypatch.setattr(cli, "verify_pvd", refuse)
    code = cli.main(["pvd", "--input", _graph_file(tmp_path), "--r", "2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "verification refused" in err


def test_szemreg_part_beyond_cap_uses_upper_bound(tmp_path, capsys):
    path, A = _gnp_file(tmp_path, 6, 7)
    code, rep = _run(capsys, ["szemreg", "--input", path, "--eps", "0.8", "--bf-cap", "4"])
    assert code == 0
    assert max(len(p) for p in rep["results"]["parts"]) > 4
    second = next(c for c in rep["certificates"] if c["name"] == "second-term-control")
    lib = szemeredi_partition(A, 0.8, bf_cap=4)
    gap = best_truncation(lib.pvd, lib.details["f_q"])[0] - lib.approx_matrix
    # [DERIVED] blockwise plain-loop cut norms of the gap
    exact = sum(oracles.plain_cutnorm(gap[np.ix_(P, Q)])
                for P in lib.partition for Q in lib.partition)
    assert second["lhs"] >= exact - 1e-9
    # every part is within ``COMPLETION_CAP``, so the Szemeredi sum is the
    # exact blockwise one past ``--bf-cap`` too
    parts = rep["results"]["parts"]
    R = A - oracles.block_mean_matrix(A, parts)
    want = sum(oracles.plain_cutnorm(R[np.ix_(P, Q)]) for P in parts for Q in parts)
    assert rep["results"]["szemeredi_irregularity_ub"] == pytest.approx(want, abs=1e-9)


def test_cutnorm_exit_zero_and_value(tmp_path, capsys):
    code, rep = _run(capsys, ["cutnorm", "--input", _mtx_file(tmp_path)])
    assert code == 0
    assert rep["results"]["method"] == "bruteforce"
    assert rep["results"]["value"] > 0


def test_weakreg_and_szemreg(tmp_path, capsys):
    path = _mtx_file(tmp_path)
    code, rep = _run(capsys, ["weakreg", "--input", path, "--eps", "0.6"])
    assert code == 0
    assert sorted(i for p in rep["results"]["parts"] for i in p) == [0, 1, 2, 3]
    code, rep = _run(capsys, ["szemreg", "--input", path, "--eps", "0.8"])
    assert code == 0
    assert rep["results"]["levels"][0] == 0


def test_classes_degree_identity(tmp_path, capsys):
    code, rep = _run(capsys, ["classes", "--input", _mtx_file(tmp_path),
                              "--ip", "degree", "--r", "2"])
    assert code == 0
    names = [c["name"] for c in rep["certificates"]]
    assert "majorization" in names and "degree-mass-identity" in names
    assert rep["results"]["profile"]["cut_mass_ratio"] == 1.0


def test_cur_and_tensor_and_maxcut(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps([[2.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                                 [1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
    code, rep = _run(capsys, ["cur", "--input", str(mpath), "--eps", "0.5"])
    assert code == 0
    assert rep["certificates"][0]["name"] == "cur-chain"

    tpath = tmp_path / "t.json"
    tpath.write_text(json.dumps({"dims": [2, 2, 2],
                                 "entries": [1, 0, 0, 1, 0, 1, 1, 0]}))
    code, rep = _run(capsys, ["tensor", "--input", str(tpath), "--r", "2"])
    assert code == 0
    assert {c["name"] for c in rep["certificates"]} == {
        "residual-vs-tail", "tail-vs-source", "residual-consistency"}

    code, rep = _run(capsys, ["maxcut", "--input", _graph_file(tmp_path), "--eps", "0.5"])
    assert code == 0
    assert "estimate-vs-bruteforce" in [c["name"] for c in rep["certificates"]]


def test_missing_eps_is_usage_error(tmp_path, capsys):
    code = cli.main(["weakreg", "--input", _graph_file(tmp_path)])
    capsys.readouterr()
    assert code == 2


def test_bad_input_is_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 nan\n")
    code = cli.main(["pvd", "--input", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.mtx:3:" in err


def test_failing_certificate_is_exit_one(tmp_path, capsys, monkeypatch):
    def fake(args, A, weights, atol):
        return {}, {}, [{"name": "always-fails", "lhs": 2.0, "rhs": 1.0, "pass": False}]

    monkeypatch.setitem(cli.HANDLERS, "pvd", fake)
    code = cli.main(["pvd", "--input", _graph_file(tmp_path)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["all_certificates_pass"] is False


def test_nan_in_a_report_is_exit_two(tmp_path, capsys, monkeypatch):
    def fake(args, A, weights, atol):
        return {}, {"value": float("nan")}, [{"name": "passes", "lhs": 0.0, "rhs": 1.0,
                                              "pass": True}]

    monkeypatch.setitem(cli.HANDLERS, "pvd", fake)
    out = tmp_path / "report.json"
    code = cli.main(["pvd", "--input", _graph_file(tmp_path), "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: NaN in report\n" and captured.out == ""
    assert not out.exists()


def test_output_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["cutnorm", "--input", _mtx_file(tmp_path), "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = json.loads(out.read_text())
    assert rep["command"] == "cutnorm"


def test_reports_are_byte_identical(tmp_path, capsys):
    path = _graph_file(tmp_path)
    texts = []
    for _ in range(2):
        cli.main(["weakreg", "--input", path, "--eps", "0.6"])
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]


def test_non_integer_weights_beyond_the_cap_exit_zero(tmp_path, capsys):
    """Past ``--bf-cap`` a greedy step is the completion sweep, which takes
    the non-integer ``degree-plus-avg`` weights the LP ratio grid refused."""
    path, _ = _gnp_file(tmp_path, 13, 12)
    texts = []
    for _ in range(2):
        code = cli.main(["pvd", "--input", path, "--r", "3", "--ip", "degree-plus-avg"])
        texts.append(capsys.readouterr().out)
        assert code == 0
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["all_certificates_pass"] is True


def test_cutnorm_within_the_exact_rule_is_bruteforce_beyond_the_cap(tmp_path, capsys):
    """Past ``--bf-cap`` with the smaller side within ``COMPLETION_CAP``
    ``cutnorm`` is the exact sweep, whatever the weights: integer weights add
    the LP route's agreement and ``--eps`` its guarantee.  Past the rule the
    LP route refuses non-integer weights."""
    A = oracles.gnp_adjacency(np.random.default_rng(14), 13, 0.5)
    path = tmp_path / "g13.json"
    path.write_text(json.dumps(A.tolist()))
    code, rep = _run(capsys, ["cutnorm", "--input", str(path), "--ip", "degree-plus-avg"])
    assert code == 0
    assert rep["results"]["method"] == "bruteforce"
    (d, _), _ = cli.resolve_weights("degree-plus-avg", A)
    want = normalized_cut_bruteforce(A, d, d, cap=13)
    assert rep["results"]["value"] == abs(want.value)
    assert [c["name"] for c in rep["certificates"]] == ["witness-consistency"]
    code, rep = _run(capsys, ["cutnorm", "--input", str(path)])
    assert code == 0 and rep["results"]["method"] == "bruteforce"
    assert [c["name"] for c in rep["certificates"]] == ["witness-consistency",
                                                        "dual-route-agreement"]
    code, rep = _run(capsys, ["cutnorm", "--input", str(path), "--ip", "degree-plus-avg",
                              "--eps", "0.1"])
    assert code == 0 and rep["results"]["method"] == "lp-approx"
    assert [c["name"] for c in rep["certificates"]] == ["witness-consistency",
                                                        "approx-guarantee"]
    side = COMPLETION_CAP + 1
    big = tmp_path / "big.json"
    big.write_text(json.dumps(oracles.gnp_adjacency(np.random.default_rng(15), side, 0.5).tolist()))
    assert cli.main(["cutnorm", "--input", str(big), "--ip", "degree-plus-avg"]) == 2
    assert "positive integers" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(6, 30), (30, 6)])
def test_cutnorm_long_thin_integer_matrix_is_bruteforce(shape, tmp_path, capsys):
    """A longer side past the default ``--bf-cap`` with a short side: the
    exact sweep's pick, checked against the LP route."""
    A = np.random.default_rng(16).integers(-3, 4, size=shape).astype(float)
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(A.tolist()))
    code, rep = _run(capsys, ["cutnorm", "--input", str(path)])
    assert code == 0
    assert rep["results"]["method"] == "bruteforce"
    pool = oracles.completion_pool(A, np.ones(shape[0]), np.ones(shape[1]))
    S, T, _, sweep_value = oracles.completion_pick(pool, shape)
    assert (tuple(rep["results"]["S"]), tuple(rep["results"]["T"])) == (S, T)
    assert rep["results"]["signed_value"] == sweep_value
    assert rep["results"]["value"] == pytest.approx(max(abs(c[2]) for c in pool), rel=1e-12)
    assert [c["name"] for c in rep["certificates"]] == ["witness-consistency",
                                                        "dual-route-agreement"]


def test_classes_without_samples_is_exit_two(tmp_path, capsys):
    """Beyond the exhaustive cap ``classes`` samples partitions; with no
    sample there is no witness, which is an input error."""
    path, _ = _gnp_file(tmp_path, 13, 13)
    code = cli.main(["classes", "--input", path, "--samples", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "at least one sample" in captured.err


def test_weights_file_inner_product(tmp_path, capsys):
    wpath = tmp_path / "w.txt"
    wpath.write_text("1 1 2 2\n")
    code, rep = _run(capsys, ["pvd", "--input", _graph_file(tmp_path),
                              "--ip", f"file:{wpath}", "--r", "2"])
    assert code == 0


def _tensor_file(tmp_path, T):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dims": list(T.shape), "entries": T.ravel().tolist()}))
    return str(path)


@pytest.mark.parametrize("command", ["cutnorm", "pvd", "tensor"])
def test_underflowing_weights_are_exit_two(command, tmp_path, capsys):
    """Weights that span the float range, 1e-300 beside 1, keep their
    smallest weight at unit scale, and the weight masses d(S) e(T) of its
    rectangles underflow to 0: a usage error naming the weights, not a
    division by zero or an empty reduction deep in the sweep.  ``tensor``
    takes the same guard."""
    path, count = _weights_input(tmp_path, command)
    w = ["1"] * count
    w[0] = w[count // 3] = "1e-300"  # the first mode's and, of the tensor, the second's
    weights = tmp_path / "w.txt"
    weights.write_text(" ".join(w) + "\n")
    code = cli.main([command, "--input", str(path), "--ip", f"file:{weights}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "weights" in captured.err and "underflow" in captured.err


def _weights_input(tmp_path, command):
    """The input of a weights test of ``command``, and its count of weights."""
    if command == "tensor":
        return _tensor_file(tmp_path, np.arange(27.0).reshape(3, 3, 3)), 9
    path = tmp_path / "g.edges"
    path.write_text("1 2\n2 3\n1 3\n3 4\n")
    return str(path), 4


def _uniform_weights_run(tmp_path, capsys, command, exponent):
    """The reports of ``command`` with uniform weights ``2**exponent`` and
    with Euclidean ones."""
    path, count = _weights_input(tmp_path, command)
    weights = tmp_path / "w.txt"
    weights.write_text(" ".join([repr(2.0**exponent)] * count) + "\n")
    code, rep = _run(capsys, [command, "--input", path, "--ip", f"file:{weights}"])
    assert code == 0 and rep["all_certificates_pass"] is True
    return rep, _run(capsys, [command, "--input", path])[1]


@pytest.mark.parametrize("command", ["cutnorm", "pvd", "tensor"])
def test_underflowing_weights_are_scaled_away(command, tmp_path, capsys):
    """Uniform weights of 2^-996 (about 1e-300) come to 1 at unit scale:
    the run is the Euclidean one, with the whitened values times
    ``2**(996 * modes / 2)``, where it used to be refused as underflowing.
    On the tensor that is past the float range: ``overflow``."""
    rep, euclidean = _uniform_weights_run(tmp_path, capsys, command, -996)
    key = "value" if command == "cutnorm" else "sigmas"
    modes = 3 if command == "tensor" else 2
    with np.errstate(over="ignore"):
        want = np.ldexp(euclidean["results"][key], 996 * modes // 2).tolist()
    got = rep["results"][key]
    assert got == (["overflow" if math.isinf(v) else v for v in want]
                   if isinstance(want, list) else want)


@pytest.mark.parametrize("ip", ["file", "degree"])
def test_tensor_square_two_mode_input_shares_one_weight_vector(ip, tmp_path, capsys):
    """A square two-mode tensor reads its weights as a square matrix does:
    ``n`` numbers from a file, or its degrees, for both modes."""
    A = oracles.gnp_adjacency(np.random.default_rng(17), 4, 0.7)
    w = np.array([1.0, 2.0, 3.0, 4.0]) if ip == "file" else A.sum(axis=1)
    wpath = tmp_path / "w.txt"
    wpath.write_text(" ".join(map(str, w)) + "\n")
    flag = f"file:{wpath}" if ip == "file" else "degree"
    code, rep = _run(capsys, ["tensor", "--input", _tensor_file(tmp_path, A), "--ip", flag])
    assert code == 0
    want = tensor_bound_check(A, CutTuples([w, w]), 2)
    assert rep["results"]["sigmas"] == want["sigmas"]


def test_tensor_three_modes_refuse_degree_weights(tmp_path, capsys):
    path = _tensor_file(tmp_path, np.ones((2, 2, 2)))
    code = cli.main(["tensor", "--input", path, "--ip", "degree"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "square" in captured.err


@pytest.mark.parametrize("name", sorted(n for n, (_, _, options) in cli.COMMANDS.items()
                                        if "ip" in options))
def test_each_ip_subcommand_resolves_weights_once(name, tmp_path, capsys, monkeypatch):
    """Every subcommand that declares ``--ip`` reads it through the one
    resolver, once, and parses no weights of its own."""
    calls = []
    resolve = cli.resolve_weights

    def counted(ip, A):
        calls.append(ip)
        return resolve(ip, A)

    monkeypatch.setattr(cli, "resolve_weights", counted)
    if name == "tensor":
        path = _tensor_file(tmp_path, np.arange(8.0).reshape(2, 2, 2))
    else:
        path = _graph_file(tmp_path)
    eps = {"weakreg": "0.6", "szemreg": "0.8", "maxcut": "0.5"}
    cli.main([name, "--input", path] + (["--eps", eps[name]] if name in eps else []))
    capsys.readouterr()
    assert calls == ["euclidean"]


def _big_file(tmp_path):
    """A matrix whose squared entries overflow the float range."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps((np.random.default_rng(0).normal(size=(6, 5)) * 1e160).tolist()))
    return str(path)


@pytest.mark.parametrize("extra", [["--r", "1"], []])
def test_pvd_of_entries_near_the_float_limit_is_certified(extra, tmp_path, capsys):
    """Norms of whitened arrays are taken without overflowing their squares,
    so the projection identity compares finite norms."""
    code, rep = _run(capsys, ["pvd", "--input", _big_file(tmp_path), *extra])
    assert code == 0
    assert len(rep["certificates"]) == 5 and rep["all_certificates_pass"] is True
    assert rep["results"]["source_frob_norm"] == pytest.approx(
        1e160 * float(np.linalg.norm(np.random.default_rng(0).normal(size=(6, 5)))), rel=1e-12)


@pytest.mark.parametrize("source, scale", [("normal", 1e12), ("graph", 1e12), ("graph", 1e100),
                                           ("graph", 1e160)])
def test_pvd_certificates_allow_roundoff_at_the_source_scale(source, scale, tmp_path, capsys):
    """Step dominance and the truncation chain allow ``1e-12`` times the
    whitened source norm past ``1e-9`` at unit scale: with an absolute slack
    the 8x9 matrix at 1e12 failed ``truncation-chain-source`` by 2.4e-4,
    and this G(10) failed a chain or step certificate at every scale."""
    if source == "normal":
        A = np.random.default_rng(3).normal(size=(8, 9))
    else:
        A = oracles.gnp_adjacency(np.random.default_rng(12), 10, 0.5)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps((A * scale).tolist()))
    code, rep = _run(capsys, ["pvd", "--input", str(path)])
    assert code == 0 and rep["all_certificates_pass"] is True
    certs = {c["name"]: c for c in rep["certificates"]}
    k = unit_scale(A * scale)[1]
    for name in ("step-dominance", "truncation-chain-residual", "truncation-chain-source"):
        assert certs[name]["rhs"] == _unit_slack(1e-9, rep["results"]["source_frob_norm"], k)


def test_engine_scales_a_whitened_source_outside_the_window(tmp_path, capsys):
    """G(10) at 2^8 with file weights at 2^-8 lies inside the window of
    ``unit_scale``, so the CLI leaves it as it is, but its whitened form is
    2^16 times that of G(10) with the unscaled weights; in both runs the
    largest whitened entry times its power of two lies in [1, 2).
    ``compute_pvd`` and ``verify_pvd`` bring the whitened source to unit
    scale, so the report is the unscaled run's, each whitened value times
    2^16, bit for bit.  With the floors taken in the whitened units the step
    and chain certificates' rhs would shrink, and with the default threshold
    there the full run would pick differently from step 88 on.  (An even
    power keeps the square roots of the weights' sums exact.)"""
    A = oracles.gnp_adjacency(np.random.default_rng(12), 10, 0.5)
    w = np.linspace(0.5, 0.75, 10)
    reports = []
    for k in (0, 8):
        path, weights = tmp_path / f"g{k}.json", tmp_path / f"w{k}.txt"
        path.write_text(json.dumps(np.ldexp(A, k).tolist()))
        weights.write_text(" ".join(map(repr, np.ldexp(w, -k).tolist())) + "\n")
        white = np.ldexp(A, k) / np.sqrt(np.outer(np.ldexp(w, -k), np.ldexp(w, -k)))
        assert 1 <= math.ldexp(np.abs(white).max(), -2 * k) < 2
        assert unit_scale(np.ldexp(A, k))[1] == unit_scale(np.ldexp(w, -k))[1] == 0
        code, rep = _run(capsys, ["pvd", "--input", str(path), "--ip", f"file:{weights}",
                                  "--r", "8"])
        assert code == 0
        reports.append(rep)
    want, got = (rep["results"] for rep in reports)
    assert got["selected"] == want["selected"] and got["num_terms"] == want["num_terms"] == 8
    assert got["exhausted"] == want["exhausted"]
    for key in ("sigmas", "coefficients", "step_values", "residual_pnorm", "source_frob_norm"):
        assert np.array_equal(got[key], np.ldexp(want[key], 16)), key
    names = [c["name"] for c in reports[0]["certificates"]]
    assert {"step-dominance", "truncation-chain-residual", "truncation-chain-source"} <= set(names)
    for g, c in zip(reports[1]["certificates"], reports[0]["certificates"], strict=True):
        e = 0 if c["name"] == "basis-orthonormality" else 16
        assert (g["name"], g["lhs"], g["rhs"], g["pass"]) == (
            c["name"], math.ldexp(c["lhs"], e), math.ldexp(c["rhs"], e), c["pass"])
    # the default threshold applies at unit scale too: the full runs, whose
    # last steps pick within the tie band, agree term for term
    runs = [compute_pvd(np.ldexp(A, k), domains.CutDomain(np.ldexp(w, -k), np.ldexp(w, -k)))
            for k in (0, 8)]
    assert runs[1].keys == runs[0].keys and runs[1].exhausted == runs[0].exhausted
    assert np.array_equal(runs[1].coeffs, np.ldexp(runs[0].coeffs, 16))


def _unit_slack(floor: float, norm: float, k: int) -> float:
    """``max(floor, 1e-12 * norm)`` taken at unit scale, where the norm is
    ``norm * 2**k``, in the input's units."""
    return math.ldexp(max(floor, 1e-12 * math.ldexp(norm, k)), -k)


def _scaled_graph(tmp_path, scale, seed=12):
    path = tmp_path / "scaled.json"
    A = oracles.gnp_adjacency(np.random.default_rng(seed), 10, 0.5)
    path.write_text(json.dumps((A * scale).tolist()))
    return str(path), A


@pytest.mark.parametrize("seed", [12, 3])
def test_regularity_certificates_allow_roundoff_at_the_source_scale(seed, tmp_path, capsys):
    """The weak and ladder certificates allow ``roundoff_slack`` at the
    scale of what they compare, at unit scale: with an absolute 1e-9
    in the input's units, ``szemreg`` on these
    G(10) at 1e12 exited 1, failing ``window-captures-gap`` (seed 12) or
    ``second-term-control`` (seed 3) by an ulp."""
    path, A = _scaled_graph(tmp_path, 1e12, seed)
    code, rep = _run(capsys, ["szemreg", "--input", path, "--eps", "0.8"])
    assert code == 0 and rep["all_certificates_pass"] is True
    certs = {c["name"]: c for c in rep["certificates"]}
    src = 1e12 * float(np.linalg.norm(A))
    assert certs["first-term-control"]["rhs"] == pytest.approx(
        rep["results"]["bound_certificate"] + _unit_slack(1e-9, 10 * src, unit_scale(A * 1e12)[1]),
        rel=1e-15)
    code, rep = _run(capsys, ["weakreg", "--input", path, "--eps", "0.5"])
    assert code == 0 and rep["all_certificates_pass"] is True


def test_classes_core_density_near_the_float_limit(tmp_path, capsys):
    """At 1e154 the outer products of the degrees overflow: the core
    density read 0, its identity passed on 0 = 0, and the threshold rank
    read 0, with RuntimeWarnings.  At unit scale both sides of the identity
    and the threshold rank keep the values of the unscaled graph."""
    cores, ranks = [], []
    for scale in (1.0, 1e154):
        path, A = _scaled_graph(tmp_path, scale)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, rep = _run(capsys, ["classes", "--input", path])
            d = cli._weights("degree-plus-avg", A)[0]
            other = frob_norm(A, d, d) ** 2  # the identity carries no unit
        assert code == 0 and rep["all_certificates_pass"] is True
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        cores.append(rep["results"]["core_density"])
        ranks.append(rep["results"]["threshold_rank"])
        assert cores[-1] > 0 and other == pytest.approx(cores[-1], rel=1e-12)
    assert cores[1] == pytest.approx(cores[0], rel=1e-12)
    assert ranks[1] == pytest.approx(ranks[0], rel=1e-12) and ranks[0] > 0


@pytest.mark.parametrize("argv", [["szemreg", "--eps", "0.8"], ["classes"]],
                         ids=["szemreg", "classes"])
def test_overflowing_squares_are_scaled_away(argv, tmp_path, capsys):
    """At 2^531 the ladder's masses and the block densities' powers
    overflowed, and were refused; at unit scale they do not, and the report
    is the one of the graph itself, each value times its power of two.
    The ladder's masses carry 2^1062, past the float range: ``overflow``."""
    reps = []
    for scale in (1.0, 2.0**531):
        code, rep = _run(capsys, [argv[0], "--input", _scaled_graph(tmp_path, scale)[0],
                                  *argv[1:]])
        assert code == 0 and rep["all_certificates_pass"] is True
        reps.append(rep["results"])
    if argv[0] == "szemreg":
        assert reps[1]["parts"] == reps[0]["parts"]
        assert reps[1]["mass_horizon"] == "overflow"
        assert reps[1]["weak_irregularity_ub"] == math.ldexp(reps[0]["weak_irregularity_ub"], 531)
    else:
        assert reps[1]["lp_regularity"] == reps[0]["lp_regularity"]
        assert reps[1]["spectral_projection_values"] == np.ldexp(
            reps[0]["spectral_projection_values"], 531).tolist()


def test_block_density_powers_past_the_float_range_are_exit_two(tmp_path, capsys):
    """The block densities' powers depend on ``--p``: at unit scale the
    largest entry 1.9 to the power 2000 still overflows, an input error."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps([[0.0, 1.9, 1.0], [1.9, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    code = cli.main(["classes", "--input", str(path), "--p", "2000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: block densities overflow")


def test_ratio_grid_past_its_cap_is_exit_two(tmp_path, capsys):
    """Degree weights of a K23 with edge weights 40 give a ratio grid of
    20240 x 20240 pairs for the LP route, which ``cutnorm`` takes past
    ``COMPLETION_CAP``: refused at once, where it used to grow without bound."""
    path = tmp_path / "k23.edges"
    path.write_text("".join(f"{i} {j} 40\n" for i in range(23) for j in range(i + 1, 23)))
    code = cli.main(["cutnorm", "--input", str(path), "--ip", "degree"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {20240 * 20240} LP ratio pairs exceed RATIO_CAP 65536\n"


@pytest.mark.parametrize("seed", [None, 12])
def test_dual_route_check_past_the_ratio_cap_is_left_out(tmp_path, capsys, seed):
    """Under degree weights, a K4 with edge weights 100 (ratio grid 1200 x
    1200) and a G(10) with edge weights 100 have LP ratio grids past
    ``RATIO_CAP``.  The sweep gives the exact value, and the run reports it
    without ``dual-route-agreement``, where it used to exit 2 on the LP's
    refusal."""
    if seed is None:
        A = 100 * (np.ones((4, 4)) - np.eye(4))
    else:
        A = 100 * oracles.gnp_adjacency(np.random.default_rng(seed), 10, 0.5)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(A.tolist()))
    d = A.sum(axis=1)
    assert d.sum() ** 2 > cutnorm.RATIO_CAP
    code, rep = _run(capsys, ["cutnorm", "--input", str(path), "--ip", "degree"])
    assert code == 0 and rep["results"]["method"] == "bruteforce"
    assert [c["name"] for c in rep["certificates"]] == ["witness-consistency"]
    assert rep["results"]["value"] == pytest.approx(oracles.cut_pnorm_max_fast(A, d, d),
                                                    rel=1e-12)


def test_cur_of_entries_near_the_float_limit_keeps_its_terms(tmp_path, capsys):
    """Column and row norms near 1e160 are taken at unit scale, without
    overflowing their squares: every direction is kept, and ``cur-chain``
    compares finite norms (its floor ``1e-9`` at unit scale), where it used
    to pass with 0 terms against an overflowed rhs."""
    M = np.random.default_rng(3).normal(size=(8, 9))
    path = tmp_path / "big.json"
    path.write_text(json.dumps((M * 1e160).tolist()))
    code, rep = _run(capsys, ["cur", "--input", str(path), "--eps", "0.5"])
    assert code == 0 and rep["results"]["num_terms"] == 5
    cert = rep["certificates"][0]
    floor = math.ldexp(1e-9, -unit_scale(M * 1e160)[1])
    assert 0 < cert["lhs"] <= cert["rhs"] == pytest.approx(
        0.5 * 1e160 * float(np.linalg.norm(M)) + floor, rel=1e-12)


@pytest.mark.parametrize("command", ["cutnorm", "pvd", "tensor", "degree"])
def test_overflowing_weight_masses_are_scaled_away(command, tmp_path, capsys):
    """Weight masses that multiply beyond the float range, which were
    refused, are taken at unit scale: uniform weights of 2^664 (about
    1e200) run as Euclidean ones, the whitened values times
    ``2**(-664 * modes / 2)``, and the degree weights of a G(10) at 1e160
    give the report of the G(10) itself."""
    if command == "degree":
        A = oracles.gnp_adjacency(np.random.default_rng(12), 10, 0.5)
        reps = []
        for scale in (1.0, 1e160):
            path = tmp_path / "g.json"
            path.write_text(json.dumps((A * scale).tolist()))
            code, rep = _run(capsys, ["pvd", "--input", str(path), "--ip", "degree"])
            assert code == 0 and rep["all_certificates_pass"] is True
            reps.append(rep["results"])
        assert reps[1]["selected"] == reps[0]["selected"]
        assert reps[1]["sigmas"] == pytest.approx(reps[0]["sigmas"], rel=1e-12)
        return
    rep, euclidean = _uniform_weights_run(tmp_path, capsys, command, 664)
    key = "value" if command == "cutnorm" else "sigmas"
    modes = 3 if command == "tensor" else 2
    assert rep["results"][key] == np.ldexp(euclidean["results"][key], -664 * modes // 2).tolist()


def test_tensor_of_entries_near_the_float_limit_writes_its_report(tmp_path, capsys):
    """The certificates' slack scales with the whitened source norm past
    1e-9, so the residual check passes on the roundoff of entries near
    1e160 (about 4e144 against a slack of 4.5e148) and the run exits 0."""
    code, rep = _run(capsys, ["tensor", "--input", _big_file(tmp_path)])
    assert code == 0 and rep["all_certificates_pass"] is True
    certs = {c["name"]: c for c in rep["certificates"]}
    assert list(certs) == ["residual-vs-tail", "tail-vs-source", "residual-consistency"]
    assert certs["residual-consistency"]["lhs"] > 1e-9  # an absolute slack would fail
    assert certs["residual-consistency"]["rhs"] > 1e-12 * 1e160


def test_cutnorm_of_entries_near_the_float_limit(tmp_path, capsys):
    """The LP route of the dual check solves without overflow warnings."""
    code, rep = _run(capsys, ["cutnorm", "--input", _big_file(tmp_path)])
    assert code == 0
    assert [c["name"] for c in rep["certificates"]] == ["witness-consistency",
                                                        "dual-route-agreement"]


def _scaled_cutnorm(tmp_path, capsys, A, scale, extra=()):
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps((A * scale).tolist()))
    code, rep = _run(capsys, ["cutnorm", "--input", str(path), *extra])
    return code, rep, {c["name"]: c for c in rep["certificates"]} if rep else None


@pytest.mark.parametrize("matrix, scale, extra", [
    ("normal", 1e7, []), ("normal", 1e8, ["--eps", "0.1"]), ("normal", 1e9, []),
    ("normal", 1e9, ["--eps", "0.1"]), ("normal", 1e100, []), ("normal", 1e100, ["--eps", "0.1"]),
    ("integer", 1e9, [])])
def test_cutnorm_lp_route_at_large_entry_scales(matrix, scale, extra, tmp_path, capsys):
    """The LP of an input whose entries reach 2**10 is solved in units that
    bring them into [1, 2), so the tableau's absolute tolerance compares
    entry rows and budget rows at one scale.  With the entries as given,
    the 8x9 matrix at 1e7-1e9 exited 2 ("no optimum within 13750 pivots"),
    at 1e100 and the 7x7 integer one at 1e9 ("objective unbounded above").
    Each run now reports the scale times the unscaled value and rectangle."""
    rng = np.random.default_rng(3)
    A = rng.normal(size=(8, 9)) if matrix == "normal" else rng.integers(-3, 4, size=(7, 7))
    code, unit, _ = _scaled_cutnorm(tmp_path, capsys, A, 1.0, extra)
    assert code == 0
    code, rep, certs = _scaled_cutnorm(tmp_path, capsys, A, scale, extra)
    assert code == 0 and rep["all_certificates_pass"] is True
    assert rep["results"]["value"] == pytest.approx(scale * unit["results"]["value"], rel=1e-15)
    assert (rep["results"]["S"], rep["results"]["T"]) == (unit["results"]["S"],
                                                          unit["results"]["T"])
    if "dual-route-agreement" in certs:
        assert certs["dual-route-agreement"]["lhs"] <= 1e-15 * rep["results"]["value"]


@pytest.mark.parametrize("scale, ip, extra", [
    (3e8, "1.5", []), (1e9, "1.5", []), (1e10, "1.5", []), (1e12, "1.5", []),
    (1e9, "1.5", ["--eps", "0.1"]), (1e9, "1", [])])
def test_cutnorm_certificates_allow_roundoff_at_the_source_scale(scale, ip, extra, tmp_path,
                                                                 capsys):
    """``witness-consistency``, ``approx-guarantee`` and
    ``dual-route-agreement`` allow ``1e-12`` times the whitened source norm
    past their floors (1e-9, 1e-9, 1e-6) at unit scale: with absolute
    slacks in the input's units the 8x9
    matrix with all weights 1.5 failed ``witness-consistency`` at 3e8-1e12
    (lhs 1.2e-7 to 4.9e-4), and with unit weights at 1e9 (lhs 4.8e-7)."""
    A = np.random.default_rng(3).normal(size=(8, 9))
    weights = tmp_path / "w.txt"
    weights.write_text("\n".join([ip] * 17))
    code, rep, certs = _scaled_cutnorm(tmp_path, capsys, A, scale,
                                       ["--ip", f"file:{weights}", *extra])
    assert code == 0 and rep["all_certificates_pass"] is True
    src = scale * float(np.linalg.norm(A)) / float(ip)
    floors = {"witness-consistency": 1e-9, "approx-guarantee": 1e-9, "dual-route-agreement": 1e-6}
    assert "witness-consistency" in certs and set(certs) <= set(floors)
    k = unit_scale(A * scale)[1]
    for name, cert in certs.items():
        assert cert["rhs"] == pytest.approx(_unit_slack(floors[name], src, k), rel=1e-12)


def test_unknown_ip_rejected(tmp_path, capsys):
    code = cli.main(["pvd", "--input", _graph_file(tmp_path), "--ip", "taxicab"])
    capsys.readouterr()
    assert code == 2


def test_parser_is_built_once_and_reused(tmp_path):
    """Back-to-back ``main`` calls share one parser; with different
    subcommands and options (the second leaves ``--ip`` and ``--bf-cap`` at
    their defaults) they write what fresh processes write."""
    assert cli.build_parser() is cli.build_parser()
    runs = [["weakreg", "--input", _graph_file(tmp_path), "--eps", "0.6", "--ip", "degree",
             "--bf-cap", "3"],
            ["cutnorm", "--input", _mtx_file(tmp_path), "--eps", "0.1"]]
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for i, argv in enumerate(runs):
        assert cli.main(argv + ["--output", str(tmp_path / f"same-{i}.json")]) == 0
    for i, argv in enumerate(runs):
        out = tmp_path / f"fresh-{i}.json"
        subprocess.run([sys.executable, "-m", "pvdkit.cli", *argv, "--output", str(out)],
                       check=True, env=env)
        assert (tmp_path / f"same-{i}.json").read_bytes() == out.read_bytes()


class _ReadRecorder:
    """A parsed namespace that records the name of every option read from it."""

    def __init__(self, args):
        self._args = args
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._args, name)


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_each_declared_option_is_read(tmp_path, name):
    """A subcommand declares exactly the options ``run`` and its handler
    read, besides ``--input`` and the ``--output`` that ``main`` reads."""
    if name == "cur":
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]]))
    elif name == "tensor":
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"dims": [2, 2, 2], "entries": [1, 0, 0, 1, 0, 1, 1, 0]}))
    else:
        path = _graph_file(tmp_path)
    eps = {"weakreg": "0.6", "szemreg": "0.8", "cur": "0.5", "maxcut": "0.5"}
    argv = [name, "--input", str(path)] + (["--eps", eps[name]] if name in eps else [])
    args = _ReadRecorder(cli.build_parser().parse_args(argv))
    cli.run(name, args)
    _, _, options = cli.COMMANDS[name]
    assert args.read == {"input"} | {flag.replace("-", "_") for flag in options}


@pytest.mark.parametrize("argv", [["cur", "--ip", "degree"],
                                  ["maxcut", "--eps", "0.5", "--tol-abs", "1e-6"],
                                  ["pvd", "--tol-rel", "1e-9"]])
def test_option_a_subcommand_does_not_read_is_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], "--input", _graph_file(tmp_path), *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["tensor", "--t", "1e-3"], ["cutnorm", "--b", "3"],
                                  ["cur", "--e", "0.5"]])
def test_abbreviated_option_is_usage_error(tmp_path, capsys, argv):
    """A prefix of an option is not resolved, whichever options the
    subcommand has."""
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], "--input", _graph_file(tmp_path), *argv[1:]])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["pvd", "--tol-abs", "nan"], ["pvd", "--tol-abs", "inf"],
                                  ["pvd", "--tol-abs", "-1"],
                                  ["weakreg", "--eps", "0.5", "--tol-abs", "nan"],
                                  ["cutnorm", "--tol-abs", "-1"], ["tensor", "--tol-abs", "nan"],
                                  ["cur", "--eps", "0.5", "--tol-abs", "-1"],
                                  ["classes", "--tol-abs", "inf"], ["classes", "--p", "nan"],
                                  ["classes", "--eps", "nan"], ["classes", "--eta", "inf"],
                                  ["maxcut", "--eps", "0.5", "--delta", "nan"],
                                  ["szemreg", "--eps", "0.8", "--base", "inf"],
                                  ["weakreg", "--eps", "inf"]])
def test_non_finite_or_negative_float_option_is_usage_error(tmp_path, capsys, argv):
    """Float options must be finite and ``--tol-abs`` at least 0; the parser
    refuses anything else (exit 2) before the input is read."""
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], "--input", _graph_file(tmp_path), *argv[1:]])
    assert exc.value.code == 2
    assert f"argument {argv[-2]}:" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["-1", "0"])
def test_classes_non_positive_eps_is_exit_two(tmp_path, capsys, eps):
    """``classes --eps`` is the threshold-rank cut, which must be positive,
    as every other ``--eps`` is."""
    code = cli.main(["classes", "--input", _graph_file(tmp_path), "--eps", eps])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "eps must be positive" in captured.err


def test_bf_cap_does_not_change_a_greedy_report(tmp_path, capsys):
    """Every rectangle of the band residual is within ``--tol-abs`` of the
    maximum; within ``--bf-cap`` and past it the step takes the same pick,
    so the reports are byte-identical.  So are the partition reports of a
    G(8): their cut-norm bounds and Szemeredi sum are the one exact sweep on
    both sides of ``--bf-cap``."""
    band = tmp_path / "band.json"
    band.write_text(json.dumps((1e-17 * np.array([[0, -1, 0], [-1, -1, -1], [-1, -1, -1]]))
                               .tolist()))
    graph, _ = _gnp_file(tmp_path, 8, 103)
    for argv in (["pvd", "--input", str(band)], ["weakreg", "--input", graph, "--eps", "0.5"],
                 ["szemreg", "--input", graph, "--eps", "0.8"]):
        texts = []
        for extra in ([], ["--bf-cap", "1"]):
            assert cli.main([*argv, *extra]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1], argv[0]


@pytest.mark.parametrize("argv", [["pvd", "--r", "1"],
                                  ["weakreg", "--eps", "0.5", "--ip", "degree"],
                                  ["szemreg", "--eps", "0.8"], ["maxcut", "--eps", "0.5"],
                                  ["classes"]])
def test_greedy_runs_past_the_sweep_rule_are_refused(argv, tmp_path, capsys, monkeypatch):
    """Past ``cutnorm._sweep_exact`` a greedy cut step is refused before
    any work: a G(23) run exits 2 naming the rule, with no LP solved and no
    sweep run."""
    def refuse(*args, **kwargs):
        raise AssertionError("a route ran past the rule")

    for module, name in ((cutnorm, "_CutLpFamily"), (cutnorm, "simplex_solve"),
                         (domains, "_sweep_pick"), (domains, "_SweepTables"),
                         (regularity, "_plain_cut_norm")):
        monkeypatch.setattr(module, name, refuse)
    path, A = _gnp_file(tmp_path, COMPLETION_CAP + 1, 23)
    assert A.sum(axis=1).min() > 0  # every vertex is in the edge list
    code = cli.main([argv[0], "--input", path, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert re.search(oracles.sweep_rule(A.shape), captured.err)


@pytest.mark.parametrize("command, doc",[("tensor", {"dims": [2, 2]}),
                                          ("cutnorm", {"matrix": {"a": 1}}),
                                          ("tensor", [["1", "2"], ["3", "4"]]),
                                          ("cutnorm", [[True, False], [False, True]])])
def test_malformed_json_is_exit_two(tmp_path, capsys, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = cli.main([command, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"{path}:1: " in captured.err


def test_readme_options_table_matches_the_parser():
    """The README's options table lists each subcommand's options, in
    order, as ``COMMANDS`` declares them."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### Options\n", 1)[1].split("\n#", 1)[0]
    table = {m.group(1): re.findall(r"`--([\w-]+)`", m.group(2))
             for m in re.finditer(r"^\| `(\w+)` \| (.*) \|$", section, re.M)}
    assert table == {name: list(options) for name, (_, _, options) in cli.COMMANDS.items()}


def test_zero_tol_abs_is_accepted(tmp_path, capsys):
    code, rep = _run(capsys, ["pvd", "--input", _graph_file(tmp_path), "--tol-abs", "0"])
    assert code == 0
    assert rep["results"]["verified"] is True


def test_threshold_stop_is_not_exhaustion(tmp_path, capsys):
    """``--tol-abs 1`` stops this graph after one term with a residual of
    domain norm 1: the run is exhausted at its threshold, not to zero, so
    the projection identity is one-sided and the stop has its own
    certificate, where the two-sided identity failed (lhs 1.414 against
    2.8e-8) and the run exited 1."""
    path = tmp_path / "g.edges"
    path.write_text("a b\nb c\nc a\nc d\n")
    code, rep = _run(capsys, ["pvd", "--input", str(path), "--tol-abs", "1"])
    assert code == 0 and rep["all_certificates_pass"] is True
    assert rep["results"]["num_terms"] == 1 and rep["results"]["exhausted"] is True
    certs = {c["name"]: c for c in rep["certificates"]}
    assert certs["projection-identity"]["lhs"] < 0
    assert certs["threshold-stop"]["lhs"] == rep["results"]["residual_pnorm"] == 1.0
    # a run exhausted to zero keeps the two-sided identity and no stop certificate
    code, rep = _run(capsys, ["pvd", "--input", str(path)])
    assert code == 0 and "threshold-stop" not in {c["name"] for c in rep["certificates"]}
    assert rep["certificates"][0]["lhs"] >= 0


#: each subcommand's ``results`` keys (and the ``classes`` profile's).  The
#: handlers merge the library's result records into ``results``, so a field
#: added to a record fails here before it reaches a report unnoticed
RESULT_KEYS = {
    "pvd": "coefficients exhausted num_terms residual_pnorm selected sigmas source_frob_norm "
           "step_values verified",
    "cutnorm": "S T method signed_value value",
    "weakreg": "block_deviation bound_certificate irregularity_exact num_parts parts selected "
               "szemeredi_irregularity_ub terms_used truncation_rank weak_irregularity_ub",
    "szemreg": "bound_certificate f_q level_index levels literal_window_ok mass_horizon "
               "num_parts parts parts_factor q refined_rank szemeredi_irregularity_ub "
               "terms_used weak_irregularity_ub window windows",
    "classes": "core_density lp_regularity profile spectral_projection_values threshold_rank",
    "cur": "exhausted num_terms residual_pnorm_of_truncation selected sigmas source_frob_norm",
    "tensor": "domain_size r sigmas",
    "maxcut": "bipartition counts delta estimate exact_split grid_term irregularity_exact "
              "num_parts weak_irregularity_ub",
}
PROFILE_KEYS = "certificate_ratio cut_mass_ratio exhausted r sigma_prefix_norm sigmas"


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_results_keys_are_pinned(tmp_path, capsys, name):
    if name == "cur":
        path = tmp_path / "m.json"
        path.write_text(json.dumps([[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]]))
    elif name == "tensor":
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"dims": [2, 2, 2], "entries": [1, 0, 0, 1, 0, 1, 1, 0]}))
    else:
        path = _graph_file(tmp_path)
    eps = {"weakreg": "0.6", "szemreg": "0.8", "cur": "0.5", "maxcut": "0.5"}
    code, rep = _run(capsys, [name, "--input", str(path)]
                     + (["--eps", eps[name]] if name in eps else []))
    assert code == 0
    assert sorted(rep["results"]) == RESULT_KEYS[name].split()
    if name == "classes":
        assert sorted(rep["results"]["profile"]) == PROFILE_KEYS.split()
