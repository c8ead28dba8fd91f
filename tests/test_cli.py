import json

import numpy as np
import pytest

from pvdkit import cli
from pvdkit.domains import UnsupportedDomain
from pvdkit.regularity import szemeredi_partition

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
    gap = lib.details["refined_approx"] - lib.approx_matrix
    # [DERIVED] blockwise plain-loop cut norms of the gap
    exact = sum(oracles.plain_cutnorm(gap[np.ix_(P, Q)])
                for P in lib.partition for Q in lib.partition)
    assert second["lhs"] >= exact - 1e-9


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
    def fake(args):
        return ({"path": "x", "format": "json", "shape": [1, 1]}, {}, {},
                [{"name": "always-fails", "lhs": 2.0, "rhs": 1.0, "pass": False}])

    monkeypatch.setitem(cli.HANDLERS, "pvd", fake)
    code = cli.main(["pvd", "--input", _graph_file(tmp_path)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["all_certificates_pass"] is False


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


def test_weights_file_inner_product(tmp_path, capsys):
    wpath = tmp_path / "w.txt"
    wpath.write_text("1 1 2 2\n")
    code, rep = _run(capsys, ["pvd", "--input", _graph_file(tmp_path),
                              "--ip", f"file:{wpath}", "--r", "2"])
    assert code == 0


def test_unknown_ip_rejected(tmp_path, capsys):
    code = cli.main(["pvd", "--input", _graph_file(tmp_path), "--ip", "taxicab"])
    capsys.readouterr()
    assert code == 2
