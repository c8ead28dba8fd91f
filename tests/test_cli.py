import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from pvdkit import cli
from pvdkit.cutnorm import COMPLETION_CAP, normalized_cut_bruteforce
from pvdkit.domains import UnsupportedDomain
from pvdkit.pvd import best_truncation
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


def test_cutnorm_non_integer_weights_beyond_the_cap_take_the_completion(tmp_path, capsys):
    """Past ``--bf-cap`` with non-integer weights ``cutnorm`` sweeps the
    smaller side (the exact completion) and reports the exact value."""
    A = oracles.gnp_adjacency(np.random.default_rng(14), 13, 0.5)
    path = tmp_path / "g13.json"
    path.write_text(json.dumps(A.tolist()))
    code, rep = _run(capsys, ["cutnorm", "--input", str(path), "--ip", "degree-plus-avg"])
    assert code == 0
    assert rep["results"]["method"] == "completion"
    d, _ = cli.resolve_weights("degree-plus-avg", A)
    want = normalized_cut_bruteforce(A, d, d, cap=13)
    assert rep["results"]["value"] == pytest.approx(abs(want.value), rel=1e-12)
    # integer weights keep the LP route; beyond the completion cap it refuses
    _, rep = _run(capsys, ["cutnorm", "--input", str(path)])
    assert rep["results"]["method"] == "lp-exact"
    side = COMPLETION_CAP + 1
    big = tmp_path / "big.json"
    big.write_text(json.dumps(oracles.gnp_adjacency(np.random.default_rng(15), side, 0.5).tolist()))
    assert cli.main(["cutnorm", "--input", str(big), "--ip", "degree-plus-avg"]) == 2
    assert f"completion cap {COMPLETION_CAP}" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["cutnorm", "pvd"])
def test_underflowing_weights_are_exit_two(command, tmp_path, capsys):
    """Weights of 1e-300 make every weight mass d(S) e(T) underflow to 0: a
    usage error naming the weights, not a division by zero or an empty
    reduction deep in the sweep."""
    graph = tmp_path / "g.edges"
    graph.write_text("1 2\n2 3\n1 3\n3 4\n")
    weights = tmp_path / "w.txt"
    weights.write_text("1e-300 1e-300 1e-300 1e-300\n")
    code = cli.main([command, "--input", str(graph), "--ip", f"file:{weights}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "weights" in captured.err and "underflow" in captured.err


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
    """A subcommand declares exactly the options its handler reads, besides
    ``--input`` and the ``--output`` that ``main`` reads."""
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
    cli.HANDLERS[name](args)
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


@pytest.mark.parametrize("command, doc", [("tensor", {"dims": [2, 2]}),
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
