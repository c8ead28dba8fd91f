"""Acceptance gate: fourteen end-to-end criteria, one test each.

Each test prints an explicit PASS/FAIL line (see conftest).  Tolerances are
pinned in the assertions; the shared corpora are session fixtures so the
greedy runs are computed once.
"""
import json
import math
import time

import numpy as np
import numpy.linalg as la
import pytest

from pvdkit import cli
from pvdkit.cutnorm import lp_candidates, normalized_cut_bruteforce, ratio_candidates
from pvdkit.cur import cur_pvd
from pvdkit.cutnorm import cut_lp_approx, cut_lp_exact
from pvdkit.domains import CutDomain
from pvdkit.graphs import (core_density, cut_pseudorandomness_profile, degree_weights,
                           spectral_projection_values)
from pvdkit.linalg import frob_norm
from pvdkit.pvd import best_truncation, compute_pvd
from pvdkit.regularity import max_cut_details, szemeredi_partition, weak_regularity_partition
from pvdkit.tensor import CutTuples

import oracles

UNIT6 = np.ones(6)


@pytest.fixture(scope="session")
def dense_corpus():
    """50 6x6 matrices with entries uniform on [-1, 1], plus weight draws."""
    rng = np.random.default_rng(1001)
    out = []
    for _ in range(50):
        A = rng.uniform(-1.0, 1.0, size=(6, 6))
        d = rng.uniform(0.5, 2.0, size=6)
        e = rng.uniform(0.5, 2.0, size=6)
        out.append((A, d, e))
    return out


@pytest.fixture(scope="session")
def dense_runs(dense_corpus):
    """Exhaustive greedy runs per matrix, unit-weighted and weighted."""
    started = time.monotonic()
    runs = []
    for A, d, e in dense_corpus:
        for dd, ee in ((UNIT6, UNIT6), (d, e)):
            result = compute_pvd(A, CutDomain(dd, ee))
            runs.append((A, dd, ee, result))
    return runs, time.monotonic() - started


@pytest.fixture(scope="session")
def integer_corpus():
    """100 square integer matrices, entries in [-3, 3], weights in {1, 2, 3}."""
    rng = np.random.default_rng(1002)
    out = []
    for _ in range(100):
        n = int(rng.integers(3, 7))
        A = rng.integers(-3, 4, size=(n, n)).astype(float)
        d = rng.integers(1, 4, size=n).astype(float)
        e = rng.integers(1, 4, size=n).astype(float)
        out.append((A, d, e))
    return out


@pytest.fixture(scope="session")
def symmetric_corpus():
    """20 symmetric nonnegative 8x8 matrices with positive degrees."""
    rng = np.random.default_rng(1003)
    out = []
    for _ in range(20):
        B = rng.uniform(0.0, 1.0, size=(8, 8))
        out.append((B + B.T) / 2.0)
    return out


def test_criterion_01_value_norm_is_projection_norm(dense_runs):
    runs, elapsed = dense_runs
    for A, d, e, result in runs:
        src = frob_norm(A, d, e)
        want = oracles.dense_projection_norm(A, d, e)
        assert abs(la.norm(result.sigmas) - want) <= 1e-8 * src
    assert elapsed < 120.0


def test_criterion_02_values_dominate_residual_norms(dense_runs):
    runs, _ = dense_runs
    for A, d, e, result in runs:
        R = A.copy()
        for j in range(result.num_terms):
            assert oracles.cut_pnorm_max_fast(R, d, e) <= result.sigmas[j] + 1e-9
            R = R - result.increments[j]


def test_criterion_03_truncation_chain(dense_runs):
    runs, _ = dense_runs
    for A, d, e, result in runs:
        src = frob_norm(A, d, e)
        for r in range(0, 9):
            approx, _ = best_truncation(result, r)
            resid = oracles.cut_pnorm_max_fast(A - approx, d, e)
            padded = np.zeros(r + 1)
            head = min(result.num_terms, r + 1)
            padded[:head] = result.sigmas[:head]
            tail = la.norm(padded) / math.sqrt(r + 1)
            assert resid <= tail + 1e-9
            assert tail <= src / math.sqrt(r + 1) + 1e-9


def test_criterion_04_lp_route_is_exact(integer_corpus):
    started = time.monotonic()
    for idx, (A, d, e) in enumerate(integer_corpus):
        got = cut_lp_exact(A, d, e)
        want = normalized_cut_bruteforce(A, d, e)
        assert abs(abs(got.value) - abs(want.value)) <= 1e-6, f"matrix {idx}"
        # the returned rectangle attains the claimed value on both routes
        assert abs(got.value) == pytest.approx(
            oracles.cut_pnorm_max_fast(A, d, e), abs=1e-6)
    assert time.monotonic() - started < 300.0


def test_criterion_05_rounding_dominates_every_lp(integer_corpus):
    for idx, (A, d, e) in enumerate(integer_corpus):
        cs = ratio_candidates(int(d.sum()), int(e.sum()))
        for rec in lp_candidates(A, d, e, cs):
            assert rec["rounded"].value >= rec["objective"] - 1e-9, (
                f"matrix {idx} c={rec['c']} sign={rec['sign']}")


def test_criterion_06_approx_guarantee(integer_corpus):
    for idx, (A, d, e) in enumerate(integer_corpus):
        exact = abs(normalized_cut_bruteforce(A, d, e).value)
        for eps in (0.5, 0.1, 0.01):
            got = abs(cut_lp_approx(A, eps, d, e).value)
            assert got >= exact / (1.0 + eps) - 1e-9, f"matrix {idx} eps={eps}"


def test_criterion_07_weak_regularity_bound():
    rng = np.random.default_rng(1007)
    for trial in range(10):
        A = oracles.gnp_adjacency(rng, 10, 0.5)
        rep = weak_regularity_partition(A, 0.5)  # truncation rank 4
        r = rep.details["truncation_rank"]
        assert r == 4
        resid_cutnorm = oracles.plain_cutnorm_fast(A - rep.approx_matrix)
        padded = np.zeros(r + 1)
        head = min(rep.pvd.num_terms, r + 1)
        padded[:head] = rep.pvd.sigmas[:head]
        bound = la.norm(padded) / math.sqrt(r + 1) * 10.0
        assert resid_cutnorm <= bound + 1e-6, f"trial {trial}"
        assert len(rep.partition) <= 2 ** (2 * rep.terms_used)
        assert rep.block_deviation <= 1e-9
        assert rep.all_pass


def test_criterion_08_ladder_partition_certificates():
    rng = np.random.default_rng(1008)
    instances = [np.eye(4)] + [oracles.gnp_adjacency(rng, 8, 0.5) for _ in range(5)]
    for idx, A in enumerate(instances):
        n = A.shape[0]
        rep = szemeredi_partition(A, 0.8, base=16.0)
        det = rep.details
        assert det["level_index"] < math.ceil(0.8 ** -2)
        assert rep.all_pass, f"instance {idx}: {rep.certificates}"
        refined = best_truncation(rep.pvd, det["f_q"])[0]
        fq = det["f_q"]
        padded = np.zeros(fq + 1)
        head = min(rep.pvd.num_terms, fq + 1)
        padded[:head] = rep.pvd.sigmas[:head]
        tail = la.norm(padded) / math.sqrt(fq + 1)
        # first term: cut norm of the unrefined part, recomputed from scratch
        assert oracles.plain_cutnorm_fast(A - refined) <= n * tail + 1e-6
        # second term: blockwise gap sums, recomputed per block
        gap = refined - rep.approx_matrix
        total = 0.0
        for P in rep.partition:
            for Q in rep.partition:
                total += oracles.plain_cutnorm_fast(gap[np.ix_(P, Q)])
        assert total <= n * la.norm(gap) + 1e-6, f"instance {idx}"


def test_criterion_09_spectral_majorization(symmetric_corpus):
    for idx, A in enumerate(symmetric_corpus):
        d = degree_weights(A)
        result = compute_pvd(A, CutDomain(d), max_terms=5)
        spec = spectral_projection_values(A, weights=d)
        for r in range(1, 6):
            lhs = la.norm(result.sigmas[:r])
            rhs = la.norm(spec[:r])
            assert lhs <= rhs + 1e-8, f"matrix {idx} r={r}"
        prof = cut_pseudorandomness_profile(A, weights=d, r=1)
        assert prof.cut_mass_ratio == 1.0, f"matrix {idx}"  # exact, not approximate


def test_criterion_10_core_density_identity(symmetric_corpus):
    for idx, A in enumerate(symmetric_corpus):
        deg = A @ np.ones(8)
        dd = deg + deg.mean()
        want = frob_norm(A, dd, dd) ** 2
        got = core_density(A)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), f"matrix {idx}"
    edge = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert core_density(edge) == pytest.approx(0.5, abs=1e-15)


def test_criterion_11_tensor_chain():
    started = time.monotonic()
    rng = np.random.default_rng(1011)
    shapes = [(2, 2, 2)] * 10 + [(3, 3, 2)] * 10
    for idx, shape in enumerate(shapes):
        T = rng.uniform(-1.0, 1.0, size=shape)
        dom = CutTuples([np.ones(k) for k in shape])
        result = compute_pvd(T, dom)
        # identity at the matrix-criterion tolerance
        G = np.stack([atom.ravel() for _, atom in dom.atoms()])
        coef, *_ = la.lstsq(G.T, T.ravel(), rcond=None)
        want = la.norm(G.T @ coef)
        src = la.norm(T.ravel())
        assert abs(la.norm(result.sigmas) - want) <= 1e-8 * src, f"tensor {idx}"
        # step dominance
        R = T.copy()
        for j in range(result.num_terms):
            assert oracles.tensor_pnorm_max(R) <= result.sigmas[j] + 1e-9
            R = R - result.increments[j]
        # truncation chain
        for r in range(0, 5):
            approx, _ = best_truncation(result, r)
            padded = np.zeros(r + 1)
            head = min(result.num_terms, r + 1)
            padded[:head] = result.sigmas[:head]
            tail = la.norm(padded) / math.sqrt(r + 1)
            assert oracles.tensor_pnorm_max(T - approx) <= tail + 1e-9
            assert tail <= src / math.sqrt(r + 1) + 1e-9
    assert time.monotonic() - started < 120.0


def test_criterion_12_skeleton_bound_all_pairs():
    rng = np.random.default_rng(1012)
    for trial in range(20):
        A = (rng.normal(size=(6, 2)) @ rng.normal(size=(2, 6))
             + 0.1 * rng.normal(size=(6, 6)))
        approx, result, _ = cur_pvd(A, 0.4)
        R = A - approx
        bound = 0.4 * la.norm(A) + 1e-9
        # every normalized column x row product, built directly from A
        for j in range(6):
            for i in range(6):
                G = np.outer(A[:, j], A[i, :])
                nrm = la.norm(G)
                assert nrm > 0
                assert abs(np.sum(R * G) / nrm) <= bound, f"trial {trial} pair ({j},{i})"


def test_criterion_13_max_cut_estimates():
    for n in (2, 4, 6, 8, 10):
        J = np.ones((n, n))
        info = max_cut_details(J, 0.5)
        assert info["estimate"] == n * n / 4.0, f"J_{n}"  # exact equality
    rng = np.random.default_rng(1013)
    for trial in range(10):
        A = oracles.gnp_adjacency(rng, 8, 0.5)
        info = max_cut_details(A, 0.5)
        true = oracles.maxcut_value_fast(A)
        slack = info["weak_irregularity_ub"] + info["grid_term"]
        assert abs(info["estimate"] - true) <= slack + 1e-6, f"trial {trial}"


def test_criterion_14_reports_are_reproducible(tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text("a b\nb c\nc a\nc d 2.0\nd a 0.5\n")
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps([[2.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                               [1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]))
    ten = tmp_path / "t.json"
    ten.write_text(json.dumps({"dims": [2, 2, 2],
                               "entries": [1, 0, 0, 1, 0, 1, 1, 0]}))
    invocations = [
        ["pvd", "--input", str(graph), "--r", "3"],
        ["cutnorm", "--input", str(graph)],
        ["weakreg", "--input", str(graph), "--eps", "0.6"],
        ["szemreg", "--input", str(graph), "--eps", "0.8"],
        ["classes", "--input", str(graph), "--ip", "degree", "--r", "2"],
        ["cur", "--input", str(mat), "--eps", "0.5"],
        ["tensor", "--input", str(ten), "--r", "2"],
        ["maxcut", "--input", str(graph), "--eps", "0.5"],
    ]
    for argv in invocations:
        blobs = []
        for run in (1, 2):
            out = tmp_path / f"{argv[0]}-{run}.json"
            code = cli.main(argv + ["--output", str(out)])
            assert code == 0, f"{argv[0]} exited {code}"
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{argv[0]} not reproducible"
