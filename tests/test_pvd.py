import math

import numpy as np
import numpy.linalg as la
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdkit.domains import CutDomain, FullSphereDomain, UnsupportedDomain
from pvdkit.pvd import (best_truncation, combination_coefficients, compute_pvd,
                        orthogonal_increment, p_norm, truncate, verify_pvd)

import oracles


def _random_instance(rng, weighted: bool):
    m, n = rng.integers(2, 5, size=2)
    A = rng.normal(size=(m, n))
    if weighted:
        d = rng.uniform(0.5, 2.0, size=m)
        e = rng.uniform(0.5, 2.0, size=n)
    else:
        d = np.ones(m)
        e = np.ones(n)
    return A, d, e


def test_identity_matrix_projection_values():
    # [TRIVIAL] the four diagonal cells come out one by one
    res = compute_pvd(np.eye(4), CutDomain(np.ones(4)))
    assert np.allclose(res.sigmas, np.ones(4))
    assert res.exhausted
    assert res.residual_pnorm == pytest.approx(0.0, abs=1e-12)


def test_euclidean_norm_of_values_is_projection_norm():
    rng = np.random.default_rng(42)
    for weighted in (False, True):
        for trial in range(8):
            A, d, e = _random_instance(rng, weighted)
            res = compute_pvd(A, CutDomain(d, e))
            # [DERIVED] dense least-squares projection onto every atom
            want = oracles.dense_projection_norm(A, d, e)
            assert la.norm(res.sigmas) == pytest.approx(want, abs=1e-8), (
                f"weighted={weighted} trial={trial}")


def test_each_value_dominates_previous_residual_norm():
    rng = np.random.default_rng(43)
    for trial in range(6):
        A, d, e = _random_instance(rng, trial % 2 == 0)
        res = compute_pvd(A, CutDomain(d, e))
        R = A.copy()
        for j in range(res.num_terms):
            # [DERIVED] restricted norm of the residual the step saw
            assert oracles.cut_pnorm_max(R, d, e) <= res.sigmas[j] + 1e-9
            R = R - res.increments[j]


def test_exhausted_run_reconstructs_source():
    rng = np.random.default_rng(44)
    A, d, e = _random_instance(rng, True)
    res = compute_pvd(A, CutDomain(d, e))
    assert res.exhausted
    assert np.allclose(sum(res.increments), A, atol=1e-8)


def test_residual_pnorm_reported():
    rng = np.random.default_rng(45)
    A = rng.normal(size=(4, 4))
    dom = CutDomain(np.ones(4))
    res = compute_pvd(A, dom, max_terms=2)
    R = A - sum(res.increments)
    assert res.residual_pnorm == pytest.approx(oracles.cut_pnorm_max(R), abs=1e-9)
    assert p_norm(R, dom) == pytest.approx(res.residual_pnorm, abs=1e-12)


def test_max_terms_caps_run():
    res = compute_pvd(np.eye(4), CutDomain(np.ones(4)), max_terms=2)
    assert res.num_terms == 2
    assert not res.exhausted


def test_truncate_partial_sums():
    rng = np.random.default_rng(46)
    A = rng.normal(size=(3, 4))
    res = compute_pvd(A, CutDomain(np.ones(3), np.ones(4)))
    assert np.allclose(truncate(res, 0), np.zeros_like(A))
    for k in range(1, res.num_terms + 1):
        assert np.allclose(truncate(res, k), sum(res.increments[:k]))
    with pytest.raises(ValueError):
        truncate(res, res.num_terms + 1)


def test_best_truncation_all_equal_values():
    # four equal values: the threshold test holds already at the first index
    res = compute_pvd(np.eye(4), CutDomain(np.ones(4)))
    approx, index = best_truncation(res, 3)
    assert index == 1
    assert np.allclose(approx, np.zeros((4, 4)))


def test_best_truncation_decaying_values():
    rng = np.random.default_rng(47)
    A = rng.normal(size=(4, 4)) + 4.0 * np.outer(np.ones(4), np.ones(4))
    res = compute_pvd(A, CutDomain(np.ones(4)))
    r = 3
    approx, index = best_truncation(res, r)
    padded = np.zeros(r + 1)
    padded[:min(res.num_terms, r + 1)] = res.sigmas[:r + 1]
    thresh = la.norm(padded) / math.sqrt(r + 1)
    # [DERIVED] the chosen index is the first at or below the RMS threshold
    assert padded[index - 1] <= thresh * (1 + 1e-12)
    for i in range(1, index):
        assert padded[i - 1] > thresh
    assert np.allclose(approx, truncate(res, min(index - 1, res.num_terms)))


def test_best_truncation_needs_enough_terms():
    res = compute_pvd(np.eye(4), CutDomain(np.ones(4)), max_terms=2)
    with pytest.raises(ValueError):
        best_truncation(res, 4)


def test_combination_coefficients_reproduce_truncation():
    rng = np.random.default_rng(48)
    A = rng.normal(size=(4, 3))
    d = rng.uniform(0.5, 2.0, size=4)
    e = rng.uniform(0.5, 2.0, size=3)
    dom = CutDomain(d, e)
    res = compute_pvd(A, dom, max_terms=3)
    alpha = combination_coefficients(res, 3)
    rebuilt = sum(a * dom.atom(k) * dom.whitener
                  for a, k in zip(alpha, res.keys[:3]))
    assert np.allclose(rebuilt, truncate(res, 3), atol=1e-8)


def test_verify_pvd_passes_on_random_runs():
    rng = np.random.default_rng(49)
    for trial in range(4):
        A, d, e = _random_instance(rng, trial % 2 == 1)
        res = compute_pvd(A, CutDomain(d, e))
        verdict = verify_pvd(res)
        assert verdict["pass"], f"trial {trial}: {verdict['certificates']}"
        names = [c["name"] for c in verdict["certificates"]]
        assert "projection-identity" in names and "step-dominance" in names


def test_verify_pvd_catches_tampering():
    res = compute_pvd(np.eye(3), CutDomain(np.ones(3)))
    res.sigmas = res.sigmas * 0.5  # corrupt the recorded values
    verdict = verify_pvd(res)
    assert not verdict["pass"]


def test_verify_pvd_rejects_unsupported_domain():
    A = np.random.default_rng(50).normal(size=(3, 3))
    res = compute_pvd(A, FullSphereDomain(np.ones(3)), max_terms=2)
    with pytest.raises(UnsupportedDomain):
        verify_pvd(res)


def test_full_sphere_domain_tracks_svd():
    rng = np.random.default_rng(51)
    A = rng.normal(size=(5, 4))
    res = compute_pvd(A, FullSphereDomain(np.ones(5), np.ones(4)), max_terms=4)
    svals = la.svd(A, compute_uv=False)
    assert np.allclose(res.sigmas, svals, atol=1e-8)
    assert np.allclose(sum(res.increments), A, atol=1e-8)


def test_orthogonal_increment_basics():
    b1 = np.outer([1.0, 0.0], [1.0, 0.0])
    out = orthogonal_increment(np.outer([1.0, 1.0], [1.0, 0.0]), [b1])
    assert out is not None
    assert abs(np.sum(out * b1)) < 1e-10
    assert la.norm(out) == pytest.approx(1.0)
    assert orthogonal_increment(2.0 * b1, [b1]) is None


def test_engine_rejects_bad_input():
    with pytest.raises(ValueError):
        compute_pvd(np.array([[np.inf, 0.0], [0.0, 1.0]]), CutDomain(np.ones(2)))
    with pytest.raises(ValueError):
        compute_pvd(np.ones((2, 3)), CutDomain(np.ones(2), np.ones(2)))


def test_tolerance_stops_early():
    A = np.eye(3) + 1e-13 * np.ones((3, 3))
    res = compute_pvd(A, CutDomain(np.ones(3)), atol=1e-6)
    assert res.exhausted
    assert res.num_terms <= 4


@st.composite
def _engine_inputs(draw):
    """(A, d, e) at sides 1-7 with non-integer weights: zero, rank-one, tied
    (a signed permutation-like matrix whose cells all reach the same value)
    and duplicate-row matrices."""
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    wgrid = st.integers(3, 40).map(lambda k: k / 7.0)
    d = np.array(draw(st.lists(wgrid, min_size=m, max_size=m)))
    e = np.array(draw(st.lists(wgrid, min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["zero", "rank-one", "tied", "dup-row"]))
    vals = st.integers(-9, 9).map(lambda k: k / 3.0)
    if kind == "zero":
        A = np.zeros((m, n))
    elif kind == "rank-one":
        u = np.array(draw(st.lists(vals, min_size=m, max_size=m)))
        z = np.array(draw(st.lists(vals, min_size=n, max_size=n)))
        A = np.outer(u, z)
    elif kind == "tied":
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
        A = np.zeros((m, n))
        for i, sign in enumerate(signs):
            A[i, i % n] = sign * math.sqrt(d[i] * e[i % n])
    else:
        A = np.array(draw(st.lists(vals, min_size=m * n, max_size=m * n))).reshape(m, n)
        A[m // 2:] = A[0]
    return A, d, e


@settings(max_examples=100, deadline=None)
@given(inputs=_engine_inputs())
def test_engine_invariants_on_degenerate_inputs(inputs):
    """Every certificate passes, and ``exhausted`` is claimed only when the
    exact maximizer's last step found the residual's restricted norm within
    tolerance (checked against the dense table)."""
    A, d, e = inputs
    res = compute_pvd(A, CutDomain(d, e))
    verdict = verify_pvd(res)
    assert verdict["pass"] and verdict["certificates"], verdict["certificates"]
    residual = A - truncate(res, res.num_terms)
    # [DERIVED] restricted norm of the final residual by the dense table
    table_norm = oracles.cut_pnorm_max_fast(residual, d, e)
    assert res.residual_pnorm == pytest.approx(table_norm, abs=1e-9)
    if res.exhausted:
        assert table_norm <= res.atol + 1e-12


def test_verify_pvd_replays_each_truncation_once():
    """``verify_pvd`` maximizes once per step and once per distinct best
    truncation, however many ``r`` share it."""
    rng = np.random.default_rng(51)
    G = oracles.gnp_adjacency(rng, 8, 0.5)
    for d in (np.ones(8), np.maximum(G.sum(axis=1), 1.0)):
        dom = CutDomain(d)
        res = compute_pvd(G, dom)
        assert res.exhausted
        calls = []
        step = dom.max_step
        dom.max_step = lambda R, atol: calls.append(1) or step(R, atol)
        assert verify_pvd(res)["pass"]
        indices = {best_truncation(res, r)[1] for r in range(res.num_terms + 1)}
        assert len(indices) < res.num_terms + 1
        assert len(calls) == res.num_terms + len(indices)
