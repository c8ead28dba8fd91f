import math
import tracemalloc

import numpy as np
import numpy.linalg as la
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdkit import graphs
from pvdkit.domains import CutDomain
from pvdkit.graphs import (core_density, cut_pseudorandomness_profile, degree_weights,
                           lp_upper_regularity_check, row_sums,
                           spectral_projection_values, threshold_rank)
from pvdkit.linalg import frob_norm
from pvdkit.pvd import compute_pvd

import oracles


def _complete_graph(n):
    return np.ones((n, n)) - np.eye(n)


def test_row_sums_and_degree_weights():
    A = np.array([[0.0, 2.0], [2.0, 1.0]])
    assert np.allclose(row_sums(A), [2.0, 3.0])
    assert np.allclose(degree_weights(A), [2.0, 3.0])
    with pytest.raises(ValueError):
        degree_weights(np.zeros((2, 2)))  # an isolated vertex has no weight


def test_threshold_rank_complete_graph():
    # K_n with degree weights: one eigenvalue 1, the rest -1/(n-1); only
    # eigenvalues above the threshold count, so the negative ones never enter
    for n in (4, 6):
        A = _complete_graph(n)
        assert threshold_rank(A, 0.5) == pytest.approx(1.0)
        assert threshold_rank(A, 1e-6) == pytest.approx(1.0)


def test_threshold_rank_disconnected_components():
    # two disjoint edges: normalized eigenvalues are +1, +1, -1, -1
    A = np.zeros((4, 4))
    A[0, 1] = A[1, 0] = 1.0
    A[2, 3] = A[3, 2] = 1.0
    assert threshold_rank(A, 0.5) == pytest.approx(2.0)


def test_threshold_rank_needs_a_positive_eps():
    """At eps <= 0 the negative eigenvalues would count; every eps reader
    refuses them."""
    for eps in (0.0, -1.0):
        with pytest.raises(ValueError, match="eps must be positive"):
            threshold_rank(_complete_graph(4), eps)


def test_core_density_single_edge():
    # one edge: degrees (1,1), average 1, so each endpoint weight is 2
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert core_density(A) == pytest.approx(0.5)


def test_core_density_equals_weighted_frobenius_square():
    rng = np.random.default_rng(100)
    for trial in range(8):
        A = oracles.gnp_adjacency(rng, 6, 0.5)
        if A.sum() == 0:
            continue
        deg = row_sums(A)
        dd = deg + deg.mean()
        # [DERIVED] independent weighted Frobenius computation
        want = oracles.weighted_frob(A, dd, dd) ** 2
        assert core_density(A) == pytest.approx(want, rel=1e-10)
        assert core_density(A) == pytest.approx(frob_norm(A, dd, dd) ** 2, rel=1e-12)


def test_spectral_values_unit_weights_are_singular_values():
    rng = np.random.default_rng(101)
    A = oracles.gnp_adjacency(rng, 6, 0.5)
    vals = spectral_projection_values(A)
    assert np.allclose(vals, np.sort(la.svd(A, compute_uv=False))[::-1], atol=1e-10)


def test_projection_values_majorized_by_spectral():
    rng = np.random.default_rng(102)
    for trial in range(8):
        A = oracles.gnp_adjacency(rng, 7, 0.5)
        if A.sum() == 0:
            continue
        d = degree_weights(A)
        res = compute_pvd(A, CutDomain(d), max_terms=5)
        spec = spectral_projection_values(A, weights=d)
        for r in range(1, min(5, res.num_terms) + 1):
            lhs = la.norm(res.sigmas[:r])
            rhs = la.norm(spec[:r])
            assert lhs <= rhs + 1e-8, f"trial {trial} r={r}"


def test_profile_degree_weights_mass_ratio_is_exactly_one():
    rng = np.random.default_rng(103)
    for trial in range(6):
        A = oracles.gnp_adjacency(rng, 7, 0.6)
        if A.sum() == 0:
            continue
        prof = cut_pseudorandomness_profile(A, weights=degree_weights(A), r=2)
        assert prof.cut_mass_ratio == 1.0  # bitwise, not approximately
        assert prof.certificate_ratio == pytest.approx(prof.sigma_prefix_norm)


def test_profile_first_value_is_mean_density_scale():
    # complete bipartite K_{2,2} with unit weights: best single cut is the
    # full positive block
    A = np.zeros((4, 4))
    A[:2, 2:] = 1.0
    A[2:, :2] = 1.0
    prof = cut_pseudorandomness_profile(A, r=1)
    assert prof.sigmas[0] == pytest.approx(oracles.cut_pnorm_max(A), abs=1e-9)


def test_lp_regularity_complete_bipartite_sqrt_two():
    A = np.zeros((4, 4))
    A[:2, 2:] = 1.0
    A[2:, :2] = 1.0
    ratio, part = lp_upper_regularity_check(A, p=2.0, eta=0.5)
    assert ratio == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert len(part) == 2


def test_lp_regularity_all_ones_is_flat():
    A = np.ones((5, 5))
    ratio, _ = lp_upper_regularity_check(A, p=2.0, eta=0.5)
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_lp_regularity_exhaustive_matches_partition_oracle():
    rng = np.random.default_rng(104)
    A = oracles.gnp_adjacency(rng, 5, 0.6) + np.eye(5)
    p, eta = 2.0, 0.34  # at most 2 parts
    total = A.sum()
    best = 0.0
    for parts in oracles.set_partitions(range(5)):
        if len(parts) > 2:
            continue
        acc = 0.0
        for P in parts:
            for Q in parts:
                mass = oracles.rect_sum(A, P, Q)
                size = len(P) * len(Q)
                acc += (size / 25.0) * (mass / size) ** p
        best = max(best, acc ** (1 / p) / (total / 25.0))
    ratio, _ = lp_upper_regularity_check(A, p=p, eta=eta)
    assert ratio == pytest.approx(best, abs=1e-9)


def test_lp_regularity_sampled_is_deterministic():
    rng = np.random.default_rng(105)
    A = oracles.gnp_adjacency(rng, 14, 0.5)
    r1, _ = lp_upper_regularity_check(A, 2.0, 0.5, mode="sampled", samples=200, seed=7)
    r2, _ = lp_upper_regularity_check(A, 2.0, 0.5, mode="sampled", samples=200, seed=7)
    assert r1 == r2


def test_lp_regularity_validation():
    A = _complete_graph(4)
    with pytest.raises(ValueError):
        lp_upper_regularity_check(A, p=1.0, eta=0.5)
    with pytest.raises(ValueError):
        lp_upper_regularity_check(A, p=2.0, eta=0.1)  # 10 parts > 4 vertices
    with pytest.raises(ValueError):
        lp_upper_regularity_check(np.zeros((3, 3)), p=2.0, eta=0.5)


@st.composite
def _block_density_inputs(draw):
    """A symmetric nonnegative matrix with 0/1, small-integer or real
    entries, n <= 9, and a part budget q <= 4.  A circulant matrix of real
    weights ties rotated partitions exactly, and the two summation orders
    break those ties differently."""
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["binary", "int", "real", "uniform", "circulant"]))
    size = n * (n + 1) // 2
    if kind == "circulant":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        w = rng.random(n // 2 + 1) * draw(st.sampled_from([0.1, 1.0, 3.7]))
        i = np.arange(n)
        gap = np.abs(i[:, None] - i[None, :])
        return w[np.minimum(gap, n - gap)], draw(st.integers(1, min(4, n)))
    if kind == "binary":
        vals = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=size, max_size=size))
    elif kind == "int":
        vals = draw(st.lists(st.integers(0, 5).map(float), min_size=size, max_size=size))
    elif kind == "real":
        reals = st.floats(0.0, 8.0, allow_subnormal=False)
        vals = draw(st.lists(reals, min_size=size, max_size=size))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        vals = rng.random(size) * draw(st.sampled_from([1e-3, 1.0, 7.3]))
    A = np.zeros((n, n))
    A[np.triu_indices(n)] = vals
    A = np.triu(A) + np.triu(A, 1).T
    q = draw(st.integers(1, min(4, n)))
    return A, q


@settings(max_examples=120, deadline=None)
@given(case=_block_density_inputs(), p=st.sampled_from([1.5, 2.0, 3.0]),
       mode=st.sampled_from(["exhaustive", "sampled"]), samples=st.integers(1, 400),
       seed=st.integers(0, 1000))
def test_lp_regularity_is_bitwise_the_partition_scan(case, p, mode, samples, seed):
    """The block scoring with its rescoring step returns the ratio and the
    witness of the per-partition scan, bit for bit."""
    A, q = case
    if A.sum() <= 0:
        return
    eta = 1.0 / (q + 0.5)
    ratio, part = lp_upper_regularity_check(A, p, eta, mode=mode, samples=samples, seed=seed)
    ref_ratio, ref_parts = oracles.lp_regularity_scan(A, p, eta, mode, samples, seed)
    assert ratio == ref_ratio
    assert tuple(part.parts) == ref_parts


@pytest.mark.parametrize("block", [graphs.PARTITION_BLOCK, 5])
def test_growth_string_blocks_stream_the_recursive_order(monkeypatch, block):
    monkeypatch.setattr(graphs, "PARTITION_BLOCK", block)
    for n in range(1, 10):
        for q in range(1, min(n, 4) + 1):
            blocks = list(graphs._growth_string_blocks(n, q))
            assert all(1 <= len(b) <= block for b in blocks)
            streamed = [tuple(row) for b in blocks for row in b.tolist()]
            assert streamed == list(oracles.restricted_growth_strings(n, q))


@pytest.mark.parametrize("block", [graphs.PARTITION_BLOCK, 7])
def test_sampled_blocks_are_the_per_sample_draws(monkeypatch, block):
    monkeypatch.setattr(graphs, "PARTITION_BLOCK", block)
    for seed, n, q, samples in [(0, 5, 2, 30), (7, 6, 3, 2100), (11, 9, 4, 15)]:
        blocks = list(graphs._sampled_blocks(np.random.default_rng(seed), n, q, samples))
        assert all(1 <= len(b) <= block for b in blocks)
        rng = np.random.default_rng(seed)
        draws = [rng.integers(0, q, size=n) for _ in range(samples)]
        assert np.array_equal(np.concatenate(blocks), np.stack(draws))


def test_exhaustive_scan_memory_does_not_grow_with_partitions():
    """700,075 partitions of 12 vertices into at most 4 parts are scanned in
    bounded blocks; materializing their labels alone would take 8.4 MB."""
    rng = np.random.default_rng(106)
    A = oracles.gnp_adjacency(rng, 12, 0.5)
    assert sum(len(b) for b in graphs._growth_string_blocks(12, 4)) == 700_075
    tracemalloc.start()
    try:
        ratio, part = lp_upper_regularity_check(A, 2.0, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert ratio >= lp_upper_regularity_check(A, 2.0, 0.5)[0]
    assert 1 <= len(part) <= 4
    small = A[:8, :8]
    ref_ratio, ref_parts = oracles.lp_regularity_scan(small, 2.0, 0.25)
    ratio, part = lp_upper_regularity_check(small, 2.0, 0.25)
    assert ratio == ref_ratio and tuple(part.parts) == ref_parts
