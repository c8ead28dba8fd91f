import numpy as np
import numpy.linalg as la
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvdkit.domains import (ColumnRowDomain, CutDomain, ExplicitDomain,
                            FullSphereDomain, UnsupportedDomain)
from pvdkit.cutnorm import COMPLETION_CAP
from pvdkit.linalg import ATOL
from pvdkit.pvd import compute_pvd

import oracles


def test_cut_domain_atoms_are_unit_and_complete():
    rng = np.random.default_rng(60)
    d = rng.uniform(0.5, 2.0, size=3)
    e = rng.uniform(0.5, 2.0, size=2)
    dom = CutDomain(d, e)
    atoms = list(dom.atoms())
    assert len(atoms) == dom.size() == 7 * 3
    for key, atom in atoms:
        assert la.norm(atom) == pytest.approx(1.0, abs=1e-12)
        desc = dom.describe(key)
        assert desc["kind"] == "cut"
        assert set(desc) >= {"S", "T"}


def test_cut_domain_max_step_matches_oracle():
    rng = np.random.default_rng(61)
    for trial in range(8):
        m, n = rng.integers(2, 5, size=2)
        A = rng.normal(size=(m, n))
        d = rng.uniform(0.5, 2.0, size=m)
        e = rng.uniform(0.5, 2.0, size=n)
        dom = CutDomain(d, e)
        key, value = dom.max_step(A / dom.whitener)
        assert abs(value) == pytest.approx(oracles.cut_pnorm_max(A, d, e), abs=1e-12)
        # the reported key really attains the value
        S, T = dom.describe(key)["S"], dom.describe(key)["T"]
        assert oracles.weighted_rect_value(A, d, e, S, T) == pytest.approx(value)


@st.composite
def _residuals(draw):
    """Mixed-sign residuals with sides 2-8 (rectangular ones included),
    integer or dyadic entries, and integer or non-integer weights."""
    m, n = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    entries = st.integers(-3, 3) if draw(st.booleans()) else st.integers(-64, 64).map(
        lambda k: k / 16.0)
    A = np.array(draw(st.lists(entries, min_size=m * n, max_size=m * n)), dtype=float)
    scale = 1.0 if draw(st.booleans()) else 8.0
    d, e = (np.array(draw(st.lists(st.integers(1, 24), min_size=k, max_size=k))) / scale
            for k in (m, n))
    return A.reshape(m, n), d, e


@settings(max_examples=150, deadline=None)
@given(inputs=_residuals())
# non-integer weights, which the LP ratio enumeration refused past ``bf_cap``
@example(inputs=(np.array([[1.0, -2.0], [0.5, 3.0]]), np.array([1.5, 1.0]), np.array([1.5, 1.0])))
def test_cut_domain_completion_route_agrees_with_enumeration(inputs):
    """Past ``bf_cap`` the step is the completion sweep over the smaller side:
    the same key as the enumeration within the cap, the same value up to the
    order of summation, for any positive weights."""
    A, d, e = inputs
    enum_dom = CutDomain(d, e)
    swept_dom = CutDomain(d, e, bf_cap=1)
    key, value = enum_dom.max_step(A / enum_dom.whitener)
    got_key, got_value = swept_dom.max_step(A / swept_dom.whitener)
    assert got_key == key
    assert got_value == pytest.approx(value, rel=1e-12, abs=1e-300)


def test_routes_agree_on_exhaustion_inside_the_tie_band():
    """Every rectangle of this residual is within ``ATOL`` of the maximum.
    ({0}, {0}) of value 0 has the smallest masks but is no prefix or suffix
    of its sorted row, so it is no candidate: within ``bf_cap`` and past it
    the step picks ({0}, {1}), and both runs stop at once with the residual
    exhausted."""
    R = 1e-17 * np.array([[0.0, -1.0, 0.0], [-1.0, -1.0, -1.0], [-1.0, -1.0, -1.0]])
    for dom in (CutDomain(np.ones(3)), CutDomain(np.ones(3), bf_cap=1)):
        assert dom.max_step(R) == ((1, 2), -1e-17)
        res = compute_pvd(R, dom)
        assert res.num_terms == 0 and res.exhausted
        assert res.residual_pnorm <= ATOL


def test_cut_domain_enumeration_cap():
    side = COMPLETION_CAP + 1
    dom = CutDomain(np.ones(side), bf_cap=12)
    with pytest.raises(UnsupportedDomain):
        list(dom.atoms())
    # past the cap and the completion, only a one-signed residual has a route
    mixed = np.random.default_rng(63).integers(-3, 4, size=(side, side)).astype(float)
    with pytest.raises(UnsupportedDomain, match="mixed-sign"):
        dom.max_step(mixed)


def test_column_row_domain_atoms():
    A = np.array([[1.0, 0.0, 2.0],
                  [0.0, 0.0, -1.0]])
    dom = ColumnRowDomain(A)
    keys = [k for k, _ in dom.atoms()]
    # column 1 is zero, so no key uses it
    assert all(j != 1 for j, _ in keys)
    for key, atom in dom.atoms():
        assert la.norm(atom) == pytest.approx(1.0, abs=1e-12)
        j, i = key
        outer = np.outer(A[:, j], A[i, :])
        outer = outer / la.norm(outer)
        assert (np.allclose(atom, outer, atol=1e-12)
                or np.allclose(atom, -outer, atol=1e-12))


def test_column_row_domain_dedup_and_orientation():
    # two proportional columns collapse to one atom per row pairing
    A = np.array([[1.0, -2.0],
                  [1.0, -2.0]])
    dom = ColumnRowDomain(A)
    assert dom.size() == 1


def test_column_row_max_step_is_best_inner_product():
    rng = np.random.default_rng(63)
    A = rng.normal(size=(4, 3))
    dom = ColumnRowDomain(A)
    key, value = dom.max_step(A.copy())
    best = max(abs(float(np.sum(atom * A))) for _, atom in dom.atoms())
    assert abs(value) == pytest.approx(best, abs=1e-12)


def test_column_row_rejects_zero_matrix():
    with pytest.raises(ValueError):
        ColumnRowDomain(np.zeros((2, 2)))


@st.composite
def _column_row_sources(draw):
    """Grid matrices with zero, duplicated, negated-proportional and
    near-duplicate columns and rows; near duplicates differ from their
    source by a multiple of its norm on either side of 1e-12, alone or in
    chains where only neighbouring links are within 1e-12."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    grid = st.integers(-8, 8).map(lambda k: k / 4.0)
    A = np.array(draw(st.lists(grid, min_size=m * n, max_size=m * n))).reshape(m, n)
    for _ in range(draw(st.integers(0, 5))):
        B = A if draw(st.booleans()) else A.T       # edit rows or columns in place
        k = B.shape[0]
        dst, src = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        edit = draw(st.sampled_from(["zero", "duplicate", "proportional", "near", "chain"]))
        if edit == "zero":
            B[dst] = 0.0
        elif edit == "duplicate":
            B[dst] = B[src]
        elif edit == "proportional":
            B[dst] = draw(st.sampled_from([-3.0, -1.0, -0.5, 0.25, 2.0])) * B[src]
        else:
            # "chain": two steps of delta, each within 1e-12 of the last, the
            # second (often) beyond 1e-12 of the source
            delta = draw(st.sampled_from([0.3e-12, 0.6e-12, 0.9e-12, 1.2e-12, 2e-12, 5e-12]))
            step = np.zeros(B.shape[1])
            step[draw(st.integers(0, B.shape[1] - 1))] = delta * la.norm(B[src])
            base = B[src].copy()
            B[dst] = base + step
            if edit == "chain":
                B[draw(st.integers(0, k - 1))] = base + 2 * step
    return A


@settings(max_examples=200, deadline=None)
@given(A=_column_row_sources(), data=st.data())
def test_column_row_domain_matches_pairwise_reference(A, data):
    """Keys, atoms and greedy step against the pairwise dedupe and the
    flattened Gram matrix of every kept pair."""
    keys, gram = oracles.column_row_pairs(A)
    if not keys:
        with pytest.raises(ValueError):
            ColumnRowDomain(A)
        return
    dom = ColumnRowDomain(A)
    atoms = list(dom.atoms())
    assert [k for k, _ in atoms] == keys
    assert dom.size() == len(keys)
    assert np.array_equal(np.stack([a.ravel() for _, a in atoms]), gram)
    grid = st.integers(-8, 8).map(lambda k: k / 4.0)
    R = np.array(data.draw(st.lists(grid, min_size=A.size, max_size=A.size))).reshape(A.shape)
    for resid in (R, A):
        key, value = dom.max_step(resid)
        want_key, want = oracles.gram_max_step(keys, gram, resid)
        assert key == want_key
        assert value == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_column_row_dedupe_compares_with_kept_vectors_only():
    # column 1 is within 1e-12 of column 0 and dropped; column 2 is within
    # 1e-12 of column 1 only, so it is kept
    A = np.array([[1.0, 1.0, 1.0],
                  [0.0, 0.7e-12, 1.4e-12],
                  [0.0, 0.0, 0.0]])
    keys, _ = oracles.column_row_pairs(A)
    assert {j for j, _ in keys} == {0, 2}
    assert [k for k, _ in ColumnRowDomain(A).atoms()] == keys


def test_explicit_domain_normalizes_and_indexes():
    rng = np.random.default_rng(64)
    d = rng.uniform(0.5, 2.0, size=3)
    e = rng.uniform(0.5, 2.0, size=3)
    pairs = [(rng.normal(size=3), rng.normal(size=3)) for _ in range(4)]
    dom = ExplicitDomain(pairs, d, e)
    assert dom.size() == 4
    for key, atom in dom.atoms():
        assert la.norm(atom) == pytest.approx(1.0, abs=1e-12)
        assert isinstance(key, int)


def test_explicit_domain_max_step_and_describe():
    rng = np.random.default_rng(66)
    d = rng.uniform(0.5, 2.0, size=3)
    e = rng.uniform(0.5, 2.0, size=4)
    pairs = [(rng.normal(size=3), rng.normal(size=4)) for _ in range(5)]
    pairs.append(pairs[2])                     # duplicates are kept
    dom = ExplicitDomain(pairs, d, e)
    assert dom.describe(0)["kind"] == "explicit" and dom.size() == 6
    keys = [k for k, _ in dom.atoms()]
    gram = np.stack([atom.ravel() for _, atom in dom.atoms()])
    for _ in range(5):
        resid = rng.normal(size=(3, 4))
        key, value = dom.max_step(resid)
        want_key, want = oracles.gram_max_step(keys, gram, resid)
        assert key == want_key
        assert value == pytest.approx(want, rel=1e-12, abs=1e-12)
    desc = dom.describe(1)
    assert set(desc) == {"kind", "index", "v", "w"} and desc["kind"] == "explicit"
    v, w = np.array(desc["v"]), np.array(desc["w"])
    assert np.sqrt(np.sum(d * v * v)) == pytest.approx(1.0, abs=1e-12)
    assert np.sqrt(np.sum(e * w * w)) == pytest.approx(1.0, abs=1e-12)


def test_explicit_domain_rejects_zero_vector():
    with pytest.raises(ValueError):
        ExplicitDomain([(np.zeros(2), np.ones(2))], np.ones(2), np.ones(2))


def test_full_sphere_max_step_orientation_is_stable():
    rng = np.random.default_rng(65)
    A = rng.normal(size=(4, 4))
    dom = FullSphereDomain(np.ones(4))
    key1, v1 = dom.max_step(A)
    key2, v2 = dom.max_step(A.copy())
    assert key1 == key2 and v1 == v2
    u = np.array(key1[0])
    assert u[int(np.argmax(np.abs(u)))] > 0
    assert v1 == pytest.approx(la.svd(A, compute_uv=False)[0])


def test_tie_break_prefers_smallest_masks():
    # symmetric two-cell matrix: (S={0},T={1}) and (S={1},T={0}) tie
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    dom = CutDomain(np.ones(2))
    key, value = dom.max_step(A)
    desc = dom.describe(key)
    assert value == pytest.approx(2.0 / 2.0) or value == pytest.approx(1.0)
    assert (desc["S"], desc["T"]) == ([0], [1])
