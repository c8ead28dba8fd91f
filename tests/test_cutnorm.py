import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvdkit import cli, cutnorm, domains, regularity, sweep
from pvdkit.cutnorm import (CutPair, build_cut_lp, cut_lp_approx, cut_lp_exact,
                            cut_norm_bruteforce, cut_norm_lp_upper, exact_completion,
                            lp_candidates, lp_round, normalized_cut_bruteforce,
                            ratio_candidates, rectangle_sum, rectangle_value, solve_cut_lp)
from pvdkit.domains import CutDomain, UnsupportedDomain
from pvdkit.linalg import ATOL
from pvdkit.pvd import compute_pvd
from pvdkit.regularity import weak_regularity_partition
from pvdkit.simplex import simplex_solve

import oracles


def test_rectangle_sums_match_loops():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 5))
    for S, T in [((0,), (1, 2)), ((1, 3), (0, 4)), ((0, 1, 2, 3), (2,))]:
        assert rectangle_sum(A, S, T) == pytest.approx(oracles.rect_sum(A, S, T))
        d = rng.uniform(0.5, 2.0, size=4)
        e = rng.uniform(0.5, 2.0, size=5)
        assert rectangle_value(A, d, e, S, T) == pytest.approx(
            oracles.weighted_rect_value(A, d, e, S, T))


def test_row_sums_cover_all_subsets(monkeypatch):
    """The chunks of ``_row_sums`` run over every nonempty row set once, in
    mask order, and both they and ``_subset_sums`` equal the product with
    the whole 0/1 indicator table bit for bit, in chunks of any size."""
    rng = np.random.default_rng(31)
    for chunk in (4, 8, sweep.SWEEP_CHUNK_ROWS):
        monkeypatch.setattr(sweep, "SWEEP_CHUNK_ROWS", chunk)
        for m, n in ((1, 1), (3, 5), (7, 4), (10, 3), (9, 1)):
            A = rng.normal(size=(m, n)) * 1e3 / 7.0
            w = rng.integers(3, 40, size=m) / 7.0
            U = oracles.subset_matrix(m)
            low = sweep._low_indicators(m)
            starts, sums = zip(*sweep._row_sums(A, low))
            assert starts[0] == 1 and all(len(R) <= chunk for R in sums)
            assert [lo + len(R) for lo, R in zip(starts, sums)] == [*starts[1:], 2**m]
            assert _bits(np.concatenate(sums)) == _bits(U @ A)
            assert _bits(sweep._subset_sums(w, low)) == _bits(U @ w)


def test_bruteforce_plain_cut_norm():
    rng = np.random.default_rng(21)
    for _ in range(15):
        m, n = rng.integers(2, 6, size=2)
        A = rng.normal(size=(m, n))
        pair = cut_norm_bruteforce(A)
        # [DERIVED] plain-loop maximum
        assert abs(pair.value) == pytest.approx(oracles.plain_cutnorm(A), abs=1e-12)
        assert rectangle_sum(A, pair.S, pair.T) == pytest.approx(pair.value)


def test_bruteforce_normalized_matches_oracle():
    rng = np.random.default_rng(22)
    for trial in range(15):
        m, n = rng.integers(2, 6, size=2)
        A = rng.normal(size=(m, n))
        d = rng.uniform(0.5, 2.0, size=m)
        e = rng.uniform(0.5, 2.0, size=n)
        pair = normalized_cut_bruteforce(A, d, e)
        assert abs(pair.value) == pytest.approx(
            oracles.cut_pnorm_max(A, d, e), abs=1e-12), f"trial {trial}"
        assert rectangle_value(A, d, e, pair.S, pair.T) == pytest.approx(pair.value)


def test_bruteforce_cap_is_the_exact_rule():
    """``normalized_cut_bruteforce`` takes every shape where
    ``_sweep_exact`` holds, a longer side past ``cap`` included, and refuses
    the others."""
    rng = np.random.default_rng(25)
    A = rng.normal(size=(3, 16))
    d, e = rng.uniform(0.5, 2.0, size=3), rng.uniform(0.5, 2.0, size=16)
    pair = normalized_cut_bruteforce(A, d, e)
    assert abs(pair.value) == pytest.approx(oracles.cut_pnorm_max_fast(A, d, e), rel=1e-12)
    side = cutnorm.COMPLETION_CAP + 1
    with pytest.raises(UnsupportedDomain, match=oracles.sweep_rule((side, side))):
        normalized_cut_bruteforce(np.ones((side, side)))


def test_bruteforce_tie_break_is_canonical():
    # identity: every diagonal singleton ties at value 1; smallest masks win
    pair = normalized_cut_bruteforce(np.eye(3))
    assert pair.S == (0,) and pair.T == (0,)
    # zero matrix: every rectangle ties at 0
    for A in (np.zeros((3, 4)), np.zeros((4, 2))):
        for pair in (normalized_cut_bruteforce(A), cut_norm_bruteforce(A)):
            assert (pair.S, pair.T, pair.value) == ((0,), (0,), 0.0)
    # a gain below the tolerance does not move the witness to a larger mask
    A = np.array([[1.0, 1e-12]])
    for pair in (normalized_cut_bruteforce(A, [1.0], [1.0, 1e-15]), cut_norm_bruteforce(A)):
        assert (pair.S, pair.T, pair.value) == ((0,), (0,), 1.0)
    # symmetric graph residual: (S, T) and (T, S) tie; the smaller S mask wins
    rng = np.random.default_rng(24)
    for _ in range(5):
        G = oracles.gnp_adjacency(rng, 7, 0.5)
        R = G - G.mean()
        deg = np.maximum(G.sum(axis=1), 1.0)
        cases = ((normalized_cut_bruteforce(R, deg, deg), oracles.table_witness(R, deg, deg)),
                 (cut_norm_bruteforce(R), oracles.table_witness(R)))
        for pair, want in cases:
            assert (pair.S, pair.T) == want[:2]
            # the transposed rectangle ties, so the winner has the smaller S mask
            assert pair.masks()[0] <= pair.masks()[1]


@st.composite
def _matrices(draw):
    """Shapes m<n, m>n and square; non-integer entries, or integer, zero,
    rank-one and duplicated-row matrices, which have exact ties.  Entries and
    weights lie on dyadic grids, so rectangle sums are exact and no
    comparison lands within rounding of the 1e-9 tie tolerance."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["fraction", "int", "zero", "rank-one", "dup-row"]))
    if kind == "fraction":
        vals = draw(st.lists(st.integers(-64, 64), min_size=m * n, max_size=m * n))
        return np.array(vals, dtype=float).reshape(m, n) / 16.0
    ints = st.integers(-3, 3)
    if kind == "zero":
        return np.zeros((m, n))
    if kind == "rank-one":
        u = draw(st.lists(ints, min_size=m, max_size=m))
        z = draw(st.lists(ints, min_size=n, max_size=n))
        return np.outer(u, z).astype(float)
    A = np.array(draw(st.lists(ints, min_size=m * n, max_size=m * n)), dtype=float)
    A = A.reshape(m, n)
    if kind == "dup-row" and m > 1:
        A[1] = A[0]
    return A


def _weights(size):
    """Unit, integer or non-integer positive weights."""
    unit = st.just([1.0] * size)
    integer = st.lists(st.integers(1, 4).map(float), min_size=size, max_size=size)
    real = st.lists(st.integers(2, 32).map(lambda k: k / 8.0), min_size=size, max_size=size)
    return st.one_of(unit, integer, real).map(np.array)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sweep_matches_dense_table(data):
    """Value and tie-broken witness of both forms against the dense table."""
    A = data.draw(_matrices())
    m, n = A.shape
    d = data.draw(_weights(m))
    e = data.draw(_weights(n))
    pair = normalized_cut_bruteforce(A, d, e)
    S, T, value = oracles.table_witness(A, d, e)
    assert (pair.S, pair.T) == (S, T)
    assert pair.value == pytest.approx(value, abs=1e-12)
    assert abs(pair.value) == pytest.approx(oracles.cut_pnorm_max_fast(A, d, e), abs=1e-12)
    best = max(oracles.best_signed_pair(A, d, e, sign)[2] for sign in (1, -1))
    assert abs(pair.value) == pytest.approx(best, abs=1e-12)

    plain = cut_norm_bruteforce(A)
    S, T, value = oracles.table_witness(A)
    assert (plain.S, plain.T) == (S, T)
    assert plain.value == pytest.approx(value, abs=1e-12)
    assert abs(plain.value) == pytest.approx(oracles.plain_cutnorm_fast(A), abs=1e-12)


@st.composite
def _sweep_inputs(draw, sides=None):
    """(A, d, e, atol) for the pruned sweep: zero matrices and zero rows,
    rank-one ``u e^T`` (Cauchy-Schwarz tight on all columns) and ``u z^T``
    with mixed-sign ``z`` (many row sets near the bound), duplicate and
    negated rows, all-negative matrices, and two single-cell rectangles a
    gap just inside or just outside ``atol`` apart.  Entries and weights are
    off the dyadic grid and may be scaled to 1e9, and ``atol`` may be 0, so
    that bound and sweep round differently near the pruning threshold.
    Sides run to 7, and to 10-12 so that the survivors fill several
    blocks, or both within ``sides``."""
    big = draw(st.booleans())
    if sides:
        m, n = draw(st.integers(*sides)), draw(st.integers(*sides))
    else:
        m, n = (draw(st.integers(10, 12)), draw(st.integers(1, 12))) if big else \
            (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    wgrid = st.integers(3, 40).map(lambda k: k / 7.0)
    weights = st.sampled_from(["unit", "integer", "real"])
    d, e = (np.array(draw(st.lists(wgrid if w == "real" else st.integers(1, 4).map(float),
                                   min_size=k, max_size=k))) if w != "unit" else np.ones(k)
            for w, k in ((draw(weights), m), (draw(weights), n)))
    atol = draw(st.sampled_from([ATOL, 0.0]))
    kind = draw(st.sampled_from(["zero", "zero-rows", "rank-one", "rank-one-mixed",
                                 "dup-neg", "negative", "near-tie"]))
    vals = st.integers(-30, 30).map(lambda k: k / 3.0)
    A = np.array(draw(st.lists(vals, min_size=m * n, max_size=m * n))).reshape(m, n)
    if kind == "zero":
        return np.zeros((m, n)), d, e, atol
    if kind == "near-tie":
        # two cells of value 1 and 1 + gap: within atol the earlier row set wins
        gap = draw(st.sampled_from([0.5, 0.999, 1.001, 2.0])) * ATOL
        A = np.zeros((m, n))
        A[0, 0] = math.sqrt(d[0] * e[0])
        A[m - 1, n - 1] = (1.0 + gap) * math.sqrt(d[m - 1] * e[n - 1])
        return A, d, e, ATOL
    if kind == "zero-rows":
        A[draw(st.lists(st.integers(0, m - 1), max_size=m))] = 0.0
    elif kind == "rank-one":
        A = np.outer(A[:, 0], e)
    elif kind == "rank-one-mixed":
        A = np.outer(np.abs(A[:, 0]) + 1.0, A[0])
    elif kind == "dup-neg" and m > 1:
        A[1] = A[0]
        A[-1] = -A[0]
    elif kind == "negative":
        A = -np.abs(A) - 1.0 / 3.0
    return A * draw(st.sampled_from([1.0, 1e9])), d, e, atol


def _bitwise_reference(A, d, e, atol) -> None:
    """The pick of the unpruned pool, with its sweep value bit for bit, and
    before it, with ``top``, the pool's first rectangle of the largest sweep
    value."""
    pair = normalized_cut_bruteforce(A, d, e, cap=max(A.shape), atol=atol)
    pool = oracles.completion_pool(A, d, e, atol)
    S, T, _, value = oracles.completion_pick(pool, A.shape)
    assert (pair.S, pair.T, pair.value.hex()) == (S, T, value.hex())
    top = max(pool, key=lambda c: abs(c[3]))
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    # with the tables a CutDomain keeps, whose work arrays the second call reuses
    tables = sweep._SweepTables(e if A.shape[0] > A.shape[1] else d, max(A.shape))
    for _ in range(2):
        pairs = sweep._sweep_pick(A, d, e, atol, top=True, tables=tables)
        assert [(P, Q, v.hex()) for P, Q, v in pairs] == [(top[0], top[1], top[3].hex()),
                                                          (S, T, value.hex())]


def _plain_reference(A, atol) -> None:
    """The plain form's witness and value, and the sweep's maximum over the
    smaller side, as the sweep over every row set at once gives them, bit
    for bit."""
    S, T, value, best = oracles.plain_pick(A, atol)
    pair = cut_norm_bruteforce(A, atol=atol)
    assert (pair.S, pair.T, pair.value.hex()) == (S, T, value.hex())
    assert sweep._plain_cut_norm(A, atol)[0].hex() == best.hex()


@settings(max_examples=200, deadline=None)
@given(inputs=_sweep_inputs())
def test_pruned_sweep_matches_unpruned_reference(inputs):
    """Same pick and bitwise-equal value as the sweep over every row set."""
    _bitwise_reference(*inputs)


@settings(max_examples=200, deadline=None)
@given(inputs=_sweep_inputs(sides=(4, 10)), chunk=st.sampled_from([4, 8, 16]),
       block=st.sampled_from([1, 3, sweep.SWEEP_BLOCK_ROWS]))
def test_chunked_sweep_matches_unpruned_reference(inputs, chunk, block):
    """Sides 4-10 in chunks of 4-16 row sets, so that most inputs span many
    chunks, and sorted in blocks of 1 or 3 row sets, so that the held row
    sets are thinned between blocks: wide and tall inputs (the columns
    swept) give the same pick and first top candidate, bit for bit, as the
    unpruned pool, and the plain form the same witness and maximum as the
    sweep over every row set at once."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "SWEEP_CHUNK_ROWS", chunk)
        patch.setattr(sweep, "SWEEP_BLOCK_ROWS", block)
        _bitwise_reference(*inputs)
        A, _, _, atol = inputs
        _plain_reference(A, atol)


def test_pruned_sweep_keeps_every_block(monkeypatch):
    """Twelve rows of ones over 60 columns of weights 1, 2, ..., 60: a row set
    of k rows has bound sqrt(k H_60) and value sqrt(k 120/61), at all
    columns.  A chunk's running bound is the value of the fullest row set so
    far, of p rows, so its row sets with k H_60 >= p 120/61 survive: in one
    chunk the 2510 with k >= 6, in more than four sort blocks, and in chunks
    of 256 more of them.  Each survivor is sorted once, and the winner, all
    rows, is the last of them."""
    sorted_rows = []
    real = sweep._prefix_values

    def counted(R, e, w):
        sorted_rows.append(len(R))
        return real(R, e, w)

    monkeypatch.setattr(sweep, "_prefix_values", counted)
    A = np.ones((12, 60))
    d, e = np.ones(12), np.arange(1.0, 61.0)
    ratio = (120 / 61) / sum(1 / e)
    for chunk in (sweep.SWEEP_CHUNK_ROWS, 256):
        monkeypatch.setattr(sweep, "SWEEP_CHUNK_ROWS", chunk)
        sorted_rows.clear()
        pair = normalized_cut_bruteforce(A, d, e, cap=60)
        assert pair.S == tuple(range(12)) and pair.T == tuple(range(60))
        fullest, survivors = 0, 0
        for lo in range(0, 2**12, chunk):
            sizes = [bin(mask).count("1") for mask in range(max(lo, 1), min(lo + chunk, 2**12))]
            fullest = max(fullest, *sizes)
            survivors += sum(k >= ratio * fullest for k in sizes)
        assert sum(sorted_rows) == survivors
        if chunk >= 2**12:  # one chunk
            assert survivors == 2510 and len(sorted_rows) > 5
        _bitwise_reference(A, d, e, ATOL)


@pytest.mark.parametrize("scale, weight", [(1e-170, 1.0), (1e-160, 1e-300), (1e-150, 1e-100)])
def test_pruned_sweep_where_the_bound_underflows(scale, weight):
    """Entries this small make the squared row sums of the bound underflow;
    at atol 0 the row sets must still be swept, not dropped."""
    rng = np.random.default_rng(0)
    A = rng.normal(size=(6, 5)) * scale
    d = np.full(6, weight)
    e = np.ones(5)
    e[2] = weight
    _bitwise_reference(A, d, e, 0.0)


@pytest.mark.parametrize("shape", [(6, 5), (5, 6)])
@pytest.mark.parametrize("signs", ["ones", "mixed"])
def test_pruned_sweep_where_the_bound_overflows(shape, signs):
    """Entries this large make the squared row sums of the bound overflow to
    inf, within one sign (``inf - inf`` parts) and across both (an inf
    square of the other sign); the row sets must still be swept, not
    dropped."""
    rng = np.random.default_rng(0)
    A = (np.ones(shape) if signs == "ones" else rng.normal(size=shape)) * 1e160
    d, e = np.ones(shape[0]), np.ones(shape[1])
    _bitwise_reference(A, d, e, ATOL)
    pair = normalized_cut_bruteforce(A, d, e)
    assert abs(pair.value) == pytest.approx(oracles.cut_pnorm_max_fast(A, d, e), rel=1e-12)


_R = 6.7326551858930884e-161


@pytest.mark.parametrize("A, d, e", [
    (np.array([[_R, 0.0], [0.0, _R * 1e150 * (1 - 1e-6)]]), np.full(2, 1e-300),
     np.array([1e-300, 1.0])),
    (np.array([[0.0, 1.0], [0.0, 2.0]]), np.ones(2), np.array([4e-309, 1.0])),
])
def test_pruned_sweep_where_the_bound_is_inexact(A, d, e):
    """First, a row sum near 1e-160 over a column of weight 1e-300: its
    square underflows to a subnormal, which keeps about three digits, before
    ``1/e_j`` scales it up to about 1e-20, so its bound may lie 5e-4 below
    its value, and the other row set's value is 1e-6 below that one.  Then
    a zero column of a weight whose reciprocal overflows, which makes every
    bound NaN.  The row sets must still be swept, not dropped."""
    _bitwise_reference(A, d, e, 0.0)


@st.composite
def _bound_inputs(draw):
    """A chunk's row sums, column weights and row-set mass roots for
    ``sweep._bound``: entries near 1e160 (squares overflow) and near 1e-160
    (squares underflow), mixed with ordinary ones and zeros; weights near
    1e-300 and 1e300, and subnormal ones whose reciprocal overflows, so that
    ``0 * inf`` is NaN."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    scales = draw(st.lists(st.sampled_from([1.0, 1e9, 1e160, 1e-160]), min_size=1, max_size=3))
    entry = st.builds(lambda k, scale: k / 7.0 * scale,
                      st.integers(-30, 30), st.sampled_from(scales))
    R = np.array(draw(st.lists(entry, min_size=m * n, max_size=m * n))).reshape(m, n)
    weights = draw(st.lists(st.sampled_from([1.0, 3.0 / 7.0, 4.0, 1e-300, 1e300, 4e-309]),
                            min_size=1, max_size=3))
    e = np.array(draw(st.lists(st.sampled_from(weights), min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.sampled_from([1.0, 7.0 / 3.0, 1e-150, 1e150]),
                               min_size=m, max_size=m)))
    return R, e, w


@settings(max_examples=300, deadline=None)
@given(inputs=_bound_inputs())
@example(inputs=(np.array([[_R, 0.0]]), np.array([1e-300, 1.0]), np.array([1e-150])))
def test_bound_holds_every_prefix_value(inputs):
    """For every row set of a chunk, the pruning bound is at least its best
    ``_prefix_values`` value within the relative margin of the pruning test
    (a NaN bound passes it), unless the bound is marked as one that may have
    lost terms to underflow, whose row set the sweep keeps."""
    R, e, w = inputs
    upper, unsure = sweep._bound(R, e, w)
    with np.errstate(all="ignore"):
        best = np.abs(sweep._prefix_values(R, e, w)[1]).max(axis=(1, 2))
    assert np.all(unsure | ~(upper < best / (1.0 + 1e-9)))


def test_weighted_step_memory_is_blocked():
    """One side-12 weighted step, on a graph residual (few survivors) and on
    the zero matrix (every row set survives), allocates under 2 MB; the
    unpruned sweep's temporaries over all 4095 row sets take about 3 MB."""
    rng = np.random.default_rng(7)
    G = oracles.gnp_adjacency(rng, 12, 0.5)
    deg = np.maximum(G.sum(axis=1), 1.0)
    for A in (G - G.mean(), np.zeros((12, 12))):
        normalized_cut_bruteforce(A, deg, deg)  # warm NumPy's lazily set-up state
        tracemalloc.start()
        try:
            normalized_cut_bruteforce(A, deg, deg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


def _traced(run) -> tuple:
    """Peak and retained bytes that NumPy and Python allocate while ``run()``
    runs: what is retained after it returns is held by caches at module
    level."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, retained


def test_step_at_the_cap_memory_is_chunked():
    """One weighted step with the smaller side at ``COMPLETION_CAP`` (22),
    on a degree-weighted graph residual, allocates under 100 MB: the 2^22
    row-set masses (34 MB), one chunk's row sums and a few sort blocks.  The
    unchunked sweep's indicator table and row sums took 1.5 GB.  Nothing of
    it stays in a module-level cache."""
    side = cutnorm.COMPLETION_CAP
    A = oracles.gnp_adjacency(np.random.default_rng(22), side, 0.5)
    deg = A.sum(axis=1)
    R = A - np.outer(deg, deg) / deg.sum()

    def step():
        dom = CutDomain(deg)
        key, value = dom.max_step(R / dom.whitener)
        assert abs(value) > 0.1

    peak, retained = _traced(step)
    assert peak < 100_000_000 and retained < 2_000_000


def test_maxcut_bruteforce_memory_is_chunked(tmp_path):
    """``maxcut --eps 0.5 --bf-cap 20`` on a G(20) (greedy steps, the exact
    cut norm of the weak partition and the brute-force max cut, all over
    2^20 vertex sets) allocates under 100 MB; the indicator tables it built
    took about 500 MB.  Nothing of it stays in a module-level cache."""
    path = tmp_path / "g20.json"
    path.write_text(json.dumps(oracles.gnp_adjacency(np.random.default_rng(20), 20, 0.5).tolist()))
    out = str(tmp_path / "report.json")
    argv = ["maxcut", "--input", str(path), "--eps", "0.5", "--bf-cap", "20", "--output", out]

    def run():
        assert cli.main(argv) == 0

    peak, retained = _traced(run)
    assert peak < 100_000_000 and retained < 2_000_000
    certs = {c["name"]: c for c in json.loads(open(out).read())["certificates"]}
    assert certs["estimate-vs-bruteforce"]["pass"]


def test_ratio_candidates_are_reduced_and_complete():
    cs = ratio_candidates(4, 6)
    vals = set(cs)
    for a in range(1, 5):
        for b in range(1, 7):
            assert any(abs(c - a / b) < 1e-12 for c in vals)
    assert len(cs) == len(set(cs))


def test_ratio_candidates_match_the_fraction_grid():
    """The float quotients are the reduced fractions: every grid up to
    40x40, and the grids at the edge of ``RATIO_CAP``, equal the sorted
    ``Fraction`` grid of the oracle as floats, bit for bit.  The reduced
    fractions of an (a, b) grid are those of the 40x40 grid with numerator
    at most a and denominator at most b."""
    full = oracles.ratio_grid(40, 40)
    for a in range(1, 41):
        for b in range(1, 41):
            want = tuple(float(f) for f in full if f.numerator <= a and f.denominator <= b)
            assert ratio_candidates(a, b) == want, (a, b)
    cap = cutnorm.RATIO_CAP
    for a, b in ((256, 256), (1, cap), (cap, 1)):
        assert ratio_candidates(a, b) == tuple(map(float, oracles.ratio_grid(a, b))), (a, b)
    ratio_candidates.cache_clear()


def test_importing_the_cli_loads_no_fractions_or_decimal():
    code = "import sys, pvdkit.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_ratio_grid_past_its_cap_is_refused_before_any_fraction(monkeypatch):
    """More than ``RATIO_CAP`` pairs ``(a, b)`` are refused before the grid
    is built (a refused grid of 65,792 pairs allocates less than its floats
    would), so ``cut_lp_exact`` on weight masses of 600 and 600 raises at
    once and solves no LP."""
    monkeypatch.setattr(cutnorm, "_CutLpFamily", _refuses)
    cap = cutnorm.RATIO_CAP

    def refuse():
        for a, b in ((cap + 1, 1), (1, cap + 1), (257, 256)):
            with pytest.raises(ValueError, match=f"^{a * b} LP ratio pairs exceed RATIO_CAP"):
                ratio_candidates(a, b)

    assert _traced(refuse)[0] < 8 * 65_792
    with pytest.raises(ValueError, match="RATIO_CAP"):
        cut_lp_exact(np.ones((2, 2)), [300.0, 300.0])


def test_lp_round_dominates_lp_objective():
    """Rounding a solved relaxation never loses value."""
    rng = np.random.default_rng(23)
    for trial in range(25):
        n = int(rng.integers(2, 6))
        A = rng.integers(-3, 4, size=(n, n)).astype(float)
        d = rng.integers(1, 4, size=n).astype(float)
        e = rng.integers(1, 4, size=n).astype(float)
        for c in ratio_candidates(int(d.sum()), int(e.sum()))[::3]:
            for sign in (1, -1):
                inst = build_cut_lp(A, d, e, c, sign=sign)
                sol = solve_cut_lp(inst)
                # round on the instance's own (signed) matrix
                pair = lp_round(inst.matrix, d, e, sol["s"], sol["t"])
                assert pair.value >= sol["objective"] - 1e-9, (
                    f"trial {trial} c={c} sign={sign}")


def test_lp_candidates_warm_chain_records():
    """Every record of the warm chain solves its own instance, and the chain
    takes a small fraction of the pivots of one cold solve per record."""
    rng = np.random.default_rng(1002)  # the acceptance tests' integer corpus
    for unit in (True, False):
        n = int(rng.integers(3, 7))
        A = rng.integers(-3, 4, size=(n, n)).astype(float)
        d = rng.integers(1, 4, size=n).astype(float)
        e = rng.integers(1, 4, size=n).astype(float)
        if unit:
            d = e = np.ones(n)
        cs = ratio_candidates(int(d.sum()), int(e.sum()))
        recs = list(lp_candidates(A, d, e, cs))
        assert [(r["c"], r["sign"]) for r in recs] == [(c, s) for c in cs for s in (1, -1)]
        cold_pivots = 0
        for rec in recs:
            inst, s, t, c = rec["instance"], rec["s"], rec["t"], rec["c"]
            cold = build_cut_lp(A, d, e, c, rec["sign"])
            assert rec["objective"] == pytest.approx(solve_cut_lp(cold)["objective"], abs=1e-9)
            cold_pivots += cold.tableau.pivots
            assert s.min() >= -1e-9 and t.min() >= -1e-9
            assert d @ s <= math.sqrt(c) + 1e-9 and e @ t <= 1.0 / math.sqrt(c) + 1e-9
            # at the optimum every x_ij sits at its cap min(a s_i, a t_j)
            B = inst.matrix
            caps = sum(min(B[i, j] * s[i], B[i, j] * t[j]) for i, j in inst.nnz)
            assert rec["objective"] == pytest.approx(caps, abs=1e-9)
        tableaus = {id(r["instance"].tableau): r["instance"].tableau for r in recs}
        assert len(tableaus) == 2
        assert 5 * sum(tab.pivots for tab in tableaus.values()) < cold_pivots


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _matches_sequential_reference(A, d, e, cs) -> None:
    """``lp_candidates`` records equal, bit for bit, those of one
    ``Tableau.solve`` and one level scan per LP."""
    got = list(lp_candidates(A, d, e, cs))
    want = oracles.lp_candidates_sequential(A, d, e, cs)
    assert len(got) == len(want)
    for rec, ref in zip(got, want):
        assert (rec["c"], rec["sign"]) == (ref["c"], ref["sign"])
        assert _bits(rec["instance"].b_ub) == _bits(ref["b_ub"])
        assert _bits(rec["instance"].shift_total) == _bits(ref["shift_total"])
        for key in ("objective", "s", "t"):
            assert _bits(rec[key]) == _bits(ref[key]), key
        r = rec["rounded"]
        assert (r.S, r.T) == ref["rounded"][:2]
        assert _bits(r.value) == _bits(ref["rounded"][2])
        # the one-row call is the same rounding
        assert lp_round(rec["instance"].matrix, d, e, rec["s"], rec["t"]) == r


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lp_candidates_match_sequential_reference(data):
    """The batched grid (right-hand sides priced by basis segments, a chain's
    levels rounded at once) gives the records of one ``Tableau.solve`` and
    one level scan per LP, bit for bit, on tie-rich and degenerate inputs."""
    m = data.draw(st.integers(1, 5), label="m")
    n = data.draw(st.integers(1, 5), label="n")
    kind = data.draw(st.sampled_from(["float", "integer", "zero", "duplicate-rows",
                                      "grid"]), label="kind")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "float":
        A = rng.normal(size=(m, n))
    elif kind == "grid":
        A = np.round(rng.uniform(-1.0, 1.0, size=(m, n)), 1)
    elif kind == "zero":
        A = np.zeros((m, n))
    else:
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        if kind == "duplicate-rows":
            A[-1] = A[0]
    if data.draw(st.booleans(), label="unit weights"):
        d, e = np.ones(m), np.ones(n)
    else:
        d = rng.integers(1, 4, size=m).astype(float)
        e = rng.integers(1, 4, size=n).astype(float)
    _matches_sequential_reference(A, d, e, ratio_candidates(int(d.sum()), int(e.sum())))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_closed_lp_route_pool_is_the_records_pairs(data):
    """The LP routes take their pool from the rounding step without building
    records, and it is the ``pair`` of every ``lp_candidates`` record, in
    order, bit for bit: on positive, negative and mixed matrices, with
    integer or real weights, over the ratio grid or a geometric one, in one
    rounding batch or several, at unit scale and at 1e9 (whose LP is solved
    in scaled units)."""
    m = data.draw(st.integers(1, 5), label="m")
    n = data.draw(st.integers(1, 5), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    signs = data.draw(st.sampled_from(["mixed", "positive", "negative"]), label="signs")
    if signs != "mixed":
        A = np.abs(A) * (1.0 if signs == "positive" else -1.0)
    A *= data.draw(st.sampled_from([1.0, 0.1, 1e9]), label="scale")
    if data.draw(st.booleans(), label="integer weights"):
        d, e = rng.integers(1, 4, size=m).astype(float), rng.integers(1, 4, size=n).astype(float)
    else:
        d, e = rng.uniform(0.5, 3.0, size=m), rng.uniform(0.5, 3.0, size=n)
    if data.draw(st.booleans(), label="ratio grid"):
        cs = ratio_candidates(max(1, round(d.sum())), max(1, round(e.sum())))
    else:
        lo, hi = d.min() / e.sum(), d.sum() / e.min()
        cs = [lo * 1.05 ** k for k in range(int(math.log(hi / lo) / math.log(1.05)) + 1)]
    batch = data.draw(st.sampled_from([1, 3, None]), label="batch LPs")
    pools = []
    select = cutnorm._select_pair

    def recorded(pool, atol, tall):
        pools.append(pool)
        return select(pool, atol, tall)

    with mock.patch.object(cutnorm, "_select_pair", recorded), mock.patch.object(
            cutnorm, "ROUND_BATCH_ENTRIES",
            cutnorm.ROUND_BATCH_ENTRIES if batch is None else batch * (m + n) ** 2):
        cutnorm._closed_lp_route(A, d, e, cs, ATOL)
        want = [rec["pair"] for rec in lp_candidates(A, d, e, cs)]
    got = pools[0][: len(want)]
    assert len(got) == len(want) == 2 * len(cs)
    assert [(p.S, p.T, _bits(p.value)) for p in got] == [
        (p.S, p.T, _bits(p.value)) for p in want]


def test_lp_round_keeps_the_scan_tie_rule():
    """Levels on a few distinct values over entries on a scaled 0.1-grid:
    distinct rectangles often tie exactly, and the batched sums order them
    otherwise than the per-rectangle formula (trial 714 of this stream ties
    so), yet value, sets and the first-maximum rule are the scan's."""
    rng = np.random.default_rng(0)
    for trial in range(1000):
        m, n = rng.integers(1, 7, size=2)
        A = np.round(rng.uniform(-1, 1, size=(m, n)), 1) * rng.choice([1, 0.3, 1 / 3])
        d = rng.integers(1, 4, size=m).astype(float)
        e = rng.integers(1, 4, size=n).astype(float)
        s = rng.integers(0, 4, size=m) / 3.0
        t = rng.integers(0, 4, size=n) / 3.0
        got = lp_round(A, d, e, s, t)
        assert (got.S, got.T, got.value) == oracles.level_scan(A, d, e, s, t), f"trial {trial}"


def test_round_levels_evaluates_each_rectangle_once_per_call(monkeypatch):
    """One batched rounding of many LPs, whose levels share row sets with
    different column sets, gives each LP its own scan; ``_rect_value`` runs
    once per distinct rectangle."""
    A = np.array([[1.0, -1.0]])
    got = cutnorm._round_levels(A, np.ones(1), np.ones(2), np.ones((2, 1)),
                                np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert [(p.S, p.T, p.value) for p in got] == [((0,), (0,), 1.0), ((), (), 0.0)]
    rng = np.random.default_rng(4)
    A = np.round(rng.uniform(-1, 1, size=(3, 4)), 1)
    d, e = rng.integers(1, 4, size=3).astype(float), rng.integers(1, 4, size=4).astype(float)
    s = rng.integers(0, 4, size=(300, 3)) / 3.0
    t = rng.integers(0, 4, size=(300, 4)) / 3.0
    calls = []
    rect_value = cutnorm._rect_value

    def counted(*args):
        calls.append(tuple(map(tuple, args[3:])))
        return rect_value(*args)

    monkeypatch.setattr(cutnorm, "_rect_value", counted)
    got = cutnorm._round_levels(A, d, e, s, t)
    assert len(calls) == len(set(calls)) < len(s)
    for a, pair in enumerate(got):
        assert (pair.S, pair.T, pair.value) == oracles.level_scan(A, d, e, s[a], t[a]), f"LP {a}"


@pytest.mark.parametrize("batch_lps", [1, 7])
def test_lp_candidates_batches_keep_records(monkeypatch, batch_lps):
    """Batches of one ratio (each chain one row, each rounding batch one LP)
    or of a few keep the records of one LP at a time."""
    rng = np.random.default_rng(31)
    A = np.round(rng.uniform(-1.0, 1.0, size=(5, 4)), 1)
    d = rng.integers(1, 4, size=5).astype(float)
    e = rng.integers(1, 4, size=4).astype(float)
    cs = ratio_candidates(int(d.sum()), int(e.sum()))
    assert len(cs) > 7 * batch_lps
    monkeypatch.setattr(cutnorm, "ROUND_BATCH_ENTRIES", batch_lps * 9 ** 2)
    _matches_sequential_reference(A, d, e, cs)


def _refuses(*args, **kwargs):
    raise AssertionError("a route ran past the rule")


def test_cut_lp_exact_refuses_mixed_signs_beyond_completion(monkeypatch):
    """Past the completion cap the LP-only pool can undershoot on a mixed-sign
    matrix, so the exact route refuses before solving any LP; the cut
    domain refuses the step by the rule of the exact sweep."""
    side = cutnorm.COMPLETION_CAP + 1
    A = np.random.default_rng(30).integers(-3, 4, size=(side, side)).astype(float)
    monkeypatch.setattr(cutnorm, "_CutLpFamily", _refuses)
    with pytest.raises(ValueError, match="mixed-sign"):
        cut_lp_exact(A)
    with pytest.raises(UnsupportedDomain, match=oracles.sweep_rule((side, side))):
        CutDomain(np.ones(side)).max_step(A)


def test_cut_domain_refuses_one_signed_residuals_beyond_completion(monkeypatch):
    """Past ``_sweep_exact`` a greedy cut step has no exact route, so it is
    refused before any work, even on a one-signed residual where the LP
    relaxation would be exact: a 23x23 matrix with one block of ones, and
    one with two disjoint blocks, stop at the first step with no LP solved
    and no sweep run."""
    for name in ("_sweep_pick", "_SweepTables"):
        monkeypatch.setattr(domains, name, _refuses)
    monkeypatch.setattr(cutnorm, "_CutLpFamily", _refuses)
    side = cutnorm.COMPLETION_CAP + 1
    one = np.zeros((side, side))
    one[:4, :4] = 1.0
    two = one.copy()
    two[10:13, 10:13] = 1.0
    for A in (one, two):
        with pytest.raises(UnsupportedDomain, match=oracles.sweep_rule((side, side))):
            compute_pvd(A, CutDomain(np.ones(side)))


@pytest.mark.parametrize("shape, bf_cap, exact", [
    ((12, 30), 12, True), ((13, 13), 12, True), ((22, 40), 12, True), ((5, 30), 4, True),
    ((23, 23), 12, False), ((23, 23), 23, True), ((23, 24), 23, False), ((30, 23), 29, False),
])
def test_every_cut_norm_quantity_follows_the_one_sweep_rule(monkeypatch, shape, bf_cap, exact):
    """The greedy step, the normalized and the plain maximizer, the cut-norm
    bound and the Szemeredi sum take the exact sweep exactly where
    ``cutnorm._sweep_exact`` holds: the longer side within ``bf_cap`` or the
    smaller side within ``COMPLETION_CAP``.  Past it each raises the one
    refusal with no route called (the regularity bounds on square shapes,
    where a partition applies).  The routes are stubbed, so only the choice
    is tested."""
    assert cutnorm._sweep_exact(shape, bf_cap) is exact
    routes = []

    def route(name, value):
        return lambda *args, **kwargs: routes.append(name) or value

    pick = [((0,), (0,), 0.0)]
    plain = (0.0, 1, np.zeros(max(shape)))
    monkeypatch.setattr(regularity, "_plain_cut_norm", route("sweep", plain))
    monkeypatch.setattr(cutnorm, "_plain_cut_norm", route("sweep", plain))
    monkeypatch.setattr(domains, "_SweepTables", route("tables", None))
    monkeypatch.setattr(domains, "_sweep_pick", route("sweep", pick))
    monkeypatch.setattr(cutnorm, "_sweep_pick", route("sweep", pick))
    monkeypatch.setattr(cutnorm, "_CutLpFamily", route("lp", []))
    monkeypatch.setattr(cutnorm, "simplex_solve", route("lp", (None, 0.0)))
    R = np.zeros(shape)
    dom = CutDomain(np.ones(shape[0]), np.ones(shape[1]), bf_cap=bf_cap)
    calls = [lambda: dom.max_step(R), lambda: normalized_cut_bruteforce(R, cap=bf_cap),
             lambda: cut_norm_bruteforce(R, cap=bf_cap)]
    if shape[0] == shape[1]:
        whole = regularity.Partition(parts=(tuple(range(shape[0])),))
        calls += [lambda: regularity.weak_irregularity_ub(R, whole, bf_cap),
                  lambda: regularity.szemeredi_irregularity_ub(R, whole, bf_cap)]
    for call in calls:
        if exact:
            call()
        else:
            with pytest.raises(UnsupportedDomain, match=oracles.sweep_rule(shape, bf_cap)):
                call()
    want = ["tables", "sweep", "sweep", "sweep"] + ["sweep", "sweep"] * (shape[0] == shape[1])
    assert routes == (want if exact else [])


def test_greedy_steps_past_the_cap_solve_no_lp(monkeypatch):
    """Within ``COMPLETION_CAP`` every greedy step past ``bf_cap`` is the
    exact sweep: a weak regularity run on six vertices with the cap at four
    solves no LP."""
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    swept = []
    real = sweep._sweep_pick

    def counted(*args, **kwargs):
        swept.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(cutnorm, "_CutLpFamily", no_lp)
    monkeypatch.setattr(domains, "_sweep_pick", counted)
    A = oracles.gnp_adjacency(np.random.default_rng(64), 6, 0.5)
    report = weak_regularity_partition(A, 0.5, bf_cap=4)
    assert report.all_pass and report.pvd.num_terms >= 1
    assert len(swept) > report.pvd.num_terms and set(swept) == {(6, 6)}


def test_cut_lp_approx_refuses_mixed_signs_outside_the_exact_regimes(monkeypatch, tmp_path,
                                                                     capsys):
    """The LP relaxation alone misses the (1+eps) guarantee on mixed-sign
    matrices: on 13x3 matrices with entries in -3..3 and all weights 1.5 it
    did in 35 of 40 draws of this stream (draw 3 gave 1.556 against an exact
    4.007).  The exact completion closes every pool whose smaller side is
    within ``COMPLETION_CAP``, whatever the weights, so these draws keep the
    guarantee; only a mixed-sign matrix with a larger smaller side is
    refused, before any LP is solved."""
    rng = np.random.default_rng(5)
    draws = [rng.integers(-3, 4, size=(13, 3)).astype(float) for _ in range(4)]
    d, e = np.full(13, 1.5), np.full(3, 1.5)
    for A in draws:
        exact = abs(normalized_cut_bruteforce(A, d, e, cap=13).value)
        assert abs(cut_lp_approx(A, 0.1, d, e).value) >= exact / 1.1 - 1e-9

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(cutnorm, "_CutLpFamily", no_lp)
    side = cutnorm.COMPLETION_CAP + 1
    big = np.random.default_rng(30).integers(-3, 4, size=(side, side)).astype(float)
    with pytest.raises(ValueError, match="mixed-sign"):
        cut_lp_approx(big, 0.5)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big.tolist()))
    assert cli.main(["cutnorm", "--input", str(path), "--eps", "0.5"]) == 2
    assert "mixed-sign" in capsys.readouterr().err


def test_cut_lp_exact_matches_bruteforce():
    rng = np.random.default_rng(24)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        A = rng.integers(-3, 4, size=(n, n)).astype(float)
        d = rng.integers(1, 4, size=n).astype(float)
        e = rng.integers(1, 4, size=n).astype(float)
        pair = cut_lp_exact(A, d, e)
        want = oracles.cut_pnorm_max(A, d, e)
        assert abs(pair.value) == pytest.approx(want, abs=1e-6), f"trial {trial}"


def test_cut_lp_exact_negative_optimum():
    # all-negative matrix: the optimum is carried by the negative sign pass
    A = -np.ones((3, 3))
    pair = cut_lp_exact(A, np.ones(3), np.ones(3))
    assert pair.value == pytest.approx(-3.0)


def test_cut_lp_exact_requires_integer_weights():
    with pytest.raises(ValueError):
        cut_lp_exact(np.ones((2, 2)), np.array([1.5, 1.0]), np.array([1.0, 1.0]))


def test_cut_lp_approx_guarantee():
    rng = np.random.default_rng(25)
    for trial in range(10):
        n = int(rng.integers(2, 6))
        A = rng.integers(-3, 4, size=(n, n)).astype(float)
        d = rng.integers(1, 4, size=n).astype(float)
        exact = oracles.cut_pnorm_max(A, d, d)
        for eps in (0.5, 0.1):
            pair = cut_lp_approx(A, eps, d, d)
            assert abs(pair.value) >= exact / (1.0 + eps) - 1e-9, (
                f"trial {trial} eps={eps}")


def test_cut_lp_approx_fractional_weights():
    rng = np.random.default_rng(26)
    A = rng.normal(size=(4, 4))
    d = rng.uniform(0.5, 2.0, size=4)
    exact = oracles.cut_pnorm_max(A, d, d)
    pair = cut_lp_approx(A, 0.25, d, d)
    assert abs(pair.value) >= exact / 1.25 - 1e-9


def test_exact_completion_contains_optimum():
    rng = np.random.default_rng(27)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        A = rng.integers(-2, 3, size=(n, n)).astype(float)
        d = rng.integers(1, 3, size=n).astype(float)
        pool = exact_completion(A, d, d)
        best = max(abs(p.value) for p in pool) if pool else 0.0
        assert best == pytest.approx(oracles.cut_pnorm_max(A, d, d), abs=1e-9)


def test_exact_completion_zero_matrix_with_unreachable_weights():
    # row weights (1, 3) reach the sums 1, 3 and 4 only; every rectangle of a
    # zero matrix ties at 0, and only reachable sums have a row set behind them
    A = np.zeros((2, 3))
    pool = exact_completion(A, [1.0, 3.0], [2.0, 2.0, 2.0])
    assert pool and all(p.value == 0.0 and p.S and p.T for p in pool)
    assert cut_lp_exact(A, [1, 3], [2, 2, 2]).value == 0.0


@st.composite
def _completion_inputs(draw):
    """Integer-entry matrices with sides 1-6 in both orientations (zero,
    rank-one and duplicated rows among them, so exact ties are common), with
    unit, integer or non-integer weights."""
    A = draw(_matrices().filter(lambda M: np.all(M == np.round(M))))
    if draw(st.booleans()):
        A = A.T.copy()
    m, n = A.shape
    return A, draw(_weights(m)), draw(_weights(n))


@settings(max_examples=200, deadline=None)
@given(inputs=_completion_inputs())
def test_exact_completion_selects_the_table_witness(inputs):
    """The completion's pool holds the rectangle the dense table's tie rule
    picks, with its value."""
    A, d, e = inputs
    pair = cutnorm._select_pair(exact_completion(A, d, e), 1e-9, A.shape[0] > A.shape[1])
    S, T, value = oracles.table_witness(A, d, e)
    assert (pair.S, pair.T) == (S, T)
    assert pair.value == pytest.approx(value, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(A=_matrices().filter(lambda M: np.all(M == np.round(M))), data=st.data())
def test_exact_completion_selects_as_the_full_pool(A, data):
    """An LP pool closed by the completion's pairs selects what it selects
    closed by every rectangle the sweep finds within the tolerance: integer
    matrices (zero and rank-one among them) in both orientations, with unit
    or integer weights, as the LP ratio enumeration needs."""
    if data.draw(st.booleans()):
        A = A.T.copy()
    d, e = (data.draw(st.lists(st.integers(1, 3).map(float), min_size=k, max_size=k)
                      .map(np.array)) for k in A.shape)
    cs = ratio_candidates(int(d.sum()), int(e.sum()))
    lp_pool = [rec["pair"] for rec in lp_candidates(A, d, e, cs)]
    full = [CutPair(S, T, value) for S, T, value, _ in oracles.completion_pool(A, d, e)]
    pairs = exact_completion(A, d, e)
    assert 1 <= len(pairs) <= 2 and set(pairs) <= set(full)
    assert abs(pairs[0].value) == pytest.approx(max(abs(p.value) for p in full), abs=1e-12)
    tall = A.shape[0] > A.shape[1]
    for pool in ([], lp_pool):
        assert (cutnorm._select_pair(pool + pairs, 1e-9, tall)
                == cutnorm._select_pair(pool + full, 1e-9, tall))


@settings(max_examples=200, deadline=None)
@given(inputs=_completion_inputs())
# swept over columns, the first column set within the tolerance does not hold
# the smallest row set: every swept set within it must be expanded
@example(inputs=(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, 0.0]]), np.ones(3), np.ones(2)))
# a sorted side past 52 columns, whose masks are compared in several chunks
@example(inputs=(np.zeros((60, 3)), np.ones(60), np.ones(3)))
@example(inputs=(np.outer([1.0, -1.0, 1.0], np.tile([1.0, -1.0, 0.0], 20)), np.ones(3),
                 np.ones(60)))
def test_exact_completion_pairs_bitwise_from_the_full_pool(inputs):
    """Expanding only the swept sets that can hold them, the completion
    returns, bit for bit, the pairs picked from every rectangle within the
    tolerance: zero, tie-heavy and rank-one inputs, swept over rows or, on
    tall inputs, over columns."""
    A, d, e = inputs
    got = [(p.S, p.T, p.value) for p in exact_completion(A, d, e)]
    assert got == oracles.completion_pairs(A, d, e)


@settings(max_examples=200, deadline=None)
@given(A=_matrices(), data=st.data())
def test_every_exact_step_is_the_pick_of_the_pool(A, data):
    """``normalized_cut_bruteforce`` and the cut step, within ``bf_cap`` and
    past it, return the tie rule's pick (the last pair the completion
    returns) with the exact maximum: wide, tall and square inputs with unit,
    integer and non-integer weights."""
    if data.draw(st.booleans()):
        A = A.T.copy()
    d, e = data.draw(_weights(A.shape[0])), data.draw(_weights(A.shape[1]))
    S, T, _ = oracles.completion_pairs(A, d, e)[-1]
    best = oracles.cut_pnorm_max_fast(A, d, e)
    pair = normalized_cut_bruteforce(A, d, e)
    assert (pair.S, pair.T) == (S, T)
    assert abs(pair.value) == pytest.approx(best, abs=1e-12)
    for dom in (CutDomain(d, e), CutDomain(d, e, bf_cap=1)):
        key, value = dom.max_step(A / dom.whitener)
        assert key == (oracles.mask(S), oracles.mask(T))
        assert abs(value) == pytest.approx(best, abs=1e-12)


#: the 9x6 integer input ``0-int9x6.json`` of the benchmark's lp-route
#: workload at seed 1: a tall input whose maximum is tied
INT9X6 = [[-3, 1, -1, -2, -2, 2], [1, 3, -3, -3, -1, 0], [-3, 0, 2, -1, 2, -1],
          [-2, -2, 0, 2, 0, -3], [1, -3, 1, -2, 1, -2], [2, 0, -3, -2, 0, 2],
          [1, -2, -2, 1, 0, 0], [0, 0, 3, 3, -2, -3], [-3, 2, 2, -2, -1, 3]]


@st.composite
def _non_square_ints(draw):
    """Tall and wide matrices with entries in -2..2, so that ties are
    common, and positive integer weights for each side."""
    m, n = draw(st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(lambda s: s[0] != s[1]))
    A = np.array(draw(st.lists(st.integers(-2, 2), min_size=m * n, max_size=m * n)), dtype=float)
    d, e = (np.array(draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)), dtype=float)
            for k in (m, n))
    return A.reshape(m, n), d, e


@settings(max_examples=200, deadline=None)
@given(inputs=_non_square_ints())
@example(inputs=(np.array(INT9X6, dtype=float), np.arange(1.0, 10.0) % 3 + 1, np.ones(6)))
def test_exact_maximizers_transpose_with_their_input(inputs):
    """The smaller side is swept and breaks ties first, whichever way the
    input lies: on ``A.T`` the normalized maximizer (unit and integer
    weights), the plain one and a cut step each return the transposed
    rectangle of the same call on ``A``, with the same value bits."""
    A, d, e = inputs
    for dd, ee in ((np.ones(len(d)), np.ones(len(e))), (d, e)):
        pair, back = normalized_cut_bruteforce(A, dd, ee), normalized_cut_bruteforce(A.T, ee, dd)
        assert (pair.S, pair.T, pair.value.hex()) == (back.T, back.S, back.value.hex())
    pair, back = cut_norm_bruteforce(A), cut_norm_bruteforce(A.T)
    assert (pair.S, pair.T, pair.value.hex()) == (back.T, back.S, back.value.hex())
    dom, dom_t = CutDomain(d, e), CutDomain(e, d)
    (S, T), value = dom.max_step(A / dom.whitener)
    (P, Q), back = dom_t.max_step(A.T / dom_t.whitener)
    assert (S, T, value.hex()) == (Q, P, back.hex())


@pytest.mark.parametrize("shape", [(3, 16), (16, 3)])
def test_exact_completion_sweeps_only_the_short_side(shape, monkeypatch):
    """A long side beyond ``BRUTE_FORCE_CAP`` is sorted or read off the
    row sums, never enumerated: for the completion and for the plain cut
    norm only the short side's subsets are built."""
    rng = np.random.default_rng(40 + shape[0])
    A = rng.integers(-3, 4, size=shape).astype(float)
    d = rng.integers(1, 4, size=shape[0]).astype(float)
    e = rng.uniform(0.5, 2.0, size=shape[1])
    built = []
    sums, masses, low = sweep._row_sums, sweep._subset_sums, sweep._low_indicators

    def counted_sums(B, *args):
        built.append(B.shape[0])
        return sums(B, *args)

    def counted_masses(w, *args):
        built.append(len(w))
        return masses(w, *args)

    monkeypatch.setattr(sweep, "_row_sums", counted_sums)
    monkeypatch.setattr(sweep, "_subset_sums", counted_masses)
    monkeypatch.setattr(sweep, "_low_indicators", lambda m: built.append(m) or low(m))
    pool = exact_completion(A, d, e)
    assert max(shape) > cutnorm.BRUTE_FORCE_CAP and built == [min(shape)] * 3
    best = max(abs(p.value) for p in pool)
    assert best == pytest.approx(oracles.cut_pnorm_max_fast(A, d, e), abs=1e-9)
    for p in pool:
        want = oracles.weighted_rect_value(A, d, e, p.S, p.T)
        assert p.value == pytest.approx(want, rel=1e-12)
    built.clear()
    pair = cut_norm_bruteforce(A)
    assert built == [min(shape)] * 2
    assert abs(pair.value) == pytest.approx(oracles.plain_cutnorm_fast(A), rel=1e-12)
    assert rectangle_sum(A, pair.S, pair.T) == pytest.approx(pair.value, rel=1e-12)


def test_cut_norm_lp_upper_builds_the_envelope_rows(monkeypatch):
    """The program handed to the simplex, row by row as the envelope reads:
    per nonzero entry two rows, then one unit box row per level variable."""
    rng = np.random.default_rng(30)
    A = rng.normal(size=(3, 4))
    A[1, 2] = 0.0
    seen = []

    def capture(A_ub, b_ub, c):
        seen.append((np.array(A_ub), np.array(b_ub), np.array(c)))
        return simplex_solve(A_ub, b_ub, c)

    monkeypatch.setattr(cutnorm, "simplex_solve", capture)
    cut_norm_lp_upper(A)
    m, n = A.shape
    for sign, (A_ub, b_ub, c) in zip((1.0, -1.0), seen):
        nz = [(i, j, sign * A[i, j]) for i in range(m) for j in range(n) if A[i, j] != 0.0]
        k = len(nz)
        rows, rhs = [], []
        for idx, (i, j, a) in enumerate(nz):
            first, second = np.zeros(k + m + n), np.zeros(k + m + n)
            first[idx] = second[idx] = 1.0
            if a > 0:
                first[k + i] = second[k + m + j] = -a
                rhs += [0.0, 0.0]
            else:
                second[k + i] = second[k + m + j] = -a
                rhs += [-a, -2.0 * a]
            rows += [first, second]
        rows += list(np.eye(k + m + n)[k:])
        rhs += [1.0] * (m + n)
        assert _bits(A_ub) == _bits(np.array(rows)) and _bits(b_ub) == _bits(rhs)
        assert _bits(c) == _bits([1.0] * k + [0.0] * (m + n))


def test_cut_norm_lp_upper_never_undershoots():
    rng = np.random.default_rng(28)
    for trial in range(20):
        m, n = rng.integers(2, 6, size=2)
        A = rng.normal(size=(m, n))
        ub = cut_norm_lp_upper(A)
        assert ub >= oracles.plain_cutnorm(A) - 1e-9, f"trial {trial}"


def test_cut_norm_lp_upper_tight_on_nonnegative():
    # nonnegative matrices: the full rectangle attains the LP value exactly
    rng = np.random.default_rng(29)
    A = rng.uniform(0.0, 1.0, size=(5, 4))
    assert cut_norm_lp_upper(A) == pytest.approx(A.sum(), abs=1e-8)


def test_cut_pair_masks_roundtrip():
    pair = CutPair((0, 2), (1,), 1.5)
    smask, tmask = pair.masks()
    assert smask == 0b101 and tmask == 0b010
