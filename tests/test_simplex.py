from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdkit import simplex
from pvdkit.cutnorm import ratio_candidates
from pvdkit.simplex import DEGENERATE_STREAK, SimplexError, Tableau, simplex_solve

import oracles


def test_known_tiny_lp():
    # [TRIVIAL] max x + y s.t. x <= 1, y <= 2
    x, val = simplex_solve(np.eye(2), np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    assert val == pytest.approx(3.0)
    assert np.allclose(x, [1.0, 2.0])


def test_binding_combination():
    # [TRIVIAL] max 3x + 2y s.t. x + y <= 4, x <= 2 -> x=2, y=2
    A = np.array([[1.0, 1.0], [1.0, 0.0]])
    b = np.array([4.0, 2.0])
    c = np.array([3.0, 2.0])
    x, val = simplex_solve(A, b, c)
    assert val == pytest.approx(10.0)


def test_unbounded_detected():
    with pytest.raises(SimplexError):
        simplex_solve(np.array([[-1.0]]), np.array([0.0]), np.array([1.0]))


def test_negative_rhs_rejected():
    with pytest.raises(SimplexError):
        simplex_solve(np.array([[1.0]]), np.array([-1.0]), np.array([1.0]))


def test_random_lps_match_scipy():
    rng = np.random.default_rng(123)
    for trial in range(60):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(2, 8))
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.1, 2.0, size=m)
        c = rng.normal(size=n)
        # keep the region bounded: add a box row per variable
        A_full = np.vstack([A, np.eye(n)])
        b_full = np.concatenate([b, np.full(n, 3.0)])
        x, val = simplex_solve(A_full, b_full, c)
        # feasibility of the reported point
        assert np.all(A_full @ x <= b_full + 1e-7)
        assert np.all(x >= -1e-12)
        # [DERIVED] independent solver agrees on the optimum
        _, ref = oracles.linprog_max(A_full, b_full, c)
        assert val == pytest.approx(ref, abs=1e-7), f"trial {trial}"


def test_degenerate_lp_terminates():
    # many redundant rows through the origin force degenerate pivots
    A = np.array([
        [1.0, -1.0],
        [2.0, -2.0],
        [3.0, -3.0],
        [1.0, 0.0],
        [0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    c = np.array([1.0, 1.0])
    tab = Tableau(A, c)
    x, val = tab.solve(b)
    assert val == pytest.approx(2.0)
    assert (tab.repairs, tab.bland_switches) == (0, 0)
    # the dense 5x5 cut relaxation at a zero right-hand side: every pivot is
    # degenerate, so the primal loop reaches Bland's rule, and still stops
    rng = np.random.default_rng(7)
    B = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=(5, 5))
    A_ub, objective, nnz = oracles.cut_lp_rows(B, np.ones(5), np.ones(5))
    assert len(nnz) == 25
    tab = Tableau(A_ub, objective)
    x, val = tab.solve(np.zeros(len(A_ub)))
    assert val == 0.0 and not x.any()
    assert tab.pivots > DEGENERATE_STREAK
    assert (tab.cold_solves, tab.repairs, tab.bland_switches) == (1, 0, 1)


def test_warm_solve_repairs_an_infeasible_basis():
    # max 2x + y s.t. x <= 1, y <= 1, x + y <= b3: the optimum x = y = 1 at
    # b3 = 10 leaves slack 3 basic; at b3 = 0.5 that slack turns negative,
    # and the dual repair moves to x = 0.5, y = 0 without a cold start
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    c = np.array([2.0, 1.0])
    tab = Tableau(A, c)
    x, val = tab.solve(np.array([1.0, 1.0, 10.0]))
    assert val == pytest.approx(3.0) and np.allclose(x, [1.0, 1.0])
    before = tab.pivots
    x, val = tab.solve(np.array([1.0, 1.0, 0.5]))
    assert val == pytest.approx(1.0) and np.allclose(x, [0.5, 0.0])
    assert tab.pivots > before and tab.cold_solves == 1


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_warm_chain_matches_cold_solves(data):
    """One tableau solved over a sequence of right-hand sides (all-zero ones,
    and jumps that leave the previous basis primal-infeasible) agrees with a
    cold solve and with scipy at every step, at a feasible point."""
    m = data.draw(st.integers(2, 7), label="m")
    n = data.draw(st.integers(2, 7), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    A = np.vstack([rng.normal(size=(m, n)), np.eye(n)])  # box rows keep it bounded
    c = rng.normal(size=n)
    tab = Tableau(A, c)
    for _ in range(data.draw(st.integers(2, 6), label="steps")):
        kind = data.draw(st.sampled_from(["fresh", "zero", "jump"]), label="rhs")
        if kind == "zero":
            b = np.zeros(m + n)
        else:
            b = np.concatenate([rng.uniform(0.1, 2.0, size=m), np.full(n, 3.0)])
            if kind == "jump":
                b[rng.random(m + n) < 0.5] *= rng.choice([0.0, 0.01, 10.0])
        x, val = tab.solve(b)
        assert np.all(A @ x <= b + 1e-7)
        assert np.all(x >= -1e-9)
        assert val == pytest.approx(float(c @ x), abs=1e-7)
        assert val == pytest.approx(simplex_solve(A, b, c)[1], abs=1e-7)
        assert val == pytest.approx(oracles.linprog_max(A, b, c)[1], abs=1e-7)


class _NoRepair(Tableau):
    """A dual repair that gives up whenever it would pivot, so every basis
    change falls back to a cold solve from the slack basis."""

    def _dual(self, budget):
        m = self.A.shape[0]
        return None if self.T[:m, -1].min() < -simplex.TOL else super()._dual(budget)


def _same_as_repeated_solves(cls, A, c, bs):
    chain, steps = cls(A, c), cls(A, c)
    xs, values = chain.solve_chain(bs)
    assert xs.shape == (len(bs), A.shape[1]) and values.shape == (len(bs),)
    for i, b in enumerate(bs):
        x, value = steps.solve(b)
        assert xs[i].tobytes() == x.tobytes() and values[i] == value, f"row {i}"
    assert _counters(chain) == _counters(steps)
    return chain


def _counters(tab) -> tuple:
    return tab.pivots, tab.cold_solves, tab.repairs, tab.bland_switches


def _same_as_reference(A, c, bs, tab=None, ref=None):
    """``Tableau.solve_chain`` gives the points, values and counters of the
    frozen per-row reference tableau, bit for bit."""
    tab = Tableau(A, c) if tab is None else tab
    ref = oracles.ReferenceTableau(A, c) if ref is None else ref
    xs, values = tab.solve_chain(bs)
    want_xs, want_values = ref.solve_chain(bs)
    for i in range(len(bs)):
        assert xs[i].tobytes() == want_xs[i].tobytes(), f"row {i}"
        assert values[i].tobytes() == want_values[i].tobytes(), f"row {i}"
    assert _counters(tab) == _counters(ref)
    return tab


def test_solve_chain_repairs_and_falls_back():
    # the repair example above as one chain: b3 = 9 and 0.4 keep the basis
    # of the row before them, b3 = 0.5 and the final 10 change it
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    c = np.array([2.0, 1.0])
    bs = np.array([[1.0, 1.0, b3] for b3 in (10.0, 9.0, 0.5, 0.4, 10.0)])
    chain = _same_as_repeated_solves(Tableau, A, c, bs)
    assert chain.pivots > 2 and chain.cold_solves == 1 and chain.repairs == 2
    chain = _same_as_repeated_solves(_NoRepair, A, c, bs)
    # both rows entered the repair, which gave up, so both were solved cold
    assert chain.cold_solves == 3 and chain.repairs == 2
    _same_as_reference(A, c, bs)


def test_solve_chain_rejects_a_negative_rhs():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    c = np.array([2.0, 1.0])
    for bs in ([[1.0, 1.0, -1.0]], [[1.0, 1.0, 2.0], [1.0, 1.0, 1.5], [1.0, -1.0, 1.0]]):
        with pytest.raises(SimplexError):
            Tableau(A, c).solve_chain(np.array(bs))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_solve_chain_matches_repeated_solves(data):
    """A chain of right-hand sides (small nudges that keep the basis, zero
    ones, jumps that force a dual repair, or with the repair disabled a cold
    solve) gives the points, values and pivot counts of one ``solve`` per
    row, bit for bit."""
    m = data.draw(st.integers(2, 6), label="m")
    n = data.draw(st.integers(2, 6), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    A = np.vstack([rng.normal(size=(m, n)), np.eye(n)])
    c = rng.normal(size=n)
    b = np.concatenate([rng.uniform(0.1, 2.0, size=m), np.full(n, 3.0)])
    bs = []
    for _ in range(data.draw(st.integers(1, 12), label="rows")):
        kind = data.draw(st.sampled_from(["nudge", "zero", "jump"]), label="rhs")
        if kind == "zero":
            bs.append(np.zeros(m + n))
            continue
        if kind == "nudge":
            b = b * (1.0 + 0.01 * rng.random(m + n))
        else:
            b = np.concatenate([rng.uniform(0.1, 2.0, size=m), np.full(n, 3.0)])
            b[rng.random(m + n) < 0.5] *= rng.choice([0.0, 0.01, 10.0])
        bs.append(b)
    cls = _NoRepair if data.draw(st.booleans(), label="no repair") else Tableau
    _same_as_repeated_solves(cls, A, c, np.array(bs))


def _cut_chain(rng, data):
    """Right-hand sides of a dense 5x5 cut relaxation (k = 25) over its ratio
    grid, in grid order, shuffled, or with the zero right-hand side mixed in
    (every pivot from it is degenerate, so it reaches Bland's rule)."""
    B = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=(5, 5))
    B *= data.draw(st.sampled_from([1.0, 0.1, 1 / 3]), label="scale")
    if data.draw(st.booleans(), label="unit weights"):
        d = e = np.ones(5)
    else:
        d, e = rng.integers(1, 4, size=(2, 5)).astype(float)
    A_ub, objective, nnz = oracles.cut_lp_rows(B, d, e)
    cs = ratio_candidates(int(d.sum()), int(e.sum()))
    bs = np.array([oracles.cut_lp_rhs(B, d, e, nnz, c)[0] for c in cs])
    order = data.draw(st.sampled_from(["grid", "shuffled", "zeros"]), label="order")
    if order == "shuffled":
        bs = bs[rng.permutation(len(bs))]
    elif order == "zeros":
        bs[rng.random(len(bs)) < 0.2] = 0.0
        bs[0] = 0.0
    return A_ub, objective, bs


def _boxed_chain(rng, data):
    """A random LP with box rows, over nudges that keep the basis, jumps
    that force a repair, and zero right-hand sides; at large scales the
    absolute tolerance is below the rounding of ``A_ub @ x``, so the
    feasibility check decides on the last bits."""
    m = data.draw(st.integers(2, 6), label="m")
    n = data.draw(st.integers(2, 6), label="n")
    A = np.vstack([rng.normal(size=(m, n)), np.eye(n)])
    c = rng.normal(size=n)
    b = np.concatenate([rng.uniform(0.1, 2.0, size=m), np.full(n, 3.0)])
    bs = []
    for _ in range(data.draw(st.integers(1, 40), label="rows")):
        kind = data.draw(st.sampled_from(["nudge", "nudge", "zero", "jump"]), label="rhs")
        if kind == "zero":
            bs.append(np.zeros(m + n))
            continue
        if kind == "nudge":
            b = b * (1.0 + 0.01 * rng.random(m + n))
        else:
            b = np.concatenate([rng.uniform(0.1, 2.0, size=m), np.full(n, 3.0)])
            b[rng.random(m + n) < 0.5] *= rng.choice([0.0, 0.01, 10.0])
        bs.append(b)
    return A, c, np.array(bs) * data.draw(st.sampled_from([1.0, 1e6, 1e9]), label="scale")


def _degenerate_chain(rng, data):
    """Many rows through the origin: zero right-hand sides on most rows, so
    pivots are degenerate and long streaks reach Bland's rule."""
    n = data.draw(st.integers(2, 8), label="n")
    rows = data.draw(st.integers(n, 30), label="rows through 0")
    A = np.vstack([rng.normal(size=(rows, n)), np.eye(n)])
    c = rng.normal(size=n) + 1.0
    bs = np.concatenate([np.zeros((6, rows)), rng.uniform(0.5, 2.0, size=(6, n))], axis=1)
    bs[rng.random(6) < 0.5, :rows] = rng.uniform(0.0, 0.1)
    return A, c, bs


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_solve_chain_matches_reference_tableau(data):
    """Segment pricing (whatever the guard block size), the rank-one pivot
    and the masked ratio test give the points, values, pivot counts, cold
    solves, repairs and Bland switches of the frozen per-row reference, bit
    for bit: on dense 5x5 cut relaxations over their ratio grids, random
    boxed LPs, degenerate LPs and zero right-hand sides."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kind = data.draw(st.sampled_from(["cut", "boxed", "degenerate"]), label="kind")
    chain = {"cut": _cut_chain, "boxed": _boxed_chain, "degenerate": _degenerate_chain}[kind]
    A, c, bs = chain(rng, data)
    with mock.patch.object(simplex, "SEGMENT_ROWS", data.draw(
            st.sampled_from([1, 2, 3, simplex.SEGMENT_ROWS]), label="segment rows")):
        _same_as_reference(A, c, bs)


def test_reference_cases_reach_every_path():
    """The generators above reach Bland's rule, repairs and cold fallbacks."""
    rng = np.random.default_rng(3)
    B = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=(5, 5))
    d = e = np.ones(5)
    A_ub, objective, nnz = oracles.cut_lp_rows(B, d, e)
    bs = np.array([oracles.cut_lp_rhs(B, d, e, nnz, c)[0] for c in ratio_candidates(5, 5)])
    bs[[0, 7]] = 0.0
    tab = _same_as_reference(A_ub, objective, bs)
    assert tab.bland_switches >= 1 and tab.repairs >= 1 and tab.cold_solves >= 1


def test_segment_guard_sends_a_violating_point_to_the_repair_path():
    """A kept inverse that prices a row feasible but whose point violates
    ``A_ub x <= b`` (here a tampered slack block, as a badly conditioned
    basis could leave it) ends the segment at that row; the rows before it
    keep the basis, and that row is solved again from the slack basis, as
    the per-row reference does."""
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    c = np.array([2.0, 1.0])
    tab, ref = Tableau(A, c), oracles.ReferenceTableau(A, c)
    first = np.array([[1.0, 1.0, 10.0]])
    _same_as_reference(A, c, first, tab, ref)
    for t in (tab, ref):
        t.T[0, 2] = 1.01  # x_0 = 1.01 b_0 against the row x_0 <= b_0
    bs = np.array([[0.0, 1.0, 10.0], [0.0, 0.5, 10.0], [1.0, 1.0, 10.0], [1.0, 0.5, 10.0]])
    with mock.patch.object(simplex, "SEGMENT_ROWS", 3):
        _same_as_reference(A, c, bs, tab, ref)
    assert tab.cold_solves == 2 and tab.repairs == 0
    xs, _ = Tableau(A, c).solve_chain(np.vstack([first, bs]))
    assert np.all(xs @ A.T <= np.vstack([first, bs]) + 1e-9)


def test_segment_guard_decides_like_the_per_row_check_at_large_scales():
    """At right-hand sides near 1e9 the tolerance 1e-9 is below the rounding
    of ``A_ub @ x``, so about a third of the rows of a nudged chain fail the
    check by a few ulps and are solved cold.  The segment's block product
    rounds otherwise than the per-row product; where the two can disagree
    the per-row product decides, so the same rows go cold as in the
    reference."""
    rng = np.random.default_rng(0)
    cold = 0
    for _ in range(20):
        A = np.vstack([rng.normal(size=(5, 5)), np.eye(5)])
        c = rng.normal(size=5)
        b = np.concatenate([rng.uniform(0.1, 2.0, size=5), np.full(5, 3.0)])
        tab = _same_as_reference(A, c, np.array([b * (1 + 1e-3 * k) for k in range(30)]) * 1e9)
        cold += tab.cold_solves
    assert cold > 100


def _lp_route_chain():
    """The cut relaxation of an 8x8 integer matrix (53 entries, 108 rows)
    over a ``(1 + 0.01)`` geometric ratio grid of 419 right-hand sides, three
    of them (rows 257, 300 and 350) with half their entry rows zeroed."""
    B = np.random.default_rng(1).integers(-3, 4, size=(8, 8)).astype(float)
    d = e = np.ones(8)
    A_ub, objective, nnz = oracles.cut_lp_rows(B, d, e)
    k = len(nnz)
    bs = np.array([oracles.cut_lp_rhs(B, d, e, nnz, 0.125 * 1.01 ** i)[0] for i in range(419)])
    rng = np.random.default_rng(0)
    for r in (1 + simplex.SEGMENT_ROWS, 300, 350):
        bs[r, : 2 * k][rng.random(2 * k) < 0.5] = 0.0
    return A_ub, objective, bs


def _recorded_segments(A_ub, objective, bs) -> tuple:
    """The reference check of the chain, and each ``_segment`` call's start,
    end and rows priced."""
    segments = []
    segment = Tableau._segment

    def recorded(self, bs, start, xs, values):
        priced = self.priced
        end, repair = segment(self, bs, start, xs, values)
        segments.append((start, end, self.priced - priced))
        return end, repair

    with mock.patch.object(Tableau, "_segment", recorded):
        return _same_as_reference(A_ub, objective, bs), segments


def test_solve_chain_at_the_lp_route_shapes_matches_reference():
    """The chain of ``_lp_route_chain``, longer than ``SEGMENT_ROWS``, gives
    the reference's points, values and counters bit for bit.  The kept basis
    does not solve the three edited right-hand sides: the first ends a
    segment past its first ``SEGMENT_ROWS`` rows, the others in the middle
    of a block, which the segment leaves at the first of them."""
    A_ub, objective, bs = _lp_route_chain()
    assert len(bs) > simplex.SEGMENT_ROWS + 1
    block_start, mid_block = 1 + simplex.SEGMENT_ROWS, 300
    tab, recorded = _recorded_segments(A_ub, objective, bs)
    segments = [(start, end) for start, end, _ in recorded]
    # row 0 is solved cold; each edited row, and the row after it, is repaired
    assert segments[0] == (1, block_start)
    assert (block_start + 2, mid_block) in segments
    assert (tab.cold_solves, tab.repairs) == (1, 6)


def test_segments_price_only_as_far_as_they_reach():
    """A segment prices blocks of ``SEGMENT_ROWS // 16`` rows, doubling up to
    ``SEGMENT_ROWS``, from each start, so it prices past the row it ends at
    by less than its last block; the chain still matches the reference."""
    A_ub, objective, bs = _lp_route_chain()
    tab, segments = _recorded_segments(A_ub, objective, bs)
    assert len(segments) > 3
    for start, end, priced in segments:
        reach = min(end + 1, len(bs))  # the accepted rows and the one it ends at
        lo, size = start, simplex.SEGMENT_ROWS // 16
        while lo + size < reach:
            lo, size = lo + size, min(2 * size, simplex.SEGMENT_ROWS)
        assert priced == min(lo + size, len(bs)) - start, (start, end)
        assert 0 <= priced - (reach - start) < size, (start, end)
    assert tab.priced == sum(priced for _, _, priced in segments)


def test_stacked_pricing_keeps_the_per_row_bits():
    """``Tableau._segment`` prices a block of right-hand sides by one
    stacked ``np.matmul``; every value must keep the bits of the per-row
    ``inverse @ b`` and ``cost @ b`` of a single solve, at every tableau
    height ``m = 2k + 2`` of the LP route up to 110."""
    for m in range(4, 111, 2):
        rng = np.random.default_rng(m)
        inverse, cost = rng.normal(size=(m, m)), rng.normal(size=m)
        bs = rng.uniform(0.0, 3.0, size=(simplex.SEGMENT_ROWS, m))
        stack = bs[:, :, None]
        rhs, products = np.matmul(inverse, stack)[..., 0], np.matmul(cost, stack)[:, 0]
        for i, b in enumerate(bs):
            assert (rhs[i].tobytes() == (inverse @ b).tobytes()
                    and products[i].tobytes() == (cost @ b).tobytes()), (
                f"NumPy no longer evaluates a stacked matrix-vector product as one gemv per "
                f"row (m = {m}, row {i}): segment pricing would move the bits of a per-row solve")
