import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvdkit.simplex import SimplexError, Tableau, simplex_solve

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
    x, val = simplex_solve(A, b, c)
    assert val == pytest.approx(2.0)


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
        return None if self.T[:m, -1].min() < -self.tol else super()._dual(budget)


def _same_as_repeated_solves(cls, A, c, bs):
    chain, steps = cls(A, c), cls(A, c)
    xs, values = chain.solve_chain(bs)
    assert xs.shape == (len(bs), A.shape[1]) and values.shape == (len(bs),)
    for i, b in enumerate(bs):
        x, value = steps.solve(b)
        assert xs[i].tobytes() == x.tobytes() and values[i] == value, f"row {i}"
    assert (chain.pivots, chain.cold_solves) == (steps.pivots, steps.cold_solves)
    return chain


def test_solve_chain_repairs_and_falls_back():
    # the repair example above as one chain: b3 = 9 and 0.4 keep the basis
    # of the row before them, b3 = 0.5 and the final 10 change it
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    c = np.array([2.0, 1.0])
    bs = np.array([[1.0, 1.0, b3] for b3 in (10.0, 9.0, 0.5, 0.4, 10.0)])
    chain = _same_as_repeated_solves(Tableau, A, c, bs)
    assert chain.pivots > 2 and chain.cold_solves == 1
    chain = _same_as_repeated_solves(_NoRepair, A, c, bs)
    assert chain.cold_solves == 3


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
