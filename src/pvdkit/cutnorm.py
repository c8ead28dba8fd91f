"""Cut-norm style rectangle maximizers.

Two routes to ``max |A(S, T)| / sqrt(d(S) e(T))`` over nonempty index sets:

* the exact sweep over the row sets of the smaller side, whose masks break
  ties first (``sweep``, which states its tie rule, its pruning and its
  cost), behind the exact routes and, wherever ``_sweep_exact`` holds,
  the greedy cut step of ``domains.CutDomain`` and the cut-norm bounds of
  ``regularity``; and
* the paper's linear-programming relaxation per candidate ratio
  ``c = d(S)/e(T)``, solved as one warm chain per sign (``lp_candidates``),
  rounded by a threshold scan over the LP levels and closed by
  ``exact_completion``.

The relaxation alone is exact for one-signed matrices, but the greedy cut
step never takes it (``domains``).  With mixed signs, entries of the
minority sign next to a good rectangle enter the LP objective as forced
payments and the relaxation can undershoot, so the LP routes refuse such
matrices whose smaller side is beyond ``COMPLETION_CAP``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import ATOL, as_matrix, as_weights, unit_scale
from .simplex import Tableau, simplex_solve
from .sweep import _mask_set, _plain_cut_norm, _plain_witness, _set_mask, _sweep_pick

#: default cap on one side's length for brute-force rectangle enumeration
BRUTE_FORCE_CAP = 12

#: cap on the swept (smaller) side of the exact sweep past ``BRUTE_FORCE_CAP``
COMPLETION_CAP = 22

#: cap on the pairs ``(a, b)`` of the ratio grid of ``cut_lp_exact``
RATIO_CAP = 1 << 16

#: cap on the entries of one batch of level masks in the LP rounding; a
#: ratio grid is solved and rounded in batches of this many mask entries
ROUND_BATCH_ENTRIES = 1 << 18


class UnsupportedDomain(ValueError):
    """An operation needs more than a domain gives: enumeration of an
    infinite domain or past its cap, a cut maximum past ``_sweep_exact``."""


def _sweep_exact(shape, bf_cap: int) -> bool:
    """The one rule for where a cut-norm quantity of a ``shape`` matrix is
    the exact sweep: its longer side is within ``bf_cap`` or its smaller
    side within ``COMPLETION_CAP``."""
    return max(shape) <= bf_cap or min(shape) <= COMPLETION_CAP


def _require_sweep(shape, bf_cap: int) -> None:
    """Raise ``UnsupportedDomain`` where ``_sweep_exact`` fails."""
    if not _sweep_exact(shape, bf_cap):
        raise UnsupportedDomain(
            f"{shape[0]}x{shape[1]} cut domain: an exact cut maximum needs the longer side within "
            f"bf_cap {bf_cap} or the smaller side within COMPLETION_CAP {COMPLETION_CAP}")


@dataclass(frozen=True)
class CutPair:
    """A rectangle (row set, column set) together with its form value.

    ``value`` is signed; maximizers compare absolute values and keep the
    sign so the witness can be re-checked directly.
    """

    S: tuple
    T: tuple
    value: float

    def masks(self) -> tuple:
        return (_set_mask(self.S), _set_mask(self.T))


def rectangle_sum(A, S, T) -> float:
    A = np.asarray(A, dtype=float)
    S = np.asarray(S, dtype=int)
    T = np.asarray(T, dtype=int)
    if S.size == 0 or T.size == 0:
        return 0.0
    return float(A[np.ix_(S, T)].sum())


def rectangle_value(A, d_left, d_right, S, T) -> float:
    """Normalized form value ``A(S,T) / sqrt(d(S) e(T))`` of one rectangle."""
    A = as_matrix(A)
    m, n = A.shape
    d = as_weights(d_left, m)
    e = as_weights(d_right, n)
    S = np.asarray(S, dtype=int)
    T = np.asarray(T, dtype=int)
    assert S.size > 0 and T.size > 0, "rectangle sides must be nonempty"
    return _rect_value(A, d, e, S, T)


def _rect_value(A, d, e, S, T) -> float:
    """``rectangle_value`` on validated arrays and index arrays."""
    return rectangle_sum(A, S, T) / math.sqrt(d[S].sum() * e[T].sum())


def cut_norm_bruteforce(A, cap: int = BRUTE_FORCE_CAP, atol: float = ATOL) -> CutPair:
    """Exact unnormalized cut norm ``max |A(S,T)|`` by the sweep over the
    smaller side, for inputs where ``_sweep_exact(A.shape, cap)`` holds;
    others raise ``UnsupportedDomain``.

    Returns the witness sets with their signed sum; ties within ``atol``
    break to the smallest (swept mask, other mask), as in ``sweep``: the
    first swept set within ``atol``, then ``sweep._plain_witness``.
    """
    A = as_matrix(A)
    _require_sweep(A.shape, cap)
    best, s, r = _plain_cut_norm(A, atol)
    S, T = _mask_set(s), _plain_witness(r, best - atol)
    return CutPair(*((S, T) if A.shape[0] <= A.shape[1] else (T, S)), float(r[list(T)].sum()))


def normalized_cut_bruteforce(
    A, d_left=None, d_right=None, cap: int = BRUTE_FORCE_CAP, atol: float = ATOL
) -> CutPair:
    """Exact ``max |A(S,T)| / sqrt(d(S) e(T))`` by the sorted-ratio sweep
    over the smaller side, for inputs where ``_sweep_exact(A.shape, cap)``
    holds; others raise ``UnsupportedDomain``.

    Covers both signs; the stored value keeps its sign, and ties within
    ``atol`` break by the tie rule of ``sweep``.
    """
    A = as_matrix(A)
    m, n = A.shape
    d = as_weights(d_left, m, "left weights")
    e = as_weights(d_right, n, "right weights")
    _require_sweep(A.shape, cap)
    return CutPair(*_sweep_pick(A, d, e, atol)[-1])


# ---------------------------------------------------------------------------
# LP relaxation per candidate ratio c
# ---------------------------------------------------------------------------


@dataclass
class CutLpInstance:
    """One relaxation: max sum(x) over
    x_ij <= A_ij s_i,  x_ij <= A_ij t_j,
    sum_i d_i s_i <= sqrt(c),  sum_j e_j t_j <= 1/sqrt(c),  s, t >= 0.

    Variables are shifted (y = x + L) so the slack basis is feasible; entries
    with A_ij = 0 carry no variable.  Only ``b_ub`` and ``shift_total``
    depend on ``c``; instances of one (matrix, sign) share the ``tableau``
    that solves them.  These three hold ``2**exponent`` times ``A``.
    """

    c: float
    sign: int
    matrix: np.ndarray  # sign * A
    d_left: np.ndarray
    nnz: list
    b_ub: np.ndarray
    shift_total: float
    exponent: int
    tableau: Tableau


class _CutLpFamily:
    """The ``c``-independent part of the relaxation of one (matrix, sign),
    and one tableau that solves its instances as a warm chain.  The tableau's
    tolerance is absolute, so it holds the entries at unit scale
    (``linalg.unit_scale``), times ``2**exponent``: the LP routes take a
    matrix in its caller's units."""

    def __init__(self, A, d_left, d_right, sign: int):
        A = as_matrix(A)
        m, n = A.shape
        self.d = as_weights(d_left, m)
        self.e = as_weights(d_right, n)
        assert sign in (1, -1)
        self.sign = sign
        self.matrix = B = sign * A
        rows, cols = np.nonzero(B)  # row-major, like the pairs in ``nnz``
        self.nnz = list(zip(rows.tolist(), cols.tolist()))
        k = len(self.nnz)
        a, self.exponent = unit_scale(B[rows, cols])
        self.abs_entries = np.abs(a)
        r = np.arange(k)
        A_ub = np.zeros((2 * k + 2, k + m + n))
        A_ub[2 * r, r] = 1.0
        A_ub[2 * r, k + rows] = -a
        A_ub[2 * r + 1, r] = 1.0
        A_ub[2 * r + 1, k + m + cols] = -a
        A_ub[2 * k, k : k + m] = self.d
        A_ub[2 * k + 1, k + m :] = self.e
        objective = np.zeros(k + m + n)
        objective[:k] = 1.0
        self.tableau = Tableau(A_ub, objective)

    def rhs(self, cs) -> tuple:
        """The right-hand sides of the ratios ``cs`` stacked ``(N, 2k+2)``,
        and their shift totals ``sum L``."""
        cs = np.asarray(cs, dtype=float)
        assert np.all(cs > 0)
        k = len(self.nnz)
        rc = np.sqrt(cs)
        level_cap = np.maximum(rc / self.d.min(), 1.0 / (rc * self.e.min()))
        L = level_cap[:, None] * self.abs_entries
        b = np.empty((len(cs), 2 * k + 2))
        b[:, 0 : 2 * k : 2] = L
        b[:, 1 : 2 * k : 2] = L
        b[:, 2 * k] = rc
        b[:, 2 * k + 1] = 1.0 / rc
        return b, L.sum(axis=1).tolist()

    def instance(self, c: float, b_ub, shift_total: float) -> CutLpInstance:
        return CutLpInstance(c, self.sign, self.matrix, self.d, self.nnz, b_ub, shift_total,
                             self.exponent, self.tableau)

    def solve(self, cs) -> tuple:
        """``cs`` solved in order: ``rhs``, raw values, levels, pairs of A."""
        k, m = len(self.nnz), len(self.d)
        b, shifts = self.rhs(cs)
        xs, raw = self.tableau.solve_chain(b)
        s, t = xs[:, k : k + m].copy(), xs[:, k + m :].copy()
        return b, shifts, raw, s, t, _round_levels(self.matrix, self.d, self.e, s, t, self.sign)

    def records(self, cs) -> list:
        b, shifts, raw, s, t, pairs = self.solve(cs)
        return [{"c": c, "sign": self.sign, "instance": self.instance(c, b_ub, shift),
                 "objective": float(np.ldexp(value - shift, -self.exponent)), "s": si, "t": ti,
                 "rounded": CutPair(p.S, p.T, self.sign * p.value) if p.S else p, "pair": p}
                for c, b_ub, shift, value, si, ti, p in zip(cs, b, shifts, raw, s, t, pairs)]


def build_cut_lp(A, d_left, d_right, c: float, sign: int = 1) -> CutLpInstance:
    """One relaxation with a tableau of its own, so it is solved cold."""
    family = _CutLpFamily(A, d_left, d_right, sign)
    (b_ub,), (shift_total,) = family.rhs([c])
    return family.instance(c, b_ub, shift_total)


def solve_cut_lp(inst: CutLpInstance) -> dict:
    """Solve one instance; returns its levels and objective."""
    k = len(inst.nnz)
    m = inst.d_left.shape[0]
    xfull, raw = inst.tableau.solve(inst.b_ub)
    return {
        "c": inst.c,
        "sign": inst.sign,
        "s": xfull[k : k + m].copy(),
        "t": xfull[k + m :].copy(),
        "objective": float(np.ldexp(raw - inst.shift_total, -inst.exponent)),
    }


def lp_round(A, d_left, d_right, s, t) -> CutPair:
    """Threshold rounding of LP levels into a rectangle.

    Scans the sets ``S(r) = {i : s_i >= r}``, ``T(r) = {j : t_j >= r}`` over
    every level appearing in the solution and returns the best normalized
    rectangle; the null pair (value 0) is returned when every level vanishes.
    An averaging argument over the levels guarantees the result is at least
    the LP objective for the instance the levels solve.  The one-row case of
    the batched rounding ``lp_candidates`` applies to a whole chain.
    """
    A = as_matrix(A)
    m, n = A.shape
    d = as_weights(d_left, m)
    e = as_weights(d_right, n)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return _round_levels(A, d, e, s[None, :], t[None, :])[0]


def _round_levels(A, d, e, s, t, sign: int = 1) -> list:
    """``lp_round`` of each row of the levels ``s`` ``(N, m)``, ``t``
    ``(N, n)``, each value times ``sign`` (a rectangle of ``sign * A``).
    Every level's value comes from the threshold masks at once, summed in
    another order than ``_rect_value``; the levels within twice
    ``slack`` (a bound on that rounding error) of an LP's best are evaluated
    again by ``_rect_value`` in decreasing order, keeping the first strict
    maximum above 0: the value and the tie rule of a scan over the levels.
    Neighbouring LPs of a chain share most of those rectangles, so each
    distinct pair of masks is evaluated once per call, keyed by the bytes of
    its ``S`` and ``T`` masks; a rectangle's value does not depend on the LP
    it came from."""
    m, n = A.shape
    levels = np.sort(np.concatenate([s, t], axis=1), axis=1)[:, ::-1]
    fresh = levels > 1e-12
    fresh[:, 1:] &= levels[:, 1:] != levels[:, :-1]
    MS = (s[:, None, :] >= levels[:, :, None]).astype(float)
    MT = (t[:, None, :] >= levels[:, :, None]).astype(float)
    sums = np.einsum("aln,aln->al", MS @ A, MT)
    dS, eT = MS @ d, MT @ e
    fresh &= (dS > 0) & (eT > 0)
    approx = np.where(fresh, sums / np.sqrt(np.where(fresh, dS * eT, 1.0)), -np.inf)
    slack = (4 * (m * n + m + n + 4) * np.finfo(float).eps
             * np.abs(A).sum() / math.sqrt(d.min() * e.min()))
    top = np.maximum(approx.max(axis=1), 0.0) - 2 * slack
    best = [CutPair((), (), 0.0)] * len(levels)
    rectangles = {}  # one evaluation per distinct (S, T) mask pair
    for a, lvl in np.argwhere(fresh & (approx >= top[:, None])).tolist():
        key = (MS[a, lvl].tobytes(), MT[a, lvl].tobytes())
        pair = rectangles.get(key)
        if pair is None:
            S = np.flatnonzero(MS[a, lvl])
            T = np.flatnonzero(MT[a, lvl])
            pair = rectangles[key] = CutPair(tuple(S.tolist()), tuple(T.tolist()),
                                             sign * float(_rect_value(A, d, e, S, T)))
        if sign * pair.value > sign * best[a].value:
            best[a] = pair
    return best


def _ratio_grid_fits(sum_left: int, sum_right: int) -> bool:
    """Whether the ratio grid of weight sums ``sum_left`` and ``sum_right``
    has at most ``RATIO_CAP`` pairs, as ``ratio_candidates`` needs."""
    return sum_left * sum_right <= RATIO_CAP


@lru_cache(maxsize=128)
def ratio_candidates(sum_left: int, sum_right: int) -> tuple:
    """Every ratio a/b with 1 <= a <= sum_left, 1 <= b <= sum_right, once and
    sorted, for at most ``RATIO_CAP`` pairs (a, b): within the cap, distinct
    reduced fractions are float quotients more than an ulp apart."""
    assert sum_left >= 1 and sum_right >= 1
    if not _ratio_grid_fits(sum_left, sum_right):
        raise ValueError(f"{sum_left * sum_right} LP ratio pairs exceed RATIO_CAP {RATIO_CAP}")
    return tuple(sorted({a / b for a in range(1, sum_left + 1) for b in range(1, sum_right + 1)}))


def _lp_grid(A, d_left, d_right, cs, step):
    """``step(family, ratios)`` per LP, in the order of ``lp_candidates``."""
    families = [_CutLpFamily(A, d_left, d_right, sign) for sign in (1, -1)]
    cs = list(cs)
    size = max(1, ROUND_BATCH_ENTRIES // sum(families[0].matrix.shape) ** 2)
    for lo in range(0, len(cs), size):
        for pair in zip(*(step(family, cs[lo : lo + size]) for family in families)):
            yield from pair


def lp_candidates(A, d_left, d_right, cs):
    """Build, solve, and round one LP per (ratio, sign); yields records in
    the order of ``cs``, the positive sign first.  Each sign's grid is one
    warm chain (``Tableau.solve_chain``), rounded together (the batched
    ``lp_round``) in batches of ``ROUND_BATCH_ENTRIES`` mask entries.

    Each record carries the solved instance data and two rounded pairs: the
    one on the signed matrix (whose value obeys the rounding guarantee) and
    the same sets re-signed as a rectangle of ``A`` itself.
    """
    return _lp_grid(A, d_left, d_right, cs, _CutLpFamily.records)


# ---------------------------------------------------------------------------
# exact completion: the row-set sweep over the smaller side
# ---------------------------------------------------------------------------


def exact_completion(A, d_left, d_right, atol: float = ATOL) -> list:
    """Exact normalized-rectangle candidates, for any signs and any positive
    weights: the closer of the LP routes.

    Runs the sweep over the smaller side and returns, as CutPairs of ``A``
    valued by ``rectangle_value``, first the candidate with the largest sweep
    value, then the pick of the tie rule (``sweep``), once when they
    coincide.  Returns an empty list when the smaller side exceeds
    ``COMPLETION_CAP``; the long side is never enumerated.
    """
    A = as_matrix(A)
    m, n = A.shape
    d = as_weights(d_left, m)
    e = as_weights(d_right, n)
    if min(m, n) > COMPLETION_CAP:
        return []
    return [CutPair(S, T, _rect_value(A, d, e, np.array(S), np.array(T)))
            for S, T, _ in dict.fromkeys(_sweep_pick(A, d, e, atol, top=True))]


def _select_pair(pool, atol: float, tall: bool) -> CutPair:
    """The pair within ``atol`` of the best, by the tie rule of ``sweep``."""
    assert pool, "no candidate rectangles"
    best = max(abs(p.value) for p in pool)
    winners = [p for p in pool if abs(p.value) >= best - atol and p.S]
    if not winners:
        return CutPair((), (), 0.0)
    return min(winners, key=lambda p: p.masks()[::-1] if tall else p.masks())


def integer_weights(w) -> bool:
    """Whether every weight is a positive integer, as the ratio enumeration
    of ``cut_lp_exact`` needs."""
    return bool(np.all(w == np.round(w)) and np.all(w >= 1))


def _lp_weights(A, d_left, d_right) -> tuple:
    """Validated weights of an LP route; ``d_right`` defaults to ``d_left``
    for square matrices."""
    m, n = A.shape
    d = as_weights(d_left, m, "left weights")
    if d_right is None and m != n:
        raise ValueError("d_right is required for rectangular matrices")
    e = as_weights(d_right, n, "right weights") if d_right is not None else d
    return d, e


def _closed_lp_route(A, d, e, cs, atol: float) -> CutPair:
    """The best rectangle of the LP relaxations of the ratios ``cs``, with
    the pool closed by ``exact_completion``.  The LP pool is the ``pair``
    of each ``lp_candidates`` record, read off ``_CutLpFamily.solve``
    without building records.  A matrix with both signs whose
    smaller side is beyond the completion, where the relaxation alone can
    undershoot (module docstring), is refused before any LP is solved."""
    m, n = A.shape
    if min(m, n) > COMPLETION_CAP and A.min() < 0 < A.max():
        raise ValueError(f"mixed-sign {m}x{n} matrix: the exact completion needs the "
                         f"smaller side within {COMPLETION_CAP}, and the LP relaxation "
                         "alone can undershoot")
    pool = list(_lp_grid(A, d, e, cs, lambda family, ratios: family.solve(ratios)[-1]))
    return _select_pair(pool + exact_completion(A, d, e, atol), atol, m > n)


def cut_lp_exact(A, d_left=None, d_right=None, atol: float = ATOL) -> CutPair:
    """Maximize ``|A(S,T)| / sqrt(d(S) e(T))`` via the LP relaxation family.

    Solves one LP per reduced-fraction ratio candidate ``c = a/b`` (both
    signs of ``A``), rounds every solution, and closes the pool with the
    exact completion (the row-set sweep over the smaller side); the best
    rectangle over all candidates is returned.  Requires positive integer
    weights (``d_right`` defaults to ``d_left`` on a square ``A``), and on a
    matrix with both signs the smaller side within ``COMPLETION_CAP``;
    otherwise raises ``ValueError`` before any LP is solved.
    """
    A = as_matrix(A)
    d, e = _lp_weights(A, d_left, d_right)
    for w, name in ((d, "left weights"), (e, "right weights")):
        if not integer_weights(w):
            raise ValueError(f"{name} must be positive integers for the LP ratio enumeration")
    cs = ratio_candidates(int(d.sum()), int(e.sum()))
    return _closed_lp_route(A, d, e, cs, atol)


def cut_lp_approx(A, eps: float, d_left=None, d_right=None, atol: float = ATOL) -> CutPair:
    """Same pipeline as ``cut_lp_exact``, but the ratio candidates come from
    a geometric ``(1+eps)`` grid spanning every achievable ``d(S)/e(T)``, so
    any positive weights are accepted.

    The returned value is at least ``exact / (1 + eps)``: the exact
    completion closes the pool whenever the smaller side is within
    ``COMPLETION_CAP``, and beyond it the LP relaxation is exact on a
    one-signed matrix.  A matrix with both signs and the smaller side beyond
    ``COMPLETION_CAP`` raises ``ValueError`` before any LP is solved.
    """
    A = as_matrix(A)
    if eps <= 0:
        raise ValueError("eps must be positive")
    d, e = _lp_weights(A, d_left, d_right)
    c_lo = float(d.min() / e.sum())
    c_hi = float(d.sum() / e.min())
    count = int(math.ceil(math.log(c_hi / c_lo) / math.log1p(eps))) if c_hi > c_lo else 0
    cs = [c_lo * (1.0 + eps) ** k for k in range(count + 1)]
    if cs[-1] < c_hi:
        cs.append(c_hi)
    return _closed_lp_route(A, d, e, cs, atol)


def cut_norm_lp_upper(A) -> float:
    """LP upper bound on the plain cut norm max |A(S,T)| (both signs).

    Uses the concave envelope of each bilinear term A_ij*s_i*t_j over the
    unit box (min of the two single-variable caps for positive entries, the
    shifted plane for negative ones).  The box maximum of the bilinear form
    is attained at 0/1 vertices, i.e. equals the cut norm, so the LP value
    can only overshoot; it never undershoots.
    """
    A = as_matrix(A)
    m, n = A.shape
    best = 0.0
    for sign in (1.0, -1.0):
        M = sign * A
        rows, cols = np.nonzero(M)  # row-major
        k = len(rows)
        if k == 0:
            continue
        a = M[rows, cols]
        pos, neg = np.flatnonzero(a > 0), np.flatnonzero(a < 0)
        r = np.arange(k)
        # two rows per entry, then a unit box row per level variable.
        # a > 0: z <= a s_i and z <= a t_j; a < 0, with z' = z - a >= 0:
        # z <= 0 and z <= a (s_i + t_j - 1)
        A_ub = np.zeros((2 * k + m + n, k + m + n))
        A_ub[2 * r, r] = 1.0
        A_ub[2 * r + 1, r] = 1.0
        A_ub[2 * pos, k + rows[pos]] = -a[pos]
        A_ub[2 * pos + 1, k + m + cols[pos]] = -a[pos]
        A_ub[2 * neg + 1, k + rows[neg]] = -a[neg]
        A_ub[2 * neg + 1, k + m + cols[neg]] = -a[neg]
        A_ub[2 * k + np.arange(m + n), k + np.arange(m + n)] = 1.0
        rhs = np.ones(2 * k + m + n)
        rhs[: 2 * k] = 0.0
        rhs[2 * neg] = -a[neg]
        rhs[2 * neg + 1] = -2.0 * a[neg]
        shift = float(np.cumsum(a[neg])[-1]) if neg.size else 0.0  # summed in order
        obj = np.zeros(k + m + n)
        obj[:k] = 1.0
        _, value = simplex_solve(A_ub, rhs, obj)
        best = max(best, value + shift)
    return best
