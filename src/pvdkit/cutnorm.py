"""Cut-norm style rectangle maximizers.

Three routes to ``max |A(S, T)| / sqrt(d(S) e(T))`` over nonempty index sets:

* an exact sweep over the row sets (small sides only),
* a linear-programming relaxation per candidate ratio ``c = d(S)/e(T)``,
  rounded by a threshold scan over the LP levels, and
* an exact completion sweep (subsets on one side, a weight-exact knapsack
  on the other) that closes the gap the relaxation leaves on sign-mixed
  matrices.

The LP route alone is exact for entrywise-nonnegative matrices; with mixed
signs, negative entries adjacent to a good rectangle force negative payments
into the LP objective and the relaxation can undershoot, which is why
``cut_lp_exact`` finishes with the completion sweep, and refuses sign-mixed
matrices whose smaller side is beyond it.

Only the right-hand side of a relaxation depends on ``c``, so a ratio grid
is solved as one warm chain per sign: the constraint matrix is built once,
and each ratio reprices the previous optimal tableau and repairs it with a
dual simplex (``simplex.Tableau``) instead of solving from the slack basis.

The row-set sweep rests on a prefix lemma.  Fix a row set ``S`` with row
sums ``r`` and positive column weights ``e``.  On the box ``[0, 1]^n`` the
function ``(r.x)^2 / (e.x)`` is convex, so its maximum over nonempty column
sets is attained at a vertex where no single-column flip has a positive
gradient.  The gradient in column ``j`` has the sign of ``(r.x) (2 r_j - lam
e_j)`` with ``lam = (r.x)/(e.x)``, so the best column set is cut off by the
threshold ``r_j/e_j = lam/2``: with the columns sorted by ``r_j/e_j`` in
decreasing order it is a prefix for a positive sum and a suffix for a
negative one.  This holds for any positive weights.  For the plain form ``|A(S,T)|``
the best column set is the positive or the negative support of ``r``.  An
exact maximization therefore costs ``O(2^m n log n + 2^n)`` instead of the
``2^m 2^n`` rectangle table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_matrix, as_weights
from .simplex import Tableau, simplex_solve

#: default cap on one side's length for brute-force rectangle enumeration
BRUTE_FORCE_CAP = 12

#: default cap on the enumerated side of the exact completion sweep
COMPLETION_CAP = 17


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


def _set_mask(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << int(i)
    return mask


def _mask_set(mask: int) -> tuple:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@lru_cache(maxsize=64)
def subset_indicators(n: int) -> np.ndarray:
    """0/1 rows for every nonempty subset of range(n), mask order 1..2^n-1."""
    assert n >= 1
    masks = np.arange(1, 2**n, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n, dtype=np.int64)) & 1
    return bits.astype(float)


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
    return rectangle_sum(A, S, T) / math.sqrt(d[S].sum() * e[T].sum())


def _sweep_rows(A, d, e, cap: int, tol: Tolerance | None) -> CutPair:
    """Normalized form (plain ``|A(S,T)|`` when ``d`` is None) maximized over
    row sets, each with its best column set read off its row sums (the prefix
    lemma of the module docstring).  Ties within ``tol.atol`` break to the
    smallest (S mask, T mask): the first qualifying row set, then the first
    column set in that row's ``2^n`` values."""
    tol = tol or DEFAULT_TOL
    m, n = A.shape
    if max(m, n) > cap:
        raise ValueError(f"matrix sides {A.shape} exceed brute-force cap {cap}")
    U = subset_indicators(m)
    V = subset_indicators(n)
    R = U @ A  # row sums of every row subset, mask order
    if d is None:
        best_per_S = np.maximum(np.where(R > 0, R, 0.0).sum(axis=1),
                                -np.where(R < 0, R, 0.0).sum(axis=1))
    else:
        order = np.argsort(R / e, axis=1)
        Rs = np.take_along_axis(R, order, axis=1)
        Es = e[order]
        # prefixes of the increasing order hold the negative optimum,
        # suffixes the positive one
        low = np.cumsum(Rs, axis=1) / np.sqrt(np.cumsum(Es, axis=1))
        high = np.cumsum(Rs[:, ::-1], axis=1) / np.sqrt(np.cumsum(Es[:, ::-1], axis=1))
        wS = np.sqrt(U @ d)
        best_per_S = np.maximum(np.abs(low).max(axis=1), np.abs(high).max(axis=1)) / wS
    best = float(best_per_S.max())
    s = int(np.argmax(best_per_S >= best - tol.atol))
    row = V @ R[s]
    if d is not None:
        row /= wS[s] * np.sqrt(V @ e)
    mags = np.abs(row)
    # the row is summed in another order than the sweep, so its maximum may
    # sit an ulp below ``best``
    t = int(np.argmax(mags >= min(best, float(mags.max())) - tol.atol))
    return CutPair(_mask_set(s + 1), _mask_set(t + 1), float(row[t]))


def cut_norm_bruteforce(A, cap: int = BRUTE_FORCE_CAP, tol: Tolerance | None = None) -> CutPair:
    """Exact unnormalized cut norm ``max |A(S,T)|`` by a sweep over row sets.

    Parameters
    ----------
    A : array_like, shape (m, n)
    cap : int
        Reject inputs with ``max(m, n)`` beyond this (2^m row sets, 2^n
        column sets in the tie-break scan).

    Returns
    -------
    CutPair
        Witness sets with the signed rectangle sum attaining the maximum
        absolute value; ties break to the smallest (S mask, T mask).
    """
    return _sweep_rows(as_matrix(A), None, None, cap, tol)


def normalized_cut_bruteforce(
    A, d_left=None, d_right=None, cap: int = BRUTE_FORCE_CAP, tol: Tolerance | None = None
) -> CutPair:
    """Exact ``max |A(S,T)| / sqrt(d(S) e(T))`` by a sorted-ratio sweep.

    Enumerates the ``2^m - 1`` row sets ``S``.  For each, with ``r`` the
    row sums of ``S``, the best column set is a prefix (positive sign) or a
    suffix (negative sign) of the columns sorted by ``r_j / e_j`` (the
    prefix lemma in the module docstring), so one call costs
    ``O(2^m n log n + 2^n)`` instead of the ``2^m 2^n`` rectangle table.
    Covers both signs; the stored value keeps its sign, and ties break to
    the smallest (S mask, T mask).
    """
    A = as_matrix(A)
    m, n = A.shape
    d = as_weights(d_left, m, "left weights")
    e = as_weights(d_right, n, "right weights")
    return _sweep_rows(A, d, e, cap, tol)


# ---------------------------------------------------------------------------
# LP relaxation per candidate ratio c
# ---------------------------------------------------------------------------


@dataclass
class CutLpInstance:
    """One relaxation: max sum(x) over
    x_ij <= A_ij s_i,  x_ij <= A_ij t_j,
    sum_i d_i s_i <= sqrt(c),  sum_j e_j t_j <= 1/sqrt(c),  s, t >= 0.

    Variables are shifted (y = x + L) so the slack basis is feasible; entries
    with A_ij = 0 carry no variable (their x is forced to 0).  Only ``b_ub``
    and ``shift_total`` depend on ``c``; instances of one (matrix, sign)
    share the rest and the ``tableau`` that solves them.
    """

    c: float
    sign: int
    matrix: np.ndarray  # sign * A
    d_left: np.ndarray
    d_right: np.ndarray
    nnz: list
    A_ub: np.ndarray
    b_ub: np.ndarray
    objective: np.ndarray
    shift_total: float
    tableau: Tableau


class _CutLpFamily:
    """The ``c``-independent part of the relaxation of one (matrix, sign),
    and one tableau that solves its instances as a warm chain."""

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
        a = B[rows, cols]
        self.abs_entries = np.abs(a)
        r = np.arange(k)
        A_ub = np.zeros((2 * k + 2, k + m + n))
        A_ub[2 * r, r] = 1.0
        A_ub[2 * r, k + rows] = -a
        A_ub[2 * r + 1, r] = 1.0
        A_ub[2 * r + 1, k + m + cols] = -a
        A_ub[2 * k, k : k + m] = self.d
        A_ub[2 * k + 1, k + m :] = self.e
        self.A_ub = A_ub
        self.objective = np.zeros(k + m + n)
        self.objective[:k] = 1.0
        self.tableau = Tableau(A_ub, self.objective)

    def instance(self, c: float) -> CutLpInstance:
        assert c > 0
        k = len(self.nnz)
        rc = math.sqrt(c)
        level_cap = max(rc / self.d.min(), 1.0 / (rc * self.e.min()))
        L = self.abs_entries * level_cap
        b_ub = np.empty(2 * k + 2)
        b_ub[0 : 2 * k : 2] = L
        b_ub[1 : 2 * k : 2] = L
        b_ub[2 * k] = rc
        b_ub[2 * k + 1] = 1.0 / rc
        return CutLpInstance(float(c), self.sign, self.matrix, self.d, self.e, self.nnz,
                             self.A_ub, b_ub, self.objective, float(L.sum()), self.tableau)


def build_cut_lp(A, d_left, d_right, c: float, sign: int = 1) -> CutLpInstance:
    """One relaxation with a tableau of its own, so it is solved cold."""
    return _CutLpFamily(A, d_left, d_right, sign).instance(c)


def solve_cut_lp(inst: CutLpInstance) -> dict:
    """Solve one instance; returns levels, per-entry x, and the objective."""
    k = len(inst.nnz)
    m = inst.d_left.shape[0]
    xfull, raw = inst.tableau.solve(inst.b_ub)
    s = xfull[k : k + m].copy()
    t = xfull[k + m :].copy()
    x = xfull[:k] - inst.b_ub[0 : 2 * k : 2]  # x = y - L entrywise
    return {
        "c": inst.c,
        "sign": inst.sign,
        "s": s,
        "t": t,
        "x": dict(zip(inst.nnz, x.tolist())),
        "objective": float(raw - inst.shift_total),
    }


def lp_round(A, d_left, d_right, s, t, tol: Tolerance | None = None) -> CutPair:
    """Threshold rounding of LP levels into a rectangle.

    Scans the sets ``S(r) = {i : s_i >= r}``, ``T(r) = {j : t_j >= r}`` over
    every level appearing in the solution and returns the best normalized
    rectangle; the null pair (value 0) is returned when every level vanishes.
    An averaging argument over the levels guarantees the result is at least
    the LP objective for the instance the levels solve.
    """
    A = as_matrix(A)
    m, n = A.shape
    d = as_weights(d_left, m)
    e = as_weights(d_right, n)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    levels = np.unique(np.concatenate([s[s > 1e-12], t[t > 1e-12]]))[::-1]
    best: CutPair = CutPair((), (), 0.0)
    best_val = 0.0
    for r in levels:
        S = np.nonzero(s >= r)[0]
        T = np.nonzero(t >= r)[0]
        if S.size == 0 or T.size == 0:
            continue
        val = rectangle_sum(A, S, T) / math.sqrt(d[S].sum() * e[T].sum())
        if val > best_val:
            best_val = val
            best = CutPair(tuple(int(i) for i in S), tuple(int(j) for j in T), float(val))
    return best


@lru_cache(maxsize=128)
def ratio_candidates(sum_left: int, sum_right: int) -> tuple:
    """All reduced fractions a/b with 1 <= a <= sum_left, 1 <= b <= sum_right."""
    assert sum_left >= 1 and sum_right >= 1
    fracs = {Fraction(a, b) for a in range(1, sum_left + 1) for b in range(1, sum_right + 1)}
    return tuple(float(f) for f in sorted(fracs))


def lp_candidates(A, d_left, d_right, cs):
    """Build, solve, and round one LP per (ratio, sign); yields records.

    The grid is solved as one warm chain per sign: the constraint matrix and
    objective are built once per sign, and each ratio only changes the
    right-hand side of that sign's tableau, which a dual simplex repairs
    from the previous optimal basis.  Records come in the order of ``cs``,
    the positive sign first.

    Each record carries the solved instance data and two rounded pairs: the
    one on the signed matrix (whose value obeys the rounding guarantee) and
    the same sets re-signed as a rectangle of ``A`` itself.
    """
    families = [_CutLpFamily(A, d_left, d_right, sign) for sign in (1, -1)]
    for c in cs:
        for family in families:
            inst = family.instance(c)
            sign = inst.sign
            sol = solve_cut_lp(inst)
            rounded = lp_round(inst.matrix, d_left, d_right, sol["s"], sol["t"])
            if rounded.S:
                pair = CutPair(rounded.S, rounded.T, sign * rounded.value)
            else:
                pair = rounded
            yield {
                "c": c,
                "sign": sign,
                "instance": inst,
                "objective": sol["objective"],
                "s": sol["s"],
                "t": sol["t"],
                "rounded": rounded,
                "pair": pair,
            }


# ---------------------------------------------------------------------------
# exact completion: enumerate one side, knapsack the other
# ---------------------------------------------------------------------------


def _knapsack_table(g, w, W: int) -> np.ndarray:
    """table[k, a] = max sum of g over subsets of the first k items with
    weight exactly a (-inf when unreachable)."""
    k = len(g)
    table = np.full((k + 1, W + 1), -np.inf)
    table[0, 0] = 0.0
    for i in range(1, k + 1):
        table[i] = table[i - 1]
        wi = w[i - 1]
        cand = table[i - 1, : W + 1 - wi] + g[i - 1]
        table[i, wi:] = np.maximum(table[i, wi:], cand)
    return table


def _backtrack_set(g, w, a: int, W: int) -> list:
    table = _knapsack_table(g, w, W)
    assert np.isfinite(table[len(g), a])
    out = []
    for i in range(len(g), 0, -1):
        if table[i, a] == table[i - 1, a]:
            continue  # prefer exclusion: smaller masks on ties
        out.append(i - 1)
        a -= w[i - 1]
    assert a == 0
    return sorted(out)


def exact_completion(A, d_left, d_right, atol: float = 1e-9, cap: int = COMPLETION_CAP) -> list:
    """Exact normalized-rectangle candidates, immune to entry signs.

    Enumerates every nonempty subset on the side with fewer indices and, for
    the other side, solves a weight-exact knapsack per achievable weight sum
    (this is where integer weights are required).  Returns every rectangle
    within ``atol`` of the best absolute value, as CutPairs of ``A``.
    """
    A = as_matrix(A)
    m, n = A.shape
    d = as_weights(d_left, m)
    e = as_weights(d_right, n)
    flip = m < n  # enumerate the smaller side as "columns"
    B, dd, ee = (A.T, e, d) if flip else (A, d, e)
    if B.shape[1] > cap:
        return []
    if not np.all(dd == np.round(dd)):
        return []
    w = [int(v) for v in dd]
    W = sum(w)
    U = subset_indicators(B.shape[1])
    G = B @ U.T  # per-row sums over every column subset
    eT = U @ ee
    nT = U.shape[0]
    dpmax = np.full((nT, W + 1), -np.inf)
    dpmin = np.full((nT, W + 1), np.inf)
    dpmax[:, 0] = 0.0
    dpmin[:, 0] = 0.0
    for i in range(B.shape[0]):
        wi = w[i]
        gi = G[i][:, None]
        dpmax[:, wi:] = np.maximum(dpmax[:, wi:], dpmax[:, : W + 1 - wi] + gi)
        dpmin[:, wi:] = np.minimum(dpmin[:, wi:], dpmin[:, : W + 1 - wi] + gi)
    denom = np.sqrt(np.arange(1, W + 1)[None, :] * eT[:, None])
    reach = np.isfinite(dpmax[:, 1:])
    hi = np.where(reach, dpmax[:, 1:] / denom, 0.0)
    lo = np.where(reach, dpmin[:, 1:] / denom, 0.0)
    magnitude = np.maximum(np.abs(hi), np.abs(lo))
    best = float(magnitude.max())
    out = []
    for t_idx, a_idx in np.argwhere(magnitude >= best - atol):
        a = int(a_idx) + 1
        T = _mask_set(int(t_idx) + 1)
        gcol = G[:, t_idx]
        for side_val, sgn in ((hi[t_idx, a_idx], 1.0), (lo[t_idx, a_idx], -1.0)):
            if abs(side_val) < best - atol:
                continue
            S = _backtrack_set(sgn * gcol, w, a, W)
            pair = (tuple(T), tuple(S)) if flip else (tuple(S), tuple(T))
            out.append(CutPair(pair[0], pair[1], rectangle_value(A, d, e, pair[0], pair[1])))
    return out


def _select_pair(pool, atol: float) -> CutPair:
    assert pool, "no candidate rectangles"
    best = max(abs(p.value) for p in pool)
    winners = [p for p in pool if abs(p.value) >= best - atol and p.S]
    if not winners:
        return CutPair((), (), 0.0)
    return min(winners, key=lambda p: p.masks())


def _integer_weights(d: np.ndarray, name: str) -> None:
    if not (np.all(d == np.round(d)) and np.all(d >= 1)):
        raise ValueError(f"{name} must be positive integers for the LP ratio enumeration")


def cut_lp_exact(A, d_left=None, d_right=None, tol: Tolerance | None = None, details: bool = False):
    """Maximize ``|A(S,T)| / sqrt(d(S) e(T))`` via the LP relaxation family.

    Solves one LP per reduced-fraction ratio candidate ``c = a/b`` (both
    signs of ``A``), rounds every solution, and finishes with the exact
    completion sweep; the best rectangle over all candidates is returned.
    Requires positive integer weights, and on a matrix with both signs the
    smaller side within ``COMPLETION_CAP`` (the completion closes the gap the
    relaxation leaves there); otherwise raises ``ValueError`` before any LP
    is solved.

    Parameters
    ----------
    A : array_like, shape (m, n)
    d_left, d_right : array_like, optional
        Positive integer weights; ``d_right`` defaults to ``d_left`` for
        square matrices.
    details : bool
        When true, also return a diagnostics dict (LP-only best value,
        number of LPs solved, completion candidate count).

    Returns
    -------
    CutPair, or (CutPair, dict) when ``details`` is set.
    """
    A = as_matrix(A)
    m, n = A.shape
    tol = tol or DEFAULT_TOL
    d = as_weights(d_left, m, "left weights")
    if d_right is None and m != n:
        raise ValueError("d_right is required for rectangular matrices")
    e = as_weights(d_right, n, "right weights") if d_right is not None else d
    _integer_weights(d, "left weights")
    _integer_weights(e, "right weights")
    if min(m, n) > COMPLETION_CAP and A.min() < 0 < A.max():
        raise ValueError(f"mixed-sign {m}x{n} matrix: the exact completion needs the "
                         f"smaller side within {COMPLETION_CAP}, and the LP relaxation "
                         "alone can undershoot")
    cs = ratio_candidates(int(d.sum()), int(e.sum()))
    pool = []
    lp_best = 0.0
    nsolved = 0
    for rec in lp_candidates(A, d, e, cs):
        nsolved += 1
        pool.append(rec["pair"])
        lp_best = max(lp_best, abs(rec["pair"].value))
    comp = exact_completion(A, d, e, tol.atol)
    pool.extend(comp)
    pair = _select_pair(pool, tol.atol)
    if details:
        return pair, {
            "lp_rounded_best": lp_best,
            "lp_count": nsolved,
            "ratio_count": len(cs),
            "completion_candidates": len(comp),
        }
    return pair


def cut_lp_approx(A, eps: float, d_left=None, d_right=None,
                  tol: Tolerance | None = None, details: bool = False):
    """Same pipeline as ``cut_lp_exact``, but the ratio candidates come from
    a geometric ``(1+eps)`` grid spanning every achievable ``d(S)/e(T)``.

    The returned value is at least ``exact / (1 + eps)`` whenever the
    completion sweep can run (integer weights), the matrix is enumerable
    (either side within the brute-force cap), or the entries are
    sign-consistent.  On mixed-sign matrices beyond those regimes the LP
    relaxation alone can lose more than the grid factor, because entries of
    the minority sign adjacent to the support enter the relaxation as forced
    penalties.
    """
    A = as_matrix(A)
    m, n = A.shape
    tol = tol or DEFAULT_TOL
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = as_weights(d_left, m, "left weights")
    if d_right is None and m != n:
        raise ValueError("d_right is required for rectangular matrices")
    e = as_weights(d_right, n, "right weights") if d_right is not None else d
    c_lo = float(d.min() / e.sum())
    c_hi = float(d.sum() / e.min())
    count = int(math.ceil(math.log(c_hi / c_lo) / math.log1p(eps))) if c_hi > c_lo else 0
    cs = [c_lo * (1.0 + eps) ** k for k in range(count + 1)]
    if cs[-1] < c_hi:
        cs.append(c_hi)
    pool = []
    lp_best = 0.0
    nsolved = 0
    for rec in lp_candidates(A, d, e, cs):
        nsolved += 1
        pool.append(rec["pair"])
        lp_best = max(lp_best, abs(rec["pair"].value))
    comp = []
    if np.all(d == np.round(d)) and np.all(e == np.round(e)):
        comp = exact_completion(A, d, e, tol.atol)
        pool.extend(comp)
    elif max(m, n) <= BRUTE_FORCE_CAP:
        pool.append(normalized_cut_bruteforce(A, d, e, tol=tol))
    pair = _select_pair(pool, tol.atol)
    if details:
        return pair, {
            "lp_rounded_best": lp_best,
            "lp_count": nsolved,
            "grid_size": len(cs),
            "completion_candidates": len(comp),
        }
    return pair


def cut_norm_lp_upper(A) -> float:
    """LP upper bound on the plain cut norm max |A(S,T)| (both signs).

    Uses the concave envelope of each bilinear term A_ij*s_i*t_j over the
    unit box (min of the two single-variable caps for positive entries, the
    shifted plane for negative ones).  The box maximum of the bilinear form
    is attained at 0/1 vertices, i.e. equals the cut norm, so the LP value
    can only overshoot; it never undershoots.  Intended as the size-capped
    fallback where enumeration is infeasible.
    """
    A = as_matrix(A)
    m, n = A.shape
    best = 0.0
    for sign in (1.0, -1.0):
        M = sign * A
        nz = [(i, j, float(M[i, j])) for i in range(m) for j in range(n) if M[i, j] != 0.0]
        k = len(nz)
        if k == 0:
            continue
        ncols = k + m + n
        rows = []
        rhs = []
        shift = 0.0
        for idx, (i, j, a) in enumerate(nz):
            if a > 0:
                row = np.zeros(ncols)
                row[idx] = 1.0
                row[k + i] = -a
                rows.append(row)
                rhs.append(0.0)
                row = np.zeros(ncols)
                row[idx] = 1.0
                row[k + m + j] = -a
                rows.append(row)
                rhs.append(0.0)
            else:
                # z' = z - a >= 0; z <= 0 and z <= a*(s+t-1)
                shift += a
                row = np.zeros(ncols)
                row[idx] = 1.0
                rows.append(row)
                rhs.append(-a)
                row = np.zeros(ncols)
                row[idx] = 1.0
                row[k + i] = -a
                row[k + m + j] = -a
                rows.append(row)
                rhs.append(-2.0 * a)
        for col in range(k, ncols):
            row = np.zeros(ncols)
            row[col] = 1.0
            rows.append(row)
            rhs.append(1.0)
        obj = np.zeros(ncols)
        obj[:k] = 1.0
        _, value = simplex_solve(np.array(rows), np.array(rhs), obj)
        best = max(best, value + shift)
    return best
