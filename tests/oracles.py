"""Brute-force reference computations for the test suite.

Everything here is written for clarity, not speed: plain Python loops over
index subsets, no code shared with the package under test.  Derived expected
values in the tests come from these functions.
"""
from __future__ import annotations

import itertools
import math

import numpy as np


def nonempty_subsets(n: int) -> list:
    out = []
    for k in range(1, n + 1):
        out.extend(itertools.combinations(range(n), k))
    return out


def rect_sum(A, S, T) -> float:
    total = 0.0
    for i in S:
        for j in T:
            total += float(A[i, j])
    return total


def weighted_rect_value(A, d, e, S, T) -> float:
    return rect_sum(A, S, T) / math.sqrt(sum(float(d[i]) for i in S)
                                         * sum(float(e[j]) for j in T))


def cut_pnorm_max(A, d=None, e=None) -> float:
    """max over nonempty S, T of |A(S,T)| / sqrt(d(S) e(T))."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    d = np.ones(m) if d is None else np.asarray(d, dtype=float)
    e = np.ones(n) if e is None else np.asarray(e, dtype=float)
    best = 0.0
    for S in nonempty_subsets(m):
        for T in nonempty_subsets(n):
            best = max(best, abs(weighted_rect_value(A, d, e, S, T)))
    return best


def best_signed_pair(A, d=None, e=None, sign: int = 1):
    """(S, T, value) maximizing sign * A(S,T) / sqrt(d(S) e(T))."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    d = np.ones(m) if d is None else np.asarray(d, dtype=float)
    e = np.ones(n) if e is None else np.asarray(e, dtype=float)
    best = -math.inf
    arg = None
    for S in nonempty_subsets(m):
        for T in nonempty_subsets(n):
            v = sign * weighted_rect_value(A, d, e, S, T)
            if v > best:
                best = v
                arg = (S, T)
    return arg[0], arg[1], best


def plain_cutnorm(A) -> float:
    """max over nonempty S, T of |A(S,T)|."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    best = 0.0
    for S in nonempty_subsets(m):
        for T in nonempty_subsets(n):
            best = max(best, abs(rect_sum(A, S, T)))
    return best


def maxcut_value(A) -> float:
    """max over vertex sets S of A(S, complement of S)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    best = 0.0
    for S in nonempty_subsets(n):
        Sc = [i for i in range(n) if i not in S]
        if Sc:
            best = max(best, rect_sum(A, S, Sc))
    return best


def weighted_frob(X, d=None, e=None) -> float:
    X = np.asarray(X, dtype=float)
    m, n = X.shape
    d = np.ones(m) if d is None else np.asarray(d, dtype=float)
    e = np.ones(n) if e is None else np.asarray(e, dtype=float)
    total = 0.0
    for i in range(m):
        for j in range(n):
            total += X[i, j] ** 2 / (d[i] * e[j])
    return math.sqrt(total)


def cut_atom_matrix(m, n, d=None, e=None) -> np.ndarray:
    """Rows: flattened whitened cut atoms, one per (S, T) pair."""
    d = np.ones(m) if d is None else np.asarray(d, dtype=float)
    e = np.ones(n) if e is None else np.asarray(e, dtype=float)
    rows = []
    for S in nonempty_subsets(m):
        for T in nonempty_subsets(n):
            u = np.zeros(m)
            z = np.zeros(n)
            for i in S:
                u[i] = math.sqrt(d[i])
            for j in T:
                z[j] = math.sqrt(e[j])
            u /= math.sqrt(sum(d[i] for i in S))
            z /= math.sqrt(sum(e[j] for j in T))
            rows.append(np.outer(u, z).ravel())
    return np.stack(rows)


def dense_projection_norm(A, d=None, e=None) -> float:
    """Frobenius norm of the least-squares projection of the whitened matrix
    onto the span of every whitened cut atom."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    d = np.ones(m) if d is None else np.asarray(d, dtype=float)
    e = np.ones(n) if e is None else np.asarray(e, dtype=float)
    G = cut_atom_matrix(m, n, d, e)
    target = (A / np.sqrt(np.outer(d, e))).ravel()
    coef, *_ = np.linalg.lstsq(G.T, target, rcond=None)
    return float(np.linalg.norm(G.T @ coef))


def tensor_rect_sum(T, subsets) -> float:
    total = 0.0
    for idx in itertools.product(*subsets):
        total += float(T[idx])
    return total


def tensor_pnorm_max(T, weights=None) -> float:
    """max over tuples of nonempty per-mode subsets of the normalized sum."""
    T = np.asarray(T, dtype=float)
    if weights is None:
        weights = [np.ones(dim) for dim in T.shape]
    best = 0.0
    for subsets in itertools.product(*(nonempty_subsets(dim) for dim in T.shape)):
        denom = 1.0
        for w, S in zip(weights, subsets):
            denom *= sum(float(w[i]) for i in S)
        best = max(best, abs(tensor_rect_sum(T, subsets)) / math.sqrt(denom))
    return best


def subset_matrix(n: int) -> np.ndarray:
    """0/1 indicator rows for every nonempty subset of range(n), mask order."""
    masks = np.arange(1, 2 ** n)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(float)


def cut_pnorm_max_fast(A, d=None, e=None) -> float:
    """Vectorized version of ``cut_pnorm_max`` for the bigger replay loops."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    d = np.ones(m) if d is None else np.asarray(d, dtype=float)
    e = np.ones(n) if e is None else np.asarray(e, dtype=float)
    U = subset_matrix(m)
    V = subset_matrix(n)
    denom = np.sqrt(np.outer(U @ d, V @ e))
    return float(np.max(np.abs(U @ A @ V.T) / denom))


def plain_cutnorm_fast(A) -> float:
    A = np.asarray(A, dtype=float)
    U = subset_matrix(A.shape[0])
    V = subset_matrix(A.shape[1])
    return float(np.max(np.abs(U @ A @ V.T)))


def table_witness(A, d=None, e=None, atol: float = 1e-9):
    """(S, T, value) read off the dense (S mask, T mask) table: the first
    entry in row-major order within ``atol`` of the largest absolute value.
    Plain sums ``A(S,T)`` when both weight vectors are None, normalized
    values otherwise."""
    A = np.asarray(A, dtype=float)
    U = subset_matrix(A.shape[0])
    V = subset_matrix(A.shape[1])
    table = U @ A @ V.T
    if d is not None or e is not None:
        d = np.ones(A.shape[0]) if d is None else np.asarray(d, dtype=float)
        e = np.ones(A.shape[1]) if e is None else np.asarray(e, dtype=float)
        table = table / np.sqrt(np.outer(U @ d, V @ e))
    mags = np.abs(table)
    i, j = np.argwhere(mags >= mags.max() - atol)[0]
    S = tuple(int(k) for k in np.nonzero(U[i])[0])
    T = tuple(int(k) for k in np.nonzero(V[j])[0])
    return S, T, float(table[i, j])


def plain_pick(A, atol: float = 1e-9) -> tuple:
    """(S, T, value, best) of the plain form by the sweep over every row set
    at once: a row set's best is the larger of its positive and negative
    supports' sums, each summed entry by entry; ``best`` is their maximum,
    ``S`` the first row set within ``atol`` of it, and ``T`` the first
    column set within ``atol`` of the largest of that row's ``2^n``
    column-set sums, which gives ``value``."""
    A = np.asarray(A, dtype=float)
    U, V = subset_matrix(A.shape[0]), subset_matrix(A.shape[1])
    R = U @ A
    v = np.maximum(np.where(R > 0, R, 0.0).sum(axis=1), -np.where(R < 0, R, 0.0).sum(axis=1))
    best = float(v.max())
    s = int(np.argmax(v >= best - atol))
    row = V @ R[s]
    mags = np.abs(row)
    t = int(np.argmax(mags >= min(best, float(mags.max())) - atol))
    return (tuple(int(k) for k in np.nonzero(U[s])[0]),
            tuple(int(k) for k in np.nonzero(V[t])[0]), float(row[t]), best)


def completion_pool(A, d, e, atol: float = 1e-9) -> list:
    """(S, T, value, sweep value) of every rectangle the row-set sweep over
    the smaller side finds within ``atol`` of its best value: each prefix
    and suffix of a swept set's sorted other side whose sweep value is
    within ``atol`` in magnitude, in row-set order, prefixes first, shortest
    first.  Unpruned, with the same float operations as the package's sweep
    (the sweep value keeps its sign), and each rectangle valued as
    ``rectangle_value`` values it, so the values compare bitwise (NaN where
    the product of the weight sums underflows to 0)."""
    A = np.asarray(A, dtype=float)
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    flip = A.shape[0] > A.shape[1]
    B, dd, ee = (A.T, e, d) if flip else (A, d, e)
    U = subset_matrix(B.shape[0])
    R = U @ B
    order = np.argsort(R / ee, axis=1)
    Rs = np.take_along_axis(R, order, axis=1)
    Es = ee[order]
    low = np.cumsum(Rs, axis=1) / np.sqrt(np.cumsum(Es, axis=1))
    high = np.cumsum(Rs[:, ::-1], axis=1) / np.sqrt(np.cumsum(Es[:, ::-1], axis=1))
    wS = np.sqrt(U @ dd)
    best = float((np.maximum(np.abs(low).max(axis=1), np.abs(high).max(axis=1)) / wS).max())
    out = []
    for s, o in enumerate(order):
        swept = tuple(int(k) for k in np.nonzero(U[s])[0])
        k_all = range(len(o))
        sides = [(o[: k + 1], low[s, k] / wS[s]) for k in k_all]
        sides += [(o[len(o) - 1 - k :], high[s, k] / wS[s]) for k in k_all]
        for side, sweep in sides:
            if abs(sweep) < best - atol:
                continue
            other = tuple(sorted(int(j) for j in side))
            S, T = (other, swept) if flip else (swept, other)
            denom = math.sqrt(d[list(S)].sum() * e[list(T)].sum())
            value = float(A[np.ix_(S, T)].sum()) / denom if denom else math.nan
            out.append((S, T, value, float(sweep)))
    return out


def completion_pairs(A, d, e, atol: float = 1e-9) -> list:
    """(S, T, value) of the rectangles ``exact_completion`` returns, picked
    from the whole ``completion_pool``: the first with the largest sweep
    value in magnitude, then ``completion_pick``, once each when both the
    rectangle and the sweep value coincide."""
    pool = completion_pool(A, d, e, atol)
    top = max(pool, key=lambda c: abs(c[3]))
    return [c[:3] for c in dict.fromkeys([top, completion_pick(pool)])]


def completion_pick(pool) -> tuple:
    """The first entry of a ``completion_pool`` with the smallest (S mask,
    T mask): the exact cut step's tie rule."""
    return min(pool, key=lambda c: (mask(c[0]), mask(c[1])))


def mask(indices) -> int:
    return sum(1 << int(i) for i in indices)


def maxcut_value_fast(A) -> float:
    A = np.asarray(A, dtype=float)
    U = subset_matrix(A.shape[0])
    return float(np.max(np.einsum("si,ij,sj->s", U, A, 1.0 - U)))


def linprog_max(A_ub, b_ub, c):
    """Independent LP solve (max c.x, A x <= b, x >= 0) via scipy."""
    from scipy.optimize import linprog

    res = linprog(-np.asarray(c, dtype=float), A_ub=A_ub, b_ub=b_ub,
                  bounds=(0, None), method="highs")
    assert res.status == 0, f"scipy linprog failed: {res.message}"
    return res.x, -res.fun


class ReferenceSimplexError(RuntimeError):
    pass


class ReferenceTableau:
    """The tableau simplex with one warm solve per right-hand side, frozen
    as the reference: every row of a chain goes through ``_warm`` on its own
    (reprice, dual repair, per-row feasibility checks), a pivot updates only
    the rows with a nonzero multiplier, and the primal ratio test gathers
    the rows with a positive entry.  ``pvdkit.simplex.Tableau`` (segment
    pricing, rank-one pivots, a masked ratio test) must give its points,
    values and counters bit for bit."""

    DEGENERATE_STREAK = 24

    def __init__(self, A_ub, c, tol: float = 1e-9):
        self.A = np.asarray(A_ub, dtype=float)
        self.c = np.asarray(c, dtype=float)
        m, n = self.A.shape
        self.tol = tol
        self.max_iter = 2000 + 50 * (m + n)
        self.T = None
        self.basis = None
        self.pivots = self.cold_solves = self.repairs = self.bland_switches = 0

    def solve(self, b):
        xs, values = self.solve_chain(np.asarray(b, dtype=float)[None, :])
        return xs[0], float(values[0])

    def solve_chain(self, bs):
        bs = np.asarray(bs, dtype=float)
        if np.any(bs < -self.tol):
            raise ReferenceSimplexError("negative right-hand side; slack basis infeasible")
        xs = np.empty((len(bs), self.A.shape[1]))
        values = np.empty(len(bs))
        for i, b in enumerate(np.maximum(bs, 0.0)):
            point = None if self.T is None else self._warm(b)
            xs[i], values[i] = self._cold(b) if point is None else point
        return xs, values

    def _cold(self, b):
        m, n = self.A.shape
        self.cold_solves += 1
        T = np.zeros((m + 1, n + m + 1))
        T[:m, :n] = self.A
        T[:m, n:n + m] = np.eye(m)
        T[:m, -1] = b
        T[-1, :n] = self.c
        self.T = T
        self.basis = np.arange(n, n + m)
        try:
            self._primal(self.max_iter)
        except ReferenceSimplexError:
            self.T = None
            raise
        return self._point()

    def _warm(self, b):
        T = self.T
        m, n = self.A.shape
        slack = slice(n, n + m)
        T[:m, -1] = T[:m, slack] @ b
        T[-1, -1] = T[-1, slack] @ b
        if T[:m, -1].min() < -self.tol:
            self.repairs += 1
            left = self._dual(self.max_iter)
            if left is None:
                return None
            try:
                self._primal(left)
            except ReferenceSimplexError:
                return None
        x, value = self._point()
        if x.min(initial=0.0) < -self.tol or np.any(self.A @ x > b + self.tol):
            return None
        return x, value

    def _dual(self, budget: int):
        T, tol = self.T, self.tol
        m = self.A.shape[0]
        for used in range(budget + 1):
            rhs = T[:m, -1]
            i = int(rhs.argmin())
            if rhs[i] >= -tol:
                return budget - used
            if used == budget:
                return None
            row = T[i, :-1]
            cols = np.flatnonzero(row < -tol)
            if cols.size == 0:
                return None
            ratios = np.abs(T[-1, cols]) / -row[cols]
            j = int(cols[int((ratios <= ratios.min() + tol).argmax())])
            self._pivot(i, j)
        return None

    def _primal(self, budget: int) -> None:
        T, tol, basis = self.T, self.tol, self.basis
        m = self.A.shape[0]
        degenerate = 0
        switched = False
        for _ in range(budget):
            costs = T[-1, :-1]
            if degenerate < self.DEGENERATE_STREAK:
                j = int(costs.argmax())
                if costs[j] <= tol:
                    return
            else:
                if not switched:
                    switched = True
                    self.bland_switches += 1
                pos = np.flatnonzero(costs > tol)
                if pos.size == 0:
                    return
                j = int(pos[0])
            col = T[:m, j]
            rows = np.flatnonzero(col > tol)
            if rows.size == 0:
                raise ReferenceSimplexError("objective unbounded above")
            ratios = T[rows, -1] / col[rows]
            ties = rows[ratios <= ratios.min() + tol]
            i = int(ties[basis[ties].argmin()])
            if T[i, -1] <= tol:
                degenerate += 1
            else:
                degenerate = 0
            self._pivot(i, j)
        raise ReferenceSimplexError(f"no optimum within {budget} pivots")

    def _pivot(self, i: int, j: int) -> None:
        T = self.T
        T[i] /= T[i, j]
        rows = np.flatnonzero(T[:, j])
        rows = rows[rows != i]
        T[rows] -= T[rows, j, None] * T[i]
        T[:, j] = 0.0
        T[i, j] = 1.0
        self.basis[i] = j
        self.pivots += 1

    def _point(self):
        m, n = self.A.shape
        x = np.zeros(n + m)
        x[self.basis] = self.T[:m, -1]
        return x[:n], float(-self.T[-1, -1])


def cut_lp_rows(B, d, e):
    """Constraint rows, objective and nonzero entries ``(i, j)`` (row-major)
    of the shifted cut relaxation of the signed matrix ``B``: per entry,
    ``y_ij - B_ij s_i <= L_ij`` and ``y_ij - B_ij t_j <= L_ij``, then
    ``d.s <= sqrt(c)`` and ``e.t <= 1/sqrt(c)``; maximize ``sum y``."""
    m, n = B.shape
    nnz = [(i, j) for i in range(m) for j in range(n) if B[i, j] != 0.0]
    k = len(nnz)
    A_ub = np.zeros((2 * k + 2, k + m + n))
    for r, (i, j) in enumerate(nnz):
        A_ub[2 * r, r] = A_ub[2 * r + 1, r] = 1.0
        A_ub[2 * r, k + i] = A_ub[2 * r + 1, k + m + j] = -B[i, j]
    A_ub[2 * k, k:k + m] = d
    A_ub[2 * k + 1, k + m:] = e
    objective = np.zeros(k + m + n)
    objective[:k] = 1.0
    return A_ub, objective, nnz


def cut_lp_rhs(B, d, e, nnz, c):
    """Right-hand side of the relaxation of ``cut_lp_rows`` at ratio ``c``,
    and its shift total ``sum L``."""
    k = len(nnz)
    rc = math.sqrt(c)
    L = np.abs(np.array([B[i, j] for i, j in nnz])) * max(rc / d.min(), 1.0 / (rc * e.min()))
    b = np.empty(2 * k + 2)
    b[0:2 * k:2] = b[1:2 * k:2] = L
    b[2 * k], b[2 * k + 1] = rc, 1.0 / rc
    return b, float(L.sum())


def lp_candidates_sequential(A, d, e, cs) -> list:
    """The records of ``cutnorm.lp_candidates``, one LP at a time: each
    ratio's right-hand side built on its own, one ``ReferenceTableau.solve``
    per ratio on a warm tableau per sign, and a scan over every distinct
    level with the package's per-rectangle arithmetic (``np.ix_`` sums), so
    the results match bit for bit.  Records are dicts with ``c``, ``sign``,
    ``b_ub``, ``shift_total``, ``objective``, ``s``, ``t`` and ``rounded``
    as ``(S, T, value)``."""
    A = np.asarray(A, dtype=float)
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    m, n = A.shape
    chains = {}
    for sign in (1, -1):
        B = sign * A
        A_ub, objective, nnz = cut_lp_rows(B, d, e)
        chains[sign] = (B, nnz, ReferenceTableau(A_ub, objective))
    out = []
    for c in cs:
        for sign in (1, -1):
            B, nnz, tableau = chains[sign]
            k = len(nnz)
            b, shift = cut_lp_rhs(B, d, e, nnz, c)
            x, raw = tableau.solve(b)
            s, t = x[k:k + m], x[k + m:]
            out.append({"c": c, "sign": sign, "b_ub": b, "shift_total": shift,
                        "objective": float(raw - shift), "s": s, "t": t,
                        "rounded": level_scan(B, d, e, s, t)})
    return out


def level_scan(B, d, e, s, t) -> tuple:
    """``(S, T, value)`` of the threshold rounding of the levels ``s``,
    ``t``: every distinct level above 1e-12 in decreasing order, the first
    strict maximum above 0 of the package's per-rectangle arithmetic."""
    levels = np.unique(np.concatenate([s[s > 1e-12], t[t > 1e-12]]))[::-1]
    rounded, best = ((), (), 0.0), 0.0
    for r in levels:
        S, T = np.nonzero(s >= r)[0], np.nonzero(t >= r)[0]
        if S.size and T.size:
            val = float(B[np.ix_(S, T)].sum()) / math.sqrt(d[S].sum() * e[T].sum())
            if val > best:
                best = val
                rounded = (tuple(S.tolist()), tuple(T.tolist()), val)
    return rounded


def set_partitions(items):
    """All partitions of a list, as lists of lists (recursive)."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for k in range(len(smaller)):
            yield smaller[:k] + [[head] + smaller[k]] + smaller[k + 1:]
        yield [[head]] + smaller


def block_mean_matrix(A, parts) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    out = np.zeros_like(A)
    for P in parts:
        for Q in parts:
            vals = [A[i, j] for i in P for j in Q]
            mean = sum(vals) / len(vals)
            for i in P:
                for j in Q:
                    out[i, j] = mean
    return out


def block_spread(M, parts) -> float:
    """Largest max-minus-min of ``M`` within one block."""
    worst = 0.0
    for P in parts:
        for Q in parts:
            vals = [float(M[i, j]) for i in P for j in Q]
            worst = max(worst, max(vals) - min(vals))
    return worst


def max_cut_split(approx, parts, delta: float, split_cap: int) -> tuple:
    """(counts, bipartition, estimate) of the max-cut split search on the
    block-constant ``approx``, as two best-so-far loops: every count vector
    when the count space is within ``split_cap``, else the ``delta`` grid
    of split fractions, floored and then rounded up greedily by gain.  The
    first strictly better split wins."""
    parts = [tuple(P) for P in parts]
    sizes = np.array([len(P) for P in parts])
    p = len(parts)
    means = np.zeros((p, p))
    for a, P in enumerate(parts):
        for b, Q in enumerate(parts):
            means[a, b] = approx[np.ix_(P, Q)].mean()

    def split_value(counts) -> float:
        return float(counts @ means @ (sizes - counts))

    total_splits = 1
    for sz in sizes:
        total_splits *= int(sz) + 1
    best_counts = None
    best_val = -math.inf
    if total_splits <= split_cap:
        for counts in itertools.product(*(range(sz + 1) for sz in sizes)):
            v = split_value(np.array(counts))
            if v > best_val:
                best_val = v
                best_counts = counts
    else:
        fracs = np.arange(0.0, 1.0 + delta / 2.0, delta)
        if fracs[-1] < 1.0:
            fracs = np.append(fracs, 1.0)
        for point in itertools.product(fracs, repeat=p):
            counts = np.floor(np.array(point) * sizes).astype(int)
            leftovers = [a for a in range(p)
                         if counts[a] < sizes[a] and point[a] * sizes[a] - counts[a] > 1e-12]
            while leftovers:
                gains = []
                base_val = split_value(counts)
                for a in leftovers:
                    trial = counts.copy()
                    trial[a] += 1
                    gains.append((split_value(trial) - base_val, a))
                gains.sort(key=lambda g: (-g[0], g[1]))
                if gains[0][0] <= 0:
                    break
                counts[gains[0][1]] += 1
                leftovers.remove(gains[0][1])
            v = split_value(counts)
            if v > best_val:
                best_val = v
                best_counts = tuple(int(c) for c in counts)
    X = []
    for a, P in enumerate(parts):
        X.extend(P[: best_counts[a]])
    X = tuple(sorted(X))
    Xc = tuple(i for i in range(approx.shape[0]) if i not in set(X))
    estimate = float(approx[np.ix_(X, Xc)].sum()) if X and Xc else 0.0
    return tuple(int(c) for c in best_counts), X, estimate


def gnp_adjacency(rng, n: int, p: float) -> np.ndarray:
    """Simple undirected G(n, p) adjacency matrix, zero diagonal."""
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                A[i, j] = A[j, i] = 1.0
    return A


def _oriented(x):
    """Flip ``x`` so that its first nonzero entry is positive."""
    for value in x:
        if value != 0.0:
            return -x if value < 0.0 else x
    return x


def column_row_pairs(A):
    """(keys, gram) of the column-row domain by the direct pairwise rule.

    Every (column j, row i) pair with both vectors nonzero is normalized and
    oriented; a pair is dropped when both of its vectors lie within 1e-12
    (max-abs) of the vectors of one pair kept before it, in (j, i) order.
    Rows of ``gram`` are the flattened outer products of the kept pairs.
    O((mn)^2) comparisons.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    kept = []
    for j in range(n):
        c = A[:, j]
        if np.linalg.norm(c) == 0.0:
            continue
        u = _oriented(c / np.linalg.norm(c))
        for i in range(m):
            r = A[i, :]
            if np.linalg.norm(r) == 0.0:
                continue
            z = _oriented(r / np.linalg.norm(r))
            if any(np.max(np.abs(u - u2)) <= 1e-12 and np.max(np.abs(z - z2)) <= 1e-12
                   for _, u2, z2 in kept):
                continue
            kept.append(((j, i), u, z))
    keys = [k for k, _, _ in kept]
    gram = (np.stack([np.outer(u, z).ravel() for _, u, z in kept]) if kept
            else np.zeros((0, A.size)))
    return keys, gram


def gram_max_step(keys, gram, resid, atol: float = 1e-9):
    """(key, value) of the first Gram row, in order, whose inner product with
    the flattened ``resid`` is within ``atol`` of the largest magnitude."""
    vals = gram @ np.asarray(resid, dtype=float).ravel()
    mags = np.abs(vals)
    idx = int(np.nonzero(mags >= mags.max() - atol)[0][0])
    return keys[idx], float(vals[idx])


def restricted_growth_strings(n: int, max_labels: int):
    """Every set partition of range(n) into at most ``max_labels`` parts, as
    label strings a with a[0] = 0 and a[i] <= max(a[:i]) + 1, in
    lexicographic order (recursive)."""
    labels = [0] * n

    def rec(i: int, top: int):
        if i == n:
            yield tuple(labels)
            return
        for c in range(min(top + 1, max_labels - 1) + 1):
            labels[i] = c
            yield from rec(i + 1, max(top, c))

    yield from rec(1, 0) if n > 1 else iter([(0,)])


def lp_regularity_scan(A, p: float, eta: float, mode: str = "exhaustive",
                       samples: int = 10_000, seed: int = 0) -> tuple:
    """(ratio, parts) of the worst block-density L_p ratio, one partition at
    a time: the per-partition scan that ``lp_upper_regularity_check`` must
    reproduce bitwise.  Exhaustive mode walks ``restricted_growth_strings``;
    sampled mode draws one ``rng.integers(0, q, size=n)`` labeling per
    sample.  The first strict maximum is kept."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    q = int(math.floor(1.0 / eta))
    mean_density = float(np.sum(A @ np.ones(n))) / n ** 2

    def ratio_of(labels) -> tuple:
        groups: dict = {}
        for v, c in enumerate(labels):
            groups.setdefault(c, []).append(v)
        parts = sorted((tuple(g) for g in groups.values()), key=lambda g: g[0])
        acc = 0.0
        for P in parts:
            row = A[list(P), :]
            for Q in parts:
                mass = float(row[:, list(Q)].sum())
                size = len(P) * len(Q)
                acc += (size / n ** 2) * (mass / size) ** p
        return acc ** (1.0 / p) / mean_density, parts

    if mode == "exhaustive":
        labelings = restricted_growth_strings(n, q)
    else:
        rng = np.random.default_rng(seed)
        labelings = (rng.integers(0, q, size=n).tolist() for _ in range(samples))
    best, witness = -math.inf, None
    for labels in labelings:
        val, parts = ratio_of(labels)
        if val > best:
            best, witness = val, parts
    return float(best), tuple(witness)
