"""A small dense tableau simplex for the cut-maximization linear programs.

Solves  max c^T x  subject to  A x <= b,  x >= 0,  with b >= 0, so the slack
basis is feasible and no phase-one is needed.  The problems built by
``pvdkit.cutnorm`` are arranged to have this shape.

Pivoting uses Dantzig's rule (largest reduced cost) for speed and switches to
Bland's rule after a streak of degenerate pivots, which restores the
anti-cycling guarantee without paying Bland's price on every instance.

A ``Tableau`` keeps its last optimal basis, so a family of programs that
share ``A`` and ``c`` and differ only in ``b`` is solved as a parametric
right-hand side (Chvatal, *Linear Programming*, 1983, ch. 10): a new ``b``
leaves the reduced costs, hence dual feasibility, untouched, and a dual
simplex repairs the basic values that turned negative.  A stack of
right-hand sides is solved by basis segments (``Tableau.solve_chain``): the
kept basis's inverse and cost line are copied once, and each right-hand side
is priced against them once, in blocks that grow, by one stacked product per
block (one gemv per row, the bits of a single solve); the repair starts from
the prices of the row that ends a segment.
"""
from __future__ import annotations

import numpy as np

#: consecutive degenerate pivots tolerated before switching to Bland's rule
DEGENERATE_STREAK = 24

#: largest block of a basis segment priced and checked against ``A_ub`` at once
SEGMENT_ROWS = 256

#: pivot, feasibility and optimality tolerance
TOL = 1e-9

EPS = np.finfo(float).eps


class SimplexError(RuntimeError):
    pass


class Tableau:
    """Dense tableau of  max ``c @ x``  over  ``A_ub @ x <= b, x >= 0``  for
    a fixed ``(A_ub, c)``, solved for one right-hand side after another.

    The first right-hand side is solved by the primal simplex from the
    slack basis.  Later ones are solved by basis segments: the kept
    tableau's slack block (``B^-1``) and the cost line's slack block are
    copied once, and the following ``b`` are priced against them in blocks
    of ``SEGMENT_ROWS // 16`` rows, doubling up to ``SEGMENT_ROWS``, each by
    one stacked ``np.matmul``: one gemv per row, the kernel and operands of
    a single solve, so its basic values ``B^-1 b`` and its value keep their
    bits.  The segment ends at the first ``b`` with a basic value below
    ``-TOL``; the points before it are written with one scatter and checked
    against ``A_ub @ x <= b + TOL`` by one product per block, and a row that
    fails that check also ends it and is solved from the slack basis.  A
    row whose check the block product's rounding could decide otherwise is
    checked by the per-row product a single solve makes, so every decision
    is that of one solve per row.  From the prices of a row with a negative
    basic value, a dual simplex pivots until the basic values are
    nonnegative (leaving row: most negative value; entering column: least
    ``|reduced cost| / |entry|`` over the row's negative entries, smallest
    index on ties), and the primal loop confirms optimality.  When the
    repair runs out of entering columns or pivots, or the point violates
    ``A_ub @ x <= b + TOL`` or ``x >= -TOL``, the right-hand side is solved
    from the slack basis.  The primal ratio test runs over the rows with a
    positive entry in the entering column, and a pivot updates only the
    rows with a nonzero entry in the pivot column.

    ``pivots`` counts every pivot made, ``priced`` the right-hand sides the
    segments priced, ``cold_solves`` the solves that started from the slack
    basis, ``repairs`` the right-hand sides that took the dual repair, and
    ``bland_switches`` the primal solves that reached ``DEGENERATE_STREAK``
    degenerate pivots in a row.  Every test uses the tolerance ``TOL``; a
    run may make ``2000 + 50 (m + n)`` pivots.
    """

    def __init__(self, A_ub, c):
        self.A = np.asarray(A_ub, dtype=float)
        self.row_abs = np.abs(self.A).sum(axis=1)
        self.c = np.asarray(c, dtype=float)
        m, n = self.A.shape
        assert self.c.shape == (n,)
        self.max_iter = 2000 + 50 * (m + n)
        self.T = None
        self.basis = None
        self.pivots = 0
        self.priced = 0
        self.cold_solves = 0
        self.repairs = 0
        self.bland_switches = 0

    def solve(self, b_ub):
        """Optimal basic solution ``x`` and value ``c @ x`` for ``b_ub >= 0``:
        the one-row case of ``solve_chain``."""
        b = np.asarray(b_ub, dtype=float)
        assert b.shape == (self.A.shape[0],)
        xs, values = self.solve_chain(b[None, :])
        return xs[0], float(values[0])

    def solve_chain(self, bs):
        """Optimal points ``(N, n)`` and values ``(N,)`` for the right-hand
        sides ``bs`` ``(N, m)``, all ``>= 0``, solved in order."""
        bs = np.asarray(bs, dtype=float)
        m, n = self.A.shape
        assert bs.ndim == 2 and bs.shape[1] == m
        if np.any(bs < -TOL):
            raise SimplexError("negative right-hand side; slack basis infeasible")
        bs = np.maximum(bs, 0.0)
        xs = np.empty((len(bs), n))
        values = np.empty(len(bs))
        i = 0
        while i < len(bs):
            point = None
            if self.T is not None:
                i, repair = self._segment(bs, i, xs, values)
                if i == len(bs):
                    break
                if repair:
                    point = self._repair(bs[i])
            xs[i], values[i] = self._cold(bs[i]) if point is None else point
            i += 1
        return xs, values

    def _segment(self, bs, start: int, xs, values):
        """Solve the rows ``start, start+1, ...`` of ``bs`` that the kept
        basis still solves, into ``xs`` and ``values``.  Returns the first
        row it does not solve, or ``len(bs)``, and whether that row has a
        basic value below ``-TOL``; if so, the tableau is left priced for it."""
        T, tol = self.T, TOL
        m, n = self.A.shape
        inverse = T[:m, n : n + m].copy()
        cost = T[-1, n : n + m].copy()
        structural = np.flatnonzero(self.basis < n)
        columns = self.basis[structural]
        lo, size = start, max(1, SEGMENT_ROWS // 16)
        while lo < len(bs):
            hi = min(lo + size, len(bs))
            size = min(2 * size, SEGMENT_ROWS)
            self.priced += hi - lo
            stack = bs[lo:hi, :, None]
            rhs = np.matmul(inverse, stack)[..., 0]
            products = np.matmul(cost, stack)[:, 0]
            infeasible = np.flatnonzero(rhs.min(axis=1) < -tol)
            rows = stop = int(infeasible[0]) if infeasible.size else hi - lo
            block = np.zeros((rows, n))
            block[:, columns] = rhs[:rows, structural]
            limit = bs[lo : lo + rows] + tol
            # the block product rounds otherwise than the per-row product of a
            # single solve, by less than 2 (n + 1) eps |A_ub| |x|; wherever the
            # two may fall on different sides of the limit, the per-row
            # product decides; a scale beyond the float range puts every row
            # in doubt
            with np.errstate(over="ignore"):
                scale = np.outer(np.abs(block).max(axis=1, initial=0.0), self.row_abs)
                doubt = (np.abs(limit) + 3 * (n + 1) * scale) * EPS
            for r in np.flatnonzero(np.any(block @ self.A.T > limit - doubt, axis=1)).tolist():
                if np.any(self.A @ block[r] > limit[r]):
                    rows = r
                    break
            xs[lo : lo + rows] = block[:rows]
            values[lo : lo + rows] = -products[:rows]
            if lo + rows < hi:
                if rows == stop:
                    T[:m, -1], T[-1, -1] = rhs[rows], products[rows]
                return lo + rows, rows == stop
            lo = hi
        return lo, False

    def _cold(self, b):
        m, n = self.A.shape
        self.cold_solves += 1
        # tableau rows: constraints; columns: structural vars, slacks, rhs
        T = np.zeros((m + 1, n + m + 1))
        T[:m, :n] = self.A
        T[:m, n : n + m] = np.eye(m)
        T[:m, -1] = b
        T[-1, :n] = self.c  # reduced costs of the slack basis
        self.T = T
        self.basis = np.arange(n, n + m)
        try:
            self._primal(self.max_iter)
        except SimplexError:
            self.T = None
            raise
        return self._point()

    def _repair(self, b):
        """The point and value for ``b`` from the tableau priced for it, or
        None when the repair fails or the point is not feasible."""
        self.repairs += 1
        left = self._dual(self.max_iter)
        if left is None:
            return None
        try:
            self._primal(left)
        except SimplexError:
            return None
        x, value = self._point()
        if x.min(initial=0.0) < -TOL or np.any(self.A @ x > b + TOL):
            return None
        return x, value

    def _dual(self, budget: int):
        """Dual simplex until the basic values are nonnegative; the pivots
        left of ``budget``, or None when it fails."""
        T, tol = self.T, TOL
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
        T, tol, basis = self.T, TOL, self.basis
        m = self.A.shape[0]
        degenerate = 0
        switched = False
        for _ in range(budget):
            costs = T[-1, :-1]
            if degenerate < DEGENERATE_STREAK:
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
                j = int(pos[0])  # Bland: smallest index

            col = T[:m, j]
            rows = np.flatnonzero(col > tol)
            if rows.size == 0:
                raise SimplexError("objective unbounded above")
            ratios = T[rows, -1] / col[rows]
            ties = rows[ratios <= ratios.min() + tol]
            i = int(ties[basis[ties].argmin()])  # smallest basic index on ties

            if T[i, -1] <= tol:
                degenerate += 1
            else:
                degenerate = 0
            self._pivot(i, j)
        raise SimplexError(f"no optimum within {budget} pivots")

    def _pivot(self, i: int, j: int) -> None:
        T = self.T
        T[i] /= T[i, j]
        rows = np.flatnonzero(T[:, j])
        rows = rows[rows != i]
        T[rows] -= T[rows, j, None] * T[i]
        T[:, j] = 0.0  # keep the pivot column exactly unit
        T[i, j] = 1.0
        self.basis[i] = j
        self.pivots += 1

    def _point(self):
        m, n = self.A.shape
        x = np.zeros(n + m)
        x[self.basis] = self.T[:m, -1]
        return x[:n], float(-self.T[-1, -1])


def simplex_solve(A_ub, b_ub, c):
    """Maximize ``c @ x`` over ``A_ub @ x <= b_ub, x >= 0`` (``b_ub >= 0``).

    Parameters
    ----------
    A_ub : (m, n) array_like
    b_ub : (m,) array_like, nonnegative
    c : (n,) array_like

    Returns
    -------
    x : (n,) ndarray
        An optimal basic feasible solution.
    value : float
        The optimal objective value.
    """
    return Tableau(A_ub, c).solve(b_ub)
