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
simplex repairs the basic values that turned negative.  While the kept
basis stays feasible, a new ``b`` is only priced against it, so a stack of
right-hand sides is solved by basis segments (``Tableau.solve_chain``).
"""
from __future__ import annotations

import numpy as np

#: consecutive degenerate pivots tolerated before switching to Bland's rule
DEGENERATE_STREAK = 24


class SimplexError(RuntimeError):
    pass


class Tableau:
    """Dense tableau of  max ``c @ x``  over  ``A_ub @ x <= b, x >= 0``  for
    a fixed ``(A_ub, c)``, solved for one right-hand side after another.

    The first right-hand side is solved by the primal simplex from the
    slack basis.  A later one reprices the kept tableau for the new ``b``:
    the basic values are ``B^-1 b``, read off the tableau's slack block, and
    the value is the cost line's slack block times ``b``.  When they are
    nonnegative the kept basis is still optimal and no pivot loop runs, so a
    stack of right-hand sides (``solve_chain``; ``solve`` is its one-row
    case) is solved by basis segments.  Otherwise a dual simplex pivots
    until the basic values are nonnegative (leaving row: most negative
    value; entering column: least ``|reduced cost| / |entry|`` over the
    row's negative entries, smallest index on ties), and the primal loop
    confirms optimality.  When the repair runs out of entering columns or
    pivots, or the point violates ``A_ub @ x <= b + tol`` or ``x >= -tol``,
    the right-hand side is solved again from the slack basis.

    ``pivots`` counts every pivot made and ``cold_solves`` the solves that
    started from the slack basis.
    """

    def __init__(self, A_ub, c, tol: float = 1e-9, max_iter: int | None = None):
        self.A = np.asarray(A_ub, dtype=float)
        self.c = np.asarray(c, dtype=float)
        m, n = self.A.shape
        assert self.c.shape == (n,)
        self.tol = tol
        self.max_iter = 2000 + 50 * (m + n) if max_iter is None else max_iter
        self.T = None
        self.basis = None
        self.pivots = 0
        self.cold_solves = 0

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
        if np.any(bs < -self.tol):
            raise SimplexError("negative right-hand side; slack basis infeasible")
        xs = np.empty((len(bs), n))
        values = np.empty(len(bs))
        for i, b in enumerate(np.maximum(bs, 0.0)):
            point = None if self.T is None else self._warm(b)
            xs[i], values[i] = self._cold(b) if point is None else point
        return xs, values

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

    def _warm(self, b):
        T = self.T
        m, n = self.A.shape
        slack = slice(n, n + m)
        T[:m, -1] = T[:m, slack] @ b
        T[-1, -1] = T[-1, slack] @ b
        if T[:m, -1].min() < -self.tol:
            # the kept basis is no longer primal feasible: repair it
            left = self._dual(self.max_iter)
            if left is None:
                return None
            try:
                self._primal(left)
            except SimplexError:
                return None
        x, value = self._point()
        if x.min(initial=0.0) < -self.tol or np.any(self.A @ x > b + self.tol):
            return None
        return x, value

    def _dual(self, budget: int):
        """Dual simplex until the basic values are nonnegative; the pivots
        left of ``budget``, or None when it fails."""
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
        for _ in range(budget):
            costs = T[-1, :-1]
            if degenerate < DEGENERATE_STREAK:
                j = int(costs.argmax())
                if costs[j] <= tol:
                    return
            else:
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


def simplex_solve(A_ub, b_ub, c, tol: float = 1e-9, max_iter: int | None = None):
    """Maximize ``c @ x`` over ``A_ub @ x <= b_ub, x >= 0`` (``b_ub >= 0``).

    Parameters
    ----------
    A_ub : (m, n) array_like
    b_ub : (m,) array_like, nonnegative
    c : (n,) array_like
    tol : float
        Pivot / optimality tolerance.
    max_iter : int, optional
        Pivot budget; defaults to ``2000 + 50 * (m + n)``.

    Returns
    -------
    x : (n,) ndarray
        An optimal basic feasible solution.
    value : float
        The optimal objective value.
    """
    return Tableau(A_ub, c, tol, max_iter).solve(b_ub)
