"""Column-row decomposition: the greedy engine run over pairs drawn from the
matrix's own normalized columns and rows.

Unlike classical CUR constructions, the guarantee is in the column-row
restricted norm: after enough terms, no (column, row) pair of the source can
extract more than a small multiple of the Frobenius norm from the residual.
"""
from __future__ import annotations

import math

import numpy as np
import numpy.linalg as la

from .domains import ColumnRowDomain
from .linalg import Tolerance, as_matrix
from .pvd import PvdResult, best_truncation, compute_pvd, p_norm


def column_row_domain(A) -> ColumnRowDomain:
    """Domain of all (column/‖column‖, row/‖row‖) pairs of ``A``.

    Zero columns and rows are skipped, duplicate normalized pairs are merged;
    an all-zero matrix is rejected.
    """
    return ColumnRowDomain(as_matrix(A, "source"))


def cur_pvd(A, eps: float, tol: Tolerance | None = None):
    """Greedy column-row approximation with a restricted-norm guarantee.

    Runs ``ceil(eps**-2) + 1`` greedy steps over ``column_row_domain(A)`` and
    returns ``(approx, result)`` where ``approx`` is the best truncation at
    ``r = ceil(eps**-2)``.  For every column c and row w of ``A``,
    ``|c^T (A - approx) w| / (‖c‖‖w‖) <= eps * ‖A‖_F`` (up to roundoff).
    """
    A = as_matrix(A, "source")
    if eps <= 0:
        raise ValueError("eps must be positive")
    domain = column_row_domain(A)
    r = math.ceil(eps ** -2)
    result = compute_pvd(A, domain, max_terms=r + 1, tol=tol)
    approx, _index = best_truncation(result, r)
    resid = p_norm(A - approx, domain, result.tol)
    target = eps * float(la.norm(A))
    if not resid <= target + 1e-9:
        raise RuntimeError(f"column-row residual {resid} exceeds the guarantee {target}")
    return approx, result


def selected_indices(result: PvdResult) -> list:
    """(column, row) index pairs the greedy run picked, in order."""
    return [tuple(int(x) for x in key) for key in result.keys]
