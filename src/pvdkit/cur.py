"""Column-row decomposition: the greedy engine run over pairs drawn from the
matrix's own normalized columns and rows.

Unlike classical CUR constructions, the guarantee is in the column-row
restricted norm: after enough terms, no (column, row) pair of the source can
extract more than a small multiple of the Frobenius norm from the residual.
"""
from __future__ import annotations

import math

from .domains import ColumnRowDomain
from .linalg import as_matrix, stable_norm
from .pvd import best_truncation, certificate, compute_pvd, p_norm


def cur_pvd(A, eps: float, atol: float | None = None):
    """Greedy column-row approximation with a restricted-norm guarantee.

    Runs ``ceil(eps**-2) + 1`` greedy steps over ``ColumnRowDomain(A)`` and
    returns ``(approx, result, cert)`` where ``approx`` is the best truncation
    at ``r = ceil(eps**-2)`` and ``cert`` the ``cur-chain`` certificate of the
    guarantee: for every column c and row w of ``A``, ``|c^T (A - approx) w|
    / (‖c‖‖w‖) <= eps * ‖A‖_F`` (up to roundoff, an absolute ``1e-9``).
    ``atol`` goes to ``compute_pvd`` as it is.
    """
    A = as_matrix(A, "source")
    if eps <= 0:
        raise ValueError("eps must be positive")
    domain = ColumnRowDomain(A)
    r = math.ceil(eps ** -2)
    result = compute_pvd(A, domain, max_terms=r + 1, atol=atol)
    approx, _index = best_truncation(result, r)
    resid = p_norm(A - approx, domain, result.atol)
    cert = certificate("cur-chain", resid, eps * stable_norm(A) + 1e-9)
    return approx, result, cert
