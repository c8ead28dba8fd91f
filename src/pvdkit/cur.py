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
from .linalg import as_matrix, in_units, unit_atol, unit_scale
from .pvd import best_truncation, certificate, compute_pvd, p_norm


def cur_pvd(A, eps: float, atol: float | None = None):
    """Greedy column-row approximation with a restricted-norm guarantee.

    Runs ``ceil(eps**-2) + 1`` greedy steps over ``ColumnRowDomain(A)`` and
    returns ``(approx, result, cert)`` where ``approx`` is the best truncation
    at ``r = ceil(eps**-2)`` and ``cert`` the ``cur-chain`` certificate of the
    guarantee: for every column c and row w of ``A``, ``|c^T (A - approx) w|
    / (‖c‖‖w‖) <= eps * ‖A‖_F`` (up to roundoff, ``1e-9`` at unit scale).
    ``A`` runs at unit scale (``linalg.unit_scale``); all three are in its
    units.
    """
    A, k = unit_scale(as_matrix(A, "source"))
    if eps <= 0:
        raise ValueError("eps must be positive")
    domain = ColumnRowDomain(A)
    r = math.ceil(eps ** -2)
    result = compute_pvd(A, domain, max_terms=r + 1, atol=unit_atol(atol, k))
    approx, _index = best_truncation(result, r)
    resid = p_norm(A - approx, domain, result.atol)
    cert = certificate("cur-chain", resid, eps * float(la.norm(A)) + 1e-9)
    return np.ldexp(approx, -k), in_units(result, k, k), in_units(cert, k, k)
