"""Greedy rank-one decomposition for dense tensors.

The engine from ``pvd`` works on flattened whitened arrays, so everything
here just supplies the tensor-shaped cut domain: per-mode subset-indicator
tuples, for any number of modes (explicit vector tuples live in
``domains``).  The greedy rule maximizes the multilinear form of the
*residual* at each candidate tuple; because each new direction is
orthonormalized against the previous ones, this coincides with ranking
candidates by the size of the projection increment they would contribute,
and tests assert the two readings agree on every instance they can
enumerate.
"""
from __future__ import annotations

import math

import numpy as np

from .cutnorm import _mask_set
from .domains import FactorDomain
from .linalg import ATOL, as_tensor, as_weights, stable_norm
from .pvd import best_truncation, certificate, compute_pvd, p_norm, roundoff_slack, tail_rms

Array = np.ndarray

# Largest number of cut tuples: every CutTuples domain keeps one float per
# tuple (800 KB at the cap) as the value vector of its greedy step.
CUT_TUPLE_CAP = 100_000


def s_form(T, vectors) -> float:
    """Multilinear form: contract ``T`` with one vector per mode.

    Parameters
    ----------
    T : array_like
        Tensor with at least two modes.
    vectors : sequence of array_like
        One vector per mode, lengths matching ``T.shape``.
    """
    T = as_tensor(T, "tensor")
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if len(vectors) != T.ndim:
        raise ValueError(f"need {T.ndim} vectors, got {len(vectors)}")
    out = T
    for v in vectors:
        if v.shape != (out.shape[0],):
            raise ValueError("vector length does not match mode size")
        out = np.tensordot(out, v, axes=([0], [0]))
    return float(out)


class CutTuples(FactorDomain):
    """Per-mode nonempty-subset indicator tuples, whitened per-mode weights.

    Mode ``k`` contributes one normalized indicator row per nonempty subset,
    labelled by its bit mask.  ``CUT_TUPLE_CAP`` bounds the number of tuples,
    the length of the value vector the domain keeps for ``max_step``.
    """

    def __init__(self, weights):
        ws = [np.asarray(w, dtype=float) for w in weights]
        if len(ws) < 2:
            raise ValueError("need at least two modes")
        ws = [as_weights(w, w.shape[0], f"mode-{k} weights") for k, w in enumerate(ws)]
        total = math.prod(2 ** w.shape[0] - 1 for w in ws)
        if total > CUT_TUPLE_CAP:
            raise ValueError(f"{total} cut tuples exceeds the cap {CUT_TUPLE_CAP}")
        masks = [range(1, 2 ** w.shape[0]) for w in ws]
        factors = [np.stack([_indicator(w, mask) for mask in mode])
                   for w, mode in zip(ws, masks)]
        super().__init__(factors, masks, ws)

    # bound here as well because bench/recorder.py wraps them from the class __dict__
    atom = FactorDomain.atom
    max_step = FactorDomain.max_step

    def describe(self, key) -> dict:
        return {"kind": "cut-tuple", "subsets": [list(_mask_set(m)) for m in key]}


def _indicator(w: Array, mask: int) -> Array:
    """Whitened unit indicator of the subset ``mask`` under weights ``w``."""
    S = np.array(_mask_set(mask), dtype=int)
    u = np.zeros(w.shape[0])
    u[S] = np.sqrt(w[S])
    u /= math.sqrt(float(w[S].sum()))
    return u


def tensor_bound_check(T, domain, r: int, atol: float = ATOL) -> dict:
    """Certify the truncation bound chain at rank ``r``.

    Runs the greedy decomposition, takes the best truncation at ``r``, and
    reports (lhs, rhs, pass) triples for the two inequalities: the restricted
    norm of the residual against the RMS tail of the projection values, and
    that tail against the source Frobenius bound.  A third certificate checks
    that the engine's residual norm agrees with one recomputed from scratch.
    Each allows ``pvd.roundoff_slack`` of the Frobenius norm of the whitened
    source.
    """
    T = as_tensor(T, "tensor")
    if r < 0:
        raise ValueError("r must be nonnegative")
    result = compute_pvd(T, domain, max_terms=None, atol=atol)
    approx, _idx = best_truncation(result, r)
    lhs = p_norm(T - approx, domain, result.atol)
    tail = float(tail_rms(result.sigmas, r))
    source_norm = stable_norm(T / domain.whitener)
    src = source_norm / math.sqrt(r + 1)
    recomputed = p_norm(T - sum(result.increments, np.zeros(T.shape)), domain, result.atol)
    slack = roundoff_slack(source_norm)
    certs = [
        certificate("residual-vs-tail", lhs, tail + slack),
        certificate("tail-vs-source", tail, src + slack),
        certificate("residual-consistency", abs(recomputed - result.residual_pnorm), slack),
    ]
    return {"pass": all(c["pass"] for c in certs), "certificates": certs,
            "r": r, "sigmas": result.sigmas.tolist()}
