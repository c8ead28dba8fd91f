"""Diagonal inner products, whitening, and the matrix norms built on them.

Every weighted quantity in this package reduces to plain Euclidean geometry
of the *whitened* array ``A_ij / sqrt(d_i * e_j)``.  The helpers here do the
bookkeeping once so the rest of the package can stay in whitened coordinates.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import numpy.linalg as la

Array = np.ndarray


#: absolute tolerance of the greedy engine and the exact maximizers: the
#: stopping threshold and the width of the tie band
ATOL = 1e-9

#: a candidate increment is dropped as linearly dependent when its orthogonal
#: component is below this fraction of the candidate's own norm
DEPENDENCE_RTOL = 1e-10


def as_matrix(A, name: str = "matrix") -> Array:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if A.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def as_adjacency(A, symmetric: bool = True, nonnegative: bool = True) -> Array:
    """Validate an adjacency matrix: square and, unless switched off,
    symmetric within 1e-9 and entrywise nonnegative."""
    A = as_matrix(A, "adjacency")
    if A.shape[0] != A.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if symmetric and np.max(np.abs(A - A.T)) > 1e-9:
        raise ValueError("adjacency matrix must be symmetric")
    if nonnegative and A.min() < 0:
        raise ValueError("adjacency matrix must be nonnegative")
    return A


def as_tensor(T, name: str = "tensor") -> Array:
    T = np.asarray(T, dtype=float)
    if T.ndim < 2:
        raise ValueError(f"{name} must have at least 2 modes, got {T.ndim}")
    if T.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(T)):
        raise ValueError(f"{name} contains non-finite entries")
    return T


def as_weights(d, dim: int, name: str = "weights") -> Array:
    """Validate a strictly positive diagonal inner-product weight vector."""
    if d is None:
        return np.ones(dim)
    d = np.asarray(d, dtype=float)
    if d.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(d <= 0.0):
        raise ValueError(f"{name} must be strictly positive")
    return d


def ip_dot(x, y, d=None) -> float:
    """Weighted dot product ``sum_i x_i * d_i * y_i``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if d is None:
        return float(np.dot(x, y))
    d = as_weights(d, x.shape[0])
    return float(np.dot(x * d, y))


def ip_norm(x, d=None) -> float:
    return float(np.sqrt(max(ip_dot(x, x, d), 0.0)))


def unit_scale(X) -> tuple:
    """``(X * 2**k, k)``: ``k`` is 0 where the largest |entry| of ``X`` is 0
    or lies in [2^-10, 2^10), else the ``k`` that brings it into [1, 2).

    The CLI takes its input and weights through this, and ``compute_pvd``
    and ``verify_pvd`` their whitened source, so that the absolute floors
    (``ATOL`` among them) apply at unit scale; ``in_units`` gives the values
    back in the input's units.  A power-of-two scaling is exact short of
    underflow, so an input and its power-of-two multiples outside the window
    run one computation."""
    X = np.asarray(X, dtype=float)
    big = float(np.abs(X).max(initial=0.0))
    if big == 0.0 or 2.0**-10 <= big < 2.0**10:
        return X, 0
    k = 1 - math.frexp(big)[1]
    return np.ldexp(X, k), k


def unit_weights(weights) -> tuple:
    """The weight vectors of one input times the one ``2**a`` that
    ``unit_scale`` finds for all of them, and ``a``, made even for an odd
    number of vectors so that the whitener scales by ``2**(a * len / 2)``."""
    _, a = unit_scale(np.concatenate(weights))
    a -= a * len(weights) % 2
    return [np.ldexp(w, a) for w in weights], a


def unit_atol(atol, e: int) -> float:
    """A tolerance at unit scale: ``ATOL`` by default, else ``atol``, given
    in the input's units, times ``2**e``."""
    return ATOL if atol is None else float(np.ldexp(atol, e))


#: the fields and certificate names whose values carry the input's unit
#: (plain), the whitened input's (white) or its square (mass), in the CLI's
#: reports and ``pvd.PvdResult``; all others carry none
_UNITS = {
    "plain": "source increments weak_irregularity_ub szemeredi_irregularity_ub "
             "bound_certificate block_deviation estimate grid_term residual_pnorm_of_truncation "
             "cut-norm-chain block-constance first-term-control second-term-control "
             "estimate-vs-bruteforce cur-chain",
    "white": "values sigmas coeffs coefficients step_values residual_pnorm source_frob_norm atol "
             "value signed_value spectral_projection_values sigma_prefix_norm cut_mass_ratio "
             "projection-identity step-dominance truncation-chain-residual "
             "truncation-chain-source threshold-stop residual-vs-tail tail-vs-source "
             "residual-consistency gap-scale witness-consistency approx-guarantee "
             "dual-route-agreement majorization",
    "mass": "windows mass_horizon window pigeonhole-window window-captures-gap",
}


def in_units(obj, k: int, w: int):
    """``obj``, computed at unit scale, in the input's units: each value that
    ``_UNITS`` names, in dicts, lists, tuples and dataclasses at any depth,
    times ``2**-k`` (plain), ``2**-w`` (white) or ``2**-2w`` (mass), where
    ``2**k`` and ``2**w`` brought the input and its whitened form to unit
    scale.  A certificate (a dict with a ``name``) scales its ``lhs`` and
    ``rhs`` by its name and keeps the ``pass`` decided at unit scale.  A
    value beyond the float range in the input's units is inf, which the CLI
    reports as ``"overflow"``."""
    if not (k or w):
        return obj
    power = {name: -e for kind, e in (("plain", k), ("white", w), ("mass", 2 * w))
             for name in _UNITS[kind].split()}

    def times(x, e: int):
        if x is None or not e:
            return x
        if isinstance(x, list):
            return [times(v, e) for v in x]
        return np.ldexp(x, e) if isinstance(x, np.ndarray) else float(np.ldexp(x, e))

    def walk(x):
        if isinstance(x, dict):
            if "name" in x:
                e = power.get(x["name"], 0)
                return x | {"lhs": times(x["lhs"], e), "rhs": times(x["rhs"], e)}
            return {key: times(v, power[key]) if key in power else walk(v)
                    for key, v in x.items()}
        if isinstance(x, (list, tuple)):
            return type(x)(walk(v) for v in x)
        if dataclasses.is_dataclass(x) and not isinstance(x, type):
            return dataclasses.replace(x, **walk(
                {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}))
        return x

    with np.errstate(over="ignore"):
        return walk(obj)


def stable_norm(x) -> float:
    """Euclidean norm of ``x`` flattened, taken at unit scale, so that
    squares beyond the float range do not overflow: for values in a
    caller's units, such as a result's projection values."""
    x, k = unit_scale(x)
    return float(np.ldexp(la.norm(x), -k))


def whitened(A, d_left=None, d_right=None) -> Array:
    """Rescale ``A`` entrywise to ``A_ij / sqrt(d_i * e_j)``.

    Weighted Frobenius/spectral/form quantities of ``A`` equal the plain
    Euclidean ones of the whitened matrix, which is how they are computed
    throughout the package.  In the caller's units: the CLI passes arrays
    and weights at unit scale, where the weights' outer product is finite.
    """
    A = as_matrix(A)
    m, n = A.shape
    d = as_weights(d_left, m, "left weights")
    e = as_weights(d_right, n, "right weights")
    return A / np.sqrt(np.outer(d, e))


def frob_inner(X, Y, d_left=None, d_right=None) -> float:
    """Weighted Frobenius inner product ``sum_ij X_ij Y_ij / (d_i e_j)``, in
    the caller's units, as ``whitened``."""
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    m, n = X.shape
    d = as_weights(d_left, m, "left weights")
    e = as_weights(d_right, n, "right weights")
    return float(np.sum(X * Y / np.outer(d, e)))


def frob_norm(X, d_left=None, d_right=None) -> float:
    return float(np.sqrt(max(frob_inner(X, X, d_left, d_right), 0.0)))


def spectral_norm(A, d_left=None, d_right=None) -> float:
    """Largest singular value of the whitened matrix.

    Equals ``max |v^T A w|`` over pairs with ``ip_norm(v, d_left) =
    ip_norm(w, d_right) = 1``; never exceeds ``frob_norm`` of the same matrix.
    """
    W = whitened(A, d_left, d_right)
    return float(la.svd(W, compute_uv=False)[0])


def tensor_whitener(shape, weights) -> Array:
    """Outer product of per-mode ``sqrt(weights)``, for whitening ndim arrays."""
    factors = [np.sqrt(as_weights(w, n)) for n, w in zip(shape, weights)]
    out = factors[0]
    for f in factors[1:]:
        out = np.multiply.outer(out, f)
    return out
