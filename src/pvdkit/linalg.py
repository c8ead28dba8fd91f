"""Diagonal inner products, whitening, and the matrix norms built on them.

Every weighted quantity in this package reduces to plain Euclidean geometry
of the *whitened* array ``A_ij / sqrt(d_i * e_j)``.  The helpers here do the
bookkeeping once so the rest of the package can stay in whitened coordinates.
"""
from __future__ import annotations

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


def stable_norm(x) -> float:
    """Euclidean norm of ``x`` flattened: ``numpy.linalg.norm`` unchanged
    wherever that is finite, else the norm of ``x`` scaled by its largest
    magnitude, times that magnitude, so squares beyond the float range do
    not overflow."""
    with np.errstate(over="ignore"):
        value = float(la.norm(x))
    if math.isfinite(value):
        return value
    big = float(np.max(np.abs(x)))
    return big * float(la.norm(x / big))


def whitened(A, d_left=None, d_right=None) -> Array:
    """Rescale ``A`` entrywise to ``A_ij / sqrt(d_i * e_j)``.

    Weighted Frobenius/spectral/form quantities of ``A`` equal the plain
    Euclidean ones of the whitened matrix, which is how they are computed
    throughout the package.
    """
    A = as_matrix(A)
    m, n = A.shape
    d = as_weights(d_left, m, "left weights")
    e = as_weights(d_right, n, "right weights")
    kd, ke = _unit_exponent(d), _unit_exponent(e)
    ke -= (kd + ke) % 2  # so that the square root halves an even exponent
    return np.ldexp(A / np.sqrt(np.outer(np.ldexp(d, kd), np.ldexp(e, ke))), (kd + ke) // 2)


def _unit_exponent(x) -> int:
    """The ``k`` that scales the largest magnitude of ``x`` into [1, 2) as
    ``x * 2**k``.  Operands scaled so, and the result scaled back, keep the
    products and quotients of entries near the float limits finite, and
    change no bit short of underflow."""
    return 1 - math.frexp(float(np.abs(x).max()))[1]


def frob_inner(X, Y, d_left=None, d_right=None) -> float:
    """Weighted Frobenius inner product ``sum_ij X_ij Y_ij / (d_i e_j)``."""
    X = as_matrix(X, "X")
    Y = as_matrix(Y, "Y")
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    m, n = X.shape
    d = as_weights(d_left, m, "left weights")
    e = as_weights(d_right, n, "right weights")
    k = [_unit_exponent(M) for M in (X, Y, d, e)]
    X, Y, d, e = (np.ldexp(M, j) for M, j in zip((X, Y, d, e), k))
    return float(np.ldexp(np.sum(X * Y / np.outer(d, e)), k[2] + k[3] - k[0] - k[1]))


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
