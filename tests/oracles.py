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
