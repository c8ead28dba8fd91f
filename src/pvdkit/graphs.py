"""Graph statistics tied to the cut decomposition: threshold rank, core
density, block-density regularity ratios, and projection-value profiles
under a chosen diagonal inner product.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as la

from .cutnorm import BRUTE_FORCE_CAP
from .domains import CutDomain
from .linalg import Tolerance, as_adjacency, as_weights, whitened
from .pvd import compute_pvd
from .regularity import Partition

Array = np.ndarray

EXHAUSTIVE_PARTITION_CAP = 12


def row_sums(A) -> Array:
    """Row sums of a square nonnegative matrix (weighted degrees).

    No positivity requirement; use ``degree_weights`` when the sums are to
    serve as inner-product weights.
    """
    A = as_adjacency(A, symmetric=False)
    return A @ np.ones(A.shape[0])


def degree_weights(A) -> Array:
    """Weighted degree vector, validated strictly positive for use as
    diagonal inner-product weights."""
    deg = row_sums(A)
    return as_weights(deg, deg.shape[0], "degrees")


def threshold_rank(A, eps: float) -> float:
    """Sum of squared eigenvalues of the degree-normalized matrix above eps.

    Eigenvalues are taken of D^{-1/2} A D^{-1/2} with D the weighted degree
    diagonal; only eigenvalues strictly greater than ``eps`` contribute.
    Monotone nonincreasing in eps; zero for eps >= 1.
    """
    A = as_adjacency(A)
    d = degree_weights(A)
    lam = la.eigvalsh(_symmetrized_whitened(A, d))
    keep = lam[lam > eps]
    return float(np.sum(keep ** 2))


def core_density(A) -> float:
    """Degree-damped squared mass: sum of A_ij^2/((deg_i + avg)(deg_j + avg)).

    Equals the squared Frobenius norm of A under the weights deg + avg, where
    avg is the average weighted degree.  Vertices of zero degree are fine as
    long as the graph is nonempty.
    """
    A = as_adjacency(A, symmetric=False)
    deg = A @ np.ones(A.shape[0])
    avg = float(deg.mean())
    if avg <= 0:
        raise ValueError("empty graph: average degree is zero")
    w = deg + avg
    return float(np.sum(A ** 2 / np.outer(w, w)))


def spectral_projection_values(A, weights=None, r: int | None = None) -> Array:
    """Leading absolute eigenvalues of the whitened symmetric matrix.

    With unit weights these are the singular values of ``A`` itself.  The
    result majorizes (in cumulative l2 norm) the projection-value sequence of
    the cut decomposition under the same weights.
    """
    A = as_adjacency(A, nonnegative=False)
    n = A.shape[0]
    d = as_weights(weights, n, "weights")
    lam = la.eigvalsh(_symmetrized_whitened(A, d))
    vals = np.sort(np.abs(lam))[::-1]
    if r is not None:
        if r < 0:
            raise ValueError("r must be nonnegative")
        vals = vals[:r]
    return vals


@dataclass
class PseudorandomnessProfile:
    weights: Array
    r: int
    sigma_prefix_norm: float
    cut_mass_ratio: float
    certificate_ratio: float
    sigmas: Array
    exhausted: bool


def cut_pseudorandomness_profile(A, weights=None, r: int = 1,
                                 tol: Tolerance | None = None,
                                 bf_cap: int = BRUTE_FORCE_CAP) -> PseudorandomnessProfile:
    """Profile the first r cut projection values against the graph's cut mass.

    ``cut_mass_ratio`` is (sum of all entries) / (sum of weights) — for a
    nonnegative matrix the numerator equals the cut norm, attained by the
    full vertex set on both sides.  Both totals are computed by summing the
    same row-sum vector, so with degree weights the ratio is exactly 1.0.
    ``certificate_ratio`` divides the prefix norm ||(sigma_1..sigma_r)||_2 by
    the cut mass ratio (0 when the graph is empty).
    """
    A = as_adjacency(A, symmetric=False)
    n = A.shape[0]
    if r < 1:
        raise ValueError("r must be at least 1")
    deg = A @ np.ones(n)
    d = as_weights(weights, n, "weights")
    result = compute_pvd(A, CutDomain(d, bf_cap=bf_cap), max_terms=r, tol=tol)
    prefix = float(la.norm(result.sigmas[:r]))
    cut_mass = float(np.sum(deg))
    ones_mass = float(np.sum(d))
    ratio = cut_mass / ones_mass
    cert = prefix / ratio if ratio > 0 else 0.0
    return PseudorandomnessProfile(
        weights=d,
        r=r,
        sigma_prefix_norm=prefix,
        cut_mass_ratio=ratio,
        certificate_ratio=cert,
        sigmas=result.sigmas,
        exhausted=result.exhausted,
    )


def lp_upper_regularity_check(A, p: float, eta: float, mode: str = "exhaustive",
                              samples: int = 10_000, seed: int = 0):
    """Worst block-density L_p ratio over vertex partitions into <= 1/eta parts.

    For each inspected partition the statistic is
    ``(sum_(i,j) (|Vi||Vj|/n^2) * density(Vi,Vj)^p)^(1/p) / (overall density)``
    where density(Vi,Vj) = A(Vi,Vj)/(|Vi||Vj|).  Exhaustive mode enumerates
    every set partition (restricted-growth strings) and is a true certificate;
    sampled mode draws uniform vertex labelings and can only exhibit
    violations.

    Returns
    -------
    (ratio, partition) : the maximum ratio and a partition attaining it.
    """
    A = as_adjacency(A, symmetric=False)
    n = A.shape[0]
    if p <= 1:
        raise ValueError("p must exceed 1")
    if eta <= 0:
        raise ValueError("eta must be positive")
    q = int(math.floor(1.0 / eta))
    if q < 1:
        raise ValueError("eta too large: no parts allowed")
    if q > n:
        raise ValueError(f"part budget {q} exceeds vertex count {n}")
    total = float(np.sum(A @ np.ones(n)))
    if total <= 0:
        raise ValueError("empty graph: zero cut mass")
    mean_density = total / n ** 2

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

    best = -math.inf
    witness = None
    if mode == "exhaustive":
        if n > EXHAUSTIVE_PARTITION_CAP:
            raise ValueError(f"exhaustive mode capped at n={EXHAUSTIVE_PARTITION_CAP}")
        for labels in _restricted_growth_strings(n, q):
            val, parts = ratio_of(labels)
            if val > best:
                best = val
                witness = parts
    elif mode == "sampled":
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            labels = rng.integers(0, q, size=n)
            val, parts = ratio_of(labels.tolist())
            if val > best:
                best = val
                witness = parts
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return float(best), Partition(parts=tuple(witness))


def _restricted_growth_strings(n: int, max_labels: int):
    """All set partitions of range(n) into at most max_labels parts, as label
    strings a with a[0] = 0 and a[i] <= max(a[:i]) + 1."""
    labels = [0] * n

    def rec(i: int, top: int):
        if i == n:
            yield tuple(labels)
            return
        for c in range(min(top + 1, max_labels - 1) + 1):
            labels[i] = c
            yield from rec(i + 1, max(top, c))

    yield from rec(1, 0) if n > 1 else iter([(0,)])


def _symmetrized_whitened(A: Array, d: Array) -> Array:
    W = whitened(A, d, d)
    return (W + W.T) / 2.0
