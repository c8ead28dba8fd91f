"""Graph statistics tied to the cut decomposition: threshold rank, core
density, block-density regularity ratios, and projection-value profiles
under a chosen diagonal inner product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as la

from .cutnorm import BRUTE_FORCE_CAP
from .domains import CutDomain
from .linalg import ATOL, _unit_exponent, as_adjacency, as_weights, stable_norm, whitened
from .pvd import compute_pvd
from .regularity import Partition

Array = np.ndarray

EXHAUSTIVE_PARTITION_CAP = 12
#: labelings scored at once by ``lp_upper_regularity_check``
PARTITION_BLOCK = 2048


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
    if eps <= 0:
        raise ValueError("eps must be positive")
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
    k = _unit_exponent(deg + avg)  # one scale for ``A`` and ``w``, so no term moves
    w = np.ldexp(deg + avg, k)
    return float(np.sum(np.ldexp(A, k) ** 2 / np.outer(w, w)))


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
    r: int
    sigma_prefix_norm: float
    cut_mass_ratio: float
    certificate_ratio: float
    sigmas: Array
    exhausted: bool


def cut_pseudorandomness_profile(A, weights=None, r: int = 1,
                                 atol: float = ATOL,
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
    result = compute_pvd(A, CutDomain(d, bf_cap=bf_cap), max_terms=r, atol=atol)
    prefix = stable_norm(result.sigmas[:r])
    cut_mass = float(np.sum(deg))
    ones_mass = float(np.sum(d))
    ratio = cut_mass / ones_mass
    cert = prefix / ratio if ratio > 0 else 0.0
    return PseudorandomnessProfile(
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
    sampled mode draws uniform vertex labelings (one
    ``rng.integers(0, q, size=n)`` per sample) and can only exhibit
    violations.

    Labelings are scored ``PARTITION_BLOCK`` at a time.  For each part ``a``
    of a block, ``X_a A`` gives the block masses ``(X_a A * X_b).sum(1)``,
    with ``X_a`` the part's indicator rows, and each term's power is taken
    with Python's ``**`` once per distinct base.  Those sums run in another
    order than the one-partition scorer ``ratio_of``, so on real weights a
    block score can differ from it in the last bits.  Every labeling whose
    block score ``acc`` (the sum before the ``1/p`` power) is within a
    relative ``slack`` of the largest block score so far is scored again by
    ``ratio_of``, in enumeration order, keeping the first strict maximum:
    the value and the witness of a scan of ``ratio_of`` over every labeling.
    The slack is derived from the nonnegativity of ``A``.  A block mass sums
    at most ``n^2`` nonnegative terms, so in any order it is within relative
    ``n^2 u`` of the exact sum (``u = eps/2``); the division adds ``u``, the
    power multiplies the error by ``p`` and ``**`` adds at most one ulp, and
    the weight ``|Vi||Vj|/n^2`` adds ``2u``.  ``acc`` sums at most ``q^2``
    nonnegative terms, so both scores are within ``g = (p(n^2+1) + q^2 + 3)u``
    of the exact one, and the final power and division move ``ratio_of`` by
    at most ``3u``.  A maximizer of ``ratio_of`` therefore has a block score
    of at least ``(1 - 4g - 6pu)`` times the largest one; ``slack`` is at
    least twice that, and the largest score so far is at most the final
    one, so no maximizer is skipped.  Memory is a few arrays of ``PARTITION_BLOCK`` rows in both modes,
    whatever the number of partitions.

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
    top = float(A.max())
    if p * math.log(top) > math.log(np.finfo(float).max):
        raise ValueError(f"block densities overflow: {top:.3g} to the power {p}")

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

    if mode == "exhaustive":
        if n > EXHAUSTIVE_PARTITION_CAP:
            raise ValueError(f"exhaustive mode capped at n={EXHAUSTIVE_PARTITION_CAP}")
        blocks = _growth_string_blocks(n, q)
    elif mode == "sampled":
        if samples < 1:
            raise ValueError("sampled mode needs at least one sample")
        blocks = _sampled_blocks(np.random.default_rng(seed), n, q, samples)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    slack = 4 * (p * (n * n + 4) + q * q + 4) * np.finfo(float).eps
    best, witness, high = -math.inf, None, -math.inf
    for labels in blocks:
        acc = _block_scores(A, labels, q, p)
        high = max(high, float(acc.max()))
        for row in labels[acc >= high * (1.0 - slack)]:
            val, parts = ratio_of(row.tolist())
            if val > best:
                best, witness = val, parts
    return float(best), Partition(parts=tuple(witness))


def _block_scores(A: Array, labels: Array, q: int, p: float) -> Array:
    """``sum_(a,b) (|Va||Vb|/n^2) * density(Va,Vb)^p`` of each labeling row
    of ``labels``, over the part pairs in label order (empty parts add 0)."""
    n = labels.shape[1]
    X = [labels == a for a in range(q)]
    sizes = [x.sum(axis=1).astype(float) for x in X]
    acc = np.zeros(len(labels))
    for a in range(q):
        XA = X[a].astype(float) @ A
        for b in range(q):
            size = sizes[a] * sizes[b]
            mass = (XA * X[b]).sum(axis=1)
            base = np.divide(mass, size, out=np.zeros_like(mass), where=size > 0)
            uniq, inv = np.unique(base, return_inverse=True)
            acc += size / n ** 2 * np.array([x ** p for x in uniq.tolist()])[inv]
    return acc


def _growth_string_blocks(n: int, max_labels: int):
    """Every set partition of range(n) into at most ``max_labels`` parts, as
    label strings a with a[0] = 0 and a[i] <= max(a[:i]) + 1, in
    lexicographic order and in blocks of at most ``PARTITION_BLOCK`` rows.
    The last ``k`` labels of a string depend on its head only through the
    head's largest label, so each head is expanded by the table of tails for
    that label: the label strings of length ``k``, in lexicographic order,
    that keep the growth rule."""
    if n == 1:
        yield np.zeros((1, 1), dtype=np.int8)
        return
    k = n - 1
    while max_labels ** k > PARTITION_BLOCK:
        k -= 1
    grid = np.indices((max_labels,) * k, dtype=np.int8).reshape(k, -1).T
    tails = []
    for top in range(max_labels):
        prior = np.maximum.accumulate(np.insert(grid[:, :-1], 0, top, axis=1), axis=1)
        tails.append(grid[np.all(grid <= prior + 1, axis=1)])
    block, filled = np.empty((PARTITION_BLOCK, n), dtype=np.int8), 0
    for rest in _growth_heads(n - k - 1, 0, max_labels):
        head = (0,) + rest
        tail = tails[max(head)]
        if filled + len(tail) > PARTITION_BLOCK:
            yield block[:filled]
            block, filled = np.empty_like(block), 0
        block[filled : filled + len(tail), : n - k] = head
        block[filled : filled + len(tail), n - k :] = tail
        filled += len(tail)
    yield block[:filled]


def _growth_heads(length: int, top: int, max_labels: int):
    """Every continuation of ``length`` labels after a restricted-growth
    head whose largest label is ``top``, in lexicographic order."""
    if length == 0:
        yield ()
        return
    for c in range(min(top + 1, max_labels - 1) + 1):
        for rest in _growth_heads(length - 1, max(top, c), max_labels):
            yield (c,) + rest


def _sampled_blocks(rng, n: int, q: int, samples: int):
    """``samples`` uniform labelings, one ``rng.integers(0, q, size=n)`` per
    sample, in blocks of at most ``PARTITION_BLOCK`` rows."""
    for start in range(0, samples, PARTITION_BLOCK):
        count = min(PARTITION_BLOCK, samples - start)
        yield np.stack([rng.integers(0, q, size=n) for _ in range(count)])


def _symmetrized_whitened(A: Array, d: Array) -> Array:
    W = whitened(A, d, d)
    return (W + W.T) / 2.0
