"""Regularity partitions built from cut decompositions.

The weak construction truncates a cut-domain greedy decomposition and takes
the common refinement of the selected subset pairs; the stronger
(Szemeredi-style) construction scans an exponentially growing ladder of
truncation depths and stops at the first window where the captured
projection mass stalls relative to the mass at the ladder's horizon.  The
printed form of that stopping rule compares each window against the mass of
the *current* refined approximant, which can fail for every ladder level on
matrices as small as I4; the horizon-mass comparison used here telescopes,
so the pigeonhole guarantee actually holds.  The literal comparison is still
evaluated and reported as a non-gating diagnostic.

Irregularity values are reported against the block-averaging surrogate, an
upper bound on the minimum over all block-constant matrices.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.linalg as la

from .cutnorm import BRUTE_FORCE_CAP, _mask_set, _require_sweep, rectangle_sum
from .domains import CutDomain
from .linalg import ATOL, as_adjacency, as_matrix, as_weights
from .pvd import best_truncation, certificate, compute_pvd, roundoff_slack, tail_rms, truncate
from .sweep import _plain_cut_norm

Array = np.ndarray

HORIZON_CAP = 512
SPLIT_CAP = 20_000
GRID_CAP = 200_000


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty parts covering range(n), ordered by smallest member."""

    parts: tuple

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    @property
    def num_vertices(self) -> int:
        return sum(len(p) for p in self.parts)


@dataclass
class RegularityReport:
    """A partition with its bounds and certificates.  ``details`` holds the
    construction's own fields, under the names the CLI reports them.  The
    cut-norm bounds are exact; ``szemeredi_irregularity_ub`` is None in
    max-cut."""

    partition: Partition
    approx_matrix: Array
    weak_irregularity_ub: float
    szemeredi_irregularity_ub: float | None
    bound_certificate: float
    certificates: list
    terms_used: int
    block_deviation: float
    pvd: object = field(repr=False)
    details: dict = field(default_factory=dict, repr=False)

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.certificates)


def refine(pairs, num_vertices: int) -> Partition:
    """Common refinement of the bipartitions induced by ``(S, T)`` pairs of
    index collections.

    Two vertices land in the same part iff they agree on membership in every
    S and every T.  With no pairs the ground set is one part.
    """
    sets = [(frozenset(int(i) for i in S), frozenset(int(j) for j in T)) for S, T in pairs]
    groups: dict = {}
    for v in range(num_vertices):
        sig = tuple((v in S, v in T) for S, T in sets)
        groups.setdefault(sig, []).append(v)
    parts = sorted((tuple(g) for g in groups.values()), key=lambda g: g[0])
    return Partition(parts=tuple(parts))


def _blocks(partition: Partition):
    """``(a, b, index)`` for every ordered pair of parts ``(P_a, P_b)``, with
    ``index`` the ``np.ix_`` selector of the block ``P_a x P_b``."""
    for a, P in enumerate(partition):
        for b, Q in enumerate(partition):
            yield a, b, np.ix_(P, Q)


def block_average(A, partition: Partition) -> Array:
    """Matrix constant on every block, taking the block mean of ``A``."""
    A = as_matrix(A)
    out = np.zeros_like(A)
    for _, _, ix in _blocks(partition):
        out[ix] = A[ix].mean()
    return out


def _block_deviation(M: Array, partition: Partition) -> float:
    """Largest spread (max minus min) of ``M`` within one block."""
    return max(float(M[ix].max() - M[ix].min()) for _, _, ix in _blocks(partition))


def _block_max_abs(M: Array, ix) -> float:
    """``_cut_norm_ub`` of the block ``ix`` of ``M``."""
    return _cut_norm_ub(M[ix])


def _blockwise_ub(M: Array, partition: Partition) -> float:
    """Sum over ordered block pairs of ``_block_max_abs``."""
    return sum(_block_max_abs(M, ix) for _, _, ix in _blocks(partition))


def weak_irregularity_ub(A, partition: Partition, bf_cap: int = BRUTE_FORCE_CAP) -> float:
    """Exact cut norm of A minus its block averaging, refused past
    ``_require_sweep``: an upper bound on the best block-constant
    approximation's cut-norm distance."""
    A = as_matrix(A)
    _require_sweep(A.shape, bf_cap)
    return _cut_norm_ub(A - block_average(A, partition))


def szemeredi_irregularity_ub(A, partition: Partition, bf_cap: int = BRUTE_FORCE_CAP) -> float:
    """Sum over ordered block pairs of the exact within-block cut norm of A
    minus its block averaging, refused (``_require_sweep``) by the largest
    part's block."""
    _require_sweep((max(map(len, partition)),) * 2, bf_cap)
    A = as_matrix(A)
    return _blockwise_ub(A - block_average(A, partition), partition)


def _cut_norm_ub(R: Array) -> float:
    """max |R(S,T)| by the exact sweep, for callers past ``_require_sweep``."""
    return _plain_cut_norm(R, ATOL)[0]


def _checked(A, eps: float, weights) -> tuple:
    """The validated adjacency matrix and weights of a construction."""
    A = as_adjacency(A)
    if eps <= 0:
        raise ValueError("eps must be positive")
    return A, as_weights(weights, A.shape[0], "weights")


def _partition_of(result, m: int, n: int) -> Partition:
    """Common refinement of the first ``m`` selected pairs of ``result``."""
    return refine([(_mask_set(S), _mask_set(T)) for S, T in result.keys[:m]], n)


def _weak_core(A, eps: float, weights, atol: float, bf_cap: int) -> RegularityReport:
    """``weak_regularity_partition`` without the Szemeredi sum."""
    A, d = _checked(A, eps, weights)
    r = math.ceil(eps ** -2)
    if r > A.size:
        raise ValueError(f"eps={eps} needs {r} terms; cap is {A.size}")
    result = compute_pvd(A, CutDomain(d, bf_cap=bf_cap), max_terms=r + 1, atol=atol)
    approx, index = best_truncation(result, r)
    m = min(index - 1, result.num_terms)
    partition = _partition_of(result, m, A.shape[0])

    wub = _cut_norm_ub(A - approx)
    ones_mass = float(d.sum())
    bound = float(tail_rms(result.sigmas, r)) * ones_mass

    deviation = _block_deviation(approx, partition)
    certs = [
        certificate("cut-norm-chain", wub,
                    bound + roundoff_slack(ones_mass * result.source_frob_norm)),
        certificate("partition-size", len(partition), 2 ** (2 * m)),
    ]
    if np.all(d == d[0]):
        certs.append(certificate("block-constance", deviation, 1e-9))
    return RegularityReport(
        partition=partition,
        approx_matrix=approx,
        weak_irregularity_ub=wub,
        szemeredi_irregularity_ub=None,
        bound_certificate=bound,
        certificates=certs,
        terms_used=m,
        block_deviation=deviation,
        pvd=result,
        details={"selected": result.selected_pairs(), "truncation_rank": r},
    )


def weak_regularity_partition(A, eps: float, weights=None, atol: float = ATOL,
                              bf_cap: int = BRUTE_FORCE_CAP) -> RegularityReport:
    """Partition with certified cut-norm irregularity from a truncated cut
    decomposition.

    Parameters
    ----------
    A : array_like
        Square symmetric nonnegative matrix.
    eps : float
        Target scale; the truncation rank is ``ceil(eps**-2)``.
    weights : array_like, optional
        Positive diagonal inner-product weights (default unit).

    Returns
    -------
    RegularityReport
        With ``weak_irregularity_ub`` the exact cut norm of
        ``A - approx_matrix`` and ``bound_certificate`` the tail bound
        ``(RMS of the first r+1 projection values) * sum(weights)``.
    """
    report = _weak_core(A, eps, weights, atol, bf_cap)
    report.szemeredi_irregularity_ub = szemeredi_irregularity_ub(
        report.pvd.source, report.partition, bf_cap)
    return report


def szemeredi_partition(A, eps: float, base: float = 16.0, weights=None, atol: float = ATOL,
                        bf_cap: int = BRUTE_FORCE_CAP) -> RegularityReport:
    """Partition from the exponential-ladder stopping rule, with certificates.

    Scans ladder levels q_0 = 0, q_{t+1} = ceil(base**q_t) and stops at the
    first window whose captured projection mass is at most ``eps**2`` times
    the mass at the ladder horizon (K = ceil(eps**-2) levels); the pigeonhole
    principle guarantees a qualifying window.  ``approx_matrix`` truncates at
    m = min(q, r') terms where the refined approximant truncates at r'; the
    partition refines those m pairs.

    Certificates (all gating): the pigeonhole window inequality; the refined
    minus coarse approximant's squared Frobenius mass against the window; the
    cut norm of ``A`` minus the refined approximant against the tail chain
    ("first term control"); the blockwise gap sum against Cauchy-Schwarz
    ("second term control"); and the gap's Frobenius norm against
    ``eps * sqrt(horizon mass)``.  The refined approximant is
    ``best_truncation(report.pvd, report.details["f_q"])[0]``.
    """
    A, d = _checked(A, eps, weights)
    if base <= 1:
        raise ValueError("base must exceed 1")
    K = math.ceil(eps ** -2)
    levels = [0]
    for _ in range(K):
        q = levels[-1]
        if q > HORIZON_CAP or q * math.log(base) > math.log(1e15):
            raise ValueError(
                f"truncation ladder exceeds the supported horizon at level {q}; "
                "increase eps or lower the base")
        levels.append(int(math.ceil(base ** q)))

    result = compute_pvd(A, CutDomain(d, bf_cap=bf_cap),
                         max_terms=min(levels[-1] + 1, A.size), atol=atol)
    src = result.source_frob_norm
    if not math.isfinite(src * src):
        raise ValueError(f"the ladder's masses overflow: whitened input norm {src:.3g} squared")
    cum = np.concatenate([[0.0], np.cumsum(result.sigmas ** 2)])

    def mass(q: int) -> float:
        return float(cum[min(q, result.num_terms)])

    horizon = mass(levels[-1])
    windows = [mass(levels[t + 1]) - mass(levels[t]) for t in range(K)]
    threshold = eps ** 2 * horizon
    pick = None
    for t, w in enumerate(windows):
        if w <= threshold * (1 + 1e-12):
            pick = t
            break
    if pick is None:
        raise AssertionError("pigeonhole failed: windows " + repr(windows))

    q, fq = levels[pick], levels[pick + 1]
    refined, index = best_truncation(result, fq)
    refined_rank = index - 1
    m = min(q, refined_rank)
    coarse = truncate(result, m)
    partition = _partition_of(result, m, A.shape[0])

    window = windows[pick]
    gap = refined - coarse
    gap_frob = float(la.norm(gap / result.domain.whitener))
    ones_mass = float(d.sum())

    tail = float(tail_rms(result.sigmas, fq))
    cutb = _cut_norm_ub(A - refined)

    # slacks at the scale of masses, cut norms and norms
    slack = roundoff_slack(src ** 2)
    cut_slack = roundoff_slack(ones_mass * src)
    certs = [
        certificate("pigeonhole-window", window, threshold + slack),
        certificate("window-captures-gap", gap_frob ** 2, window + slack),
        certificate("first-term-control", cutb, ones_mass * tail + cut_slack),
        certificate("second-term-control", _blockwise_ub(gap, partition),
                    ones_mass * gap_frob + cut_slack),
        certificate("gap-scale", gap_frob, eps * math.sqrt(horizon) + roundoff_slack(src)),
    ]

    wub = _cut_norm_ub(A - coarse)
    refined_mass = mass(refined_rank)
    return RegularityReport(
        partition=partition,
        approx_matrix=coarse,
        weak_irregularity_ub=wub,
        szemeredi_irregularity_ub=szemeredi_irregularity_ub(A, partition, bf_cap),
        bound_certificate=ones_mass * tail,
        certificates=certs,
        terms_used=m,
        block_deviation=_block_deviation(coarse, partition),
        pvd=result,
        details={
            "levels": levels,
            "level_index": pick,
            "q": q,
            "f_q": fq,
            "refined_rank": refined_rank,
            "windows": windows,
            "mass_horizon": horizon,
            "window": window,
            # the stopping comparison as literally printed; diagnostic only
            "literal_window_ok": bool(window <= eps ** 2 * refined_mass + slack),
            "parts_factor": float(2 ** (2 * q)) if 2 * q < 1000 else math.inf,
        },
    )


def max_cut_details(A, eps: float, delta: float | None = None, weights=None,
                    bf_cap: int = BRUTE_FORCE_CAP) -> dict:
    """Max-cut estimate on the block-constant approximant, with the slack
    terms needed to compare against the true maximum: ``estimate`` is the
    cut value of the vertex set ``bipartition`` on the approximant.

    When the per-part split-count space is at most ``SPLIT_CAP`` the exact
    optimum over all split counts is found and ``grid_term`` is 0; otherwise
    split fractions are scanned on a ``delta`` grid (default ``eps/4``),
    fractional counts are floored and remainders assigned greedily by
    marginal gain, and ``grid_term = delta * sum(|approx|)`` reports the grid
    coarseness allowance.  A grid of more than ``GRID_CAP`` points raises
    ``ValueError``.  The first best split in scan order wins.  The report is
    the weak partition's, without its ``szemeredi_irregularity_ub``.
    """
    if delta is None:
        delta = eps / 4.0
    if delta <= 0:
        raise ValueError("delta must be positive")
    report = _weak_core(A, eps, weights, ATOL, bf_cap)
    approx = report.approx_matrix
    parts = report.partition.parts
    sizes = np.array([len(P) for P in parts])
    p = len(parts)
    means = np.zeros((p, p))
    for a, b, ix in _blocks(report.partition):
        means[a, b] = approx[ix].mean()

    def split_value(counts: np.ndarray) -> float:
        return float(counts @ means @ (sizes - counts))

    def rounded(point) -> np.ndarray:
        """Floored counts of a grid point, remainders added greedily by gain."""
        counts = np.floor(np.array(point) * sizes).astype(int)
        leftovers = [a for a in range(p)
                     if counts[a] < sizes[a] and point[a] * sizes[a] - counts[a] > 1e-12]
        while leftovers:
            base_val = split_value(counts)
            gains = [split_value(counts + (np.arange(p) == a)) - base_val for a in leftovers]
            k = gains.index(max(gains))
            if gains[k] <= 0:
                break
            counts[leftovers.pop(k)] += 1
        return counts

    exact_split = math.prod(int(size) + 1 for size in sizes) <= SPLIT_CAP
    if exact_split:
        candidates = map(np.array, itertools.product(*(range(size + 1) for size in sizes)))
        grid_term = 0.0
    else:
        fracs = np.arange(0.0, 1.0 + delta / 2.0, delta)
        if fracs[-1] < 1.0:
            fracs = np.append(fracs, 1.0)
        if len(fracs) ** p > GRID_CAP:
            raise ValueError(
                f"{len(fracs)}^{p} grid points exceed the cap {GRID_CAP}")
        candidates = map(rounded, itertools.product(fracs, repeat=p))
        grid_term = float(delta * np.sum(np.abs(approx)))
    counts = tuple(int(c) for c in max(candidates, key=split_value))

    X = tuple(sorted(i for P, c in zip(parts, counts) for i in P[:c]))
    Xc = tuple(i for i in range(approx.shape[0]) if i not in X)
    estimate = float(rectangle_sum(approx, X, Xc)) if X and Xc else 0.0
    return {
        "estimate": estimate,
        "bipartition": X,
        "counts": counts,
        "grid_term": grid_term,
        "exact_split": exact_split,
        "delta": delta,
        "weak_irregularity_ub": report.weak_irregularity_ub,
        "irregularity_exact": True,
        "num_parts": p,
        "report": report,
    }
