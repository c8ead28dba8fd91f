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

from .cutnorm import (
    BRUTE_FORCE_CAP,
    _mask_set,
    cut_norm_bruteforce,
    cut_norm_lp_upper,
    rectangle_sum,
)
from .domains import CutDomain
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, as_weights
from .pvd import best_truncation, compute_pvd, tail_rms, truncate

Array = np.ndarray

HORIZON_CAP = 512
SPLIT_CAP = 20_000
GRID_CAP = 200_000


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty parts covering range(n), ordered by smallest member,
    plus the subset pairs whose refinement produced them (may be empty)."""

    parts: tuple
    provenance: tuple = ()

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    @property
    def num_vertices(self) -> int:
        return sum(len(p) for p in self.parts)


@dataclass
class RegularityReport:
    partition: Partition
    approx_matrix: Array
    weak_irregularity_ub: float
    szemeredi_irregularity_ub: float | None
    bound_certificate: float
    certificates: list
    terms_used: int
    eps: float
    exact: bool
    block_deviation: float
    pvd: object = field(repr=False)
    details: dict = field(default_factory=dict, repr=False)

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.certificates)


def refine(pairs, num_vertices: int) -> Partition:
    """Common refinement of the bipartitions induced by (S, T) subset pairs.

    Two vertices land in the same part iff they agree on membership in every
    S and every T.  Accepts CutPair-like objects (``.S``/``.T``) or plain
    pairs of index collections.  With no pairs the ground set is one part.
    """
    norm = []
    for p in pairs:
        S = getattr(p, "S", None)
        T = getattr(p, "T", None)
        if S is None:
            S, T = p
        norm.append((frozenset(int(i) for i in S), frozenset(int(j) for j in T)))
    groups: dict = {}
    for v in range(num_vertices):
        sig = tuple((v in S, v in T) for S, T in norm)
        groups.setdefault(sig, []).append(v)
    parts = sorted((tuple(g) for g in groups.values()), key=lambda g: g[0])
    prov = tuple((tuple(sorted(S)), tuple(sorted(T))) for S, T in norm)
    return Partition(parts=tuple(parts), provenance=prov)


def block_average(A, partition: Partition) -> Array:
    """Matrix constant on every block, taking the block mean of ``A``."""
    A = as_matrix(A)
    out = np.zeros_like(A)
    for P in partition:
        for Q in partition:
            sub = A[np.ix_(P, Q)]
            out[np.ix_(P, Q)] = sub.mean()
    return out


def _block_max_abs(M: Array, rows, cols, bf_cap: int) -> float:
    """Upper bound on max over nonempty S in rows, T in cols of |M(S, T)|:
    exact within ``bf_cap``, the LP relaxation value beyond it."""
    return _cut_norm_ub(M[np.ix_(rows, cols)], bf_cap)[0]


def weak_irregularity_ub(A, partition: Partition, bf_cap: int = BRUTE_FORCE_CAP) -> float:
    """Cut norm of A minus its block averaging: an upper bound on the best
    block-constant approximation's cut-norm distance.  Exact by enumeration
    within the cap; beyond it the LP relaxation value (also an upper bound)."""
    A = as_matrix(A)
    return _cut_norm_ub(A - block_average(A, partition), bf_cap)[0]


def szemeredi_irregularity_ub(A, partition: Partition, bf_cap: int = BRUTE_FORCE_CAP) -> float:
    """Sum over ordered block pairs of the exact within-block cut norm of A
    minus its block averaging."""
    A = as_matrix(A)
    R = A - block_average(A, partition)
    total = 0.0
    for P in partition:
        for Q in partition:
            total += _block_max_abs(R, P, Q, bf_cap)
    return total


def _masks_to_pair(key) -> tuple:
    return (_mask_set(key[0]), _mask_set(key[1]))


def _cut_norm_ub(R: Array, bf_cap: int) -> tuple:
    """(value, exact_flag) upper bound on max |R(S,T)|."""
    if max(R.shape) <= bf_cap:
        return abs(cut_norm_bruteforce(R, cap=bf_cap).value), True
    return cut_norm_lp_upper(R), False


def weak_regularity_partition(A, eps: float, weights=None, tol: Tolerance | None = None,
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
        With ``weak_irregularity_ub`` the (brute-force or LP) cut norm of
        ``A - approx_matrix`` and ``bound_certificate`` the tail bound
        ``(RMS of the first r+1 projection values) * sum(weights)``.
    """
    A = _check_graph_matrix(A)
    n = A.shape[0]
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = as_weights(weights, n, "weights")
    r = math.ceil(eps ** -2)
    if r > A.size:
        raise ValueError(f"eps={eps} needs {r} terms; cap is {A.size}")
    if tol is None:
        tol = DEFAULT_TOL
    domain = CutDomain(d, bf_cap=bf_cap)
    result = compute_pvd(A, domain, max_terms=r + 1, tol=tol)
    approx, index = best_truncation(result, r)
    m = min(index - 1, result.num_terms)
    partition = refine([_masks_to_pair(k) for k in result.keys[:m]], n)

    wub, exact = _cut_norm_ub(A - approx, bf_cap)
    ones_mass = float(d.sum())
    bound = float(tail_rms(result.sigmas, r)) * ones_mass

    deviation = _block_deviation(approx, partition)
    certs = [
        {"name": "cut-norm-chain", "lhs": wub, "rhs": bound + 1e-9,
         "pass": bool(wub <= bound + 1e-9)},
        {"name": "partition-size", "lhs": float(len(partition)),
         "rhs": float(2 ** (2 * m)), "pass": bool(len(partition) <= 2 ** (2 * m))},
    ]
    if np.all(d == d[0]):
        certs.append({"name": "block-constance", "lhs": deviation, "rhs": 1e-9,
                      "pass": bool(deviation <= 1e-9)})
    sz = None
    if max(len(p) for p in partition) <= bf_cap:
        sz = szemeredi_irregularity_ub(A, partition, bf_cap)
    return RegularityReport(
        partition=partition,
        approx_matrix=approx,
        weak_irregularity_ub=wub,
        szemeredi_irregularity_ub=sz,
        bound_certificate=bound,
        certificates=certs,
        terms_used=m,
        eps=eps,
        exact=exact,
        block_deviation=deviation,
        pvd=result,
        details={"r": r, "selected": result.selected_pairs()},
    )


def szemeredi_partition(A, eps: float, base: float = 16.0, weights=None,
                        tol: Tolerance | None = None,
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
    ``eps * sqrt(horizon mass)``.
    """
    A = _check_graph_matrix(A)
    n = A.shape[0]
    if eps <= 0:
        raise ValueError("eps must be positive")
    if base <= 1:
        raise ValueError("base must exceed 1")
    d = as_weights(weights, n, "weights")
    if tol is None:
        tol = DEFAULT_TOL
    K = math.ceil(eps ** -2)
    levels = [0]
    for _ in range(K):
        q = levels[-1]
        if q > HORIZON_CAP or q * math.log(base) > math.log(1e15):
            raise ValueError(
                f"truncation ladder exceeds the supported horizon at level {q}; "
                "increase eps or lower the base")
        levels.append(int(math.ceil(base ** q)))

    domain = CutDomain(d, bf_cap=bf_cap)
    result = compute_pvd(A, domain, max_terms=min(levels[-1] + 1, A.size), tol=tol)
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
    r_used = index - 1
    m = min(q, r_used)
    coarse = truncate(result, m)
    partition = refine([_masks_to_pair(k) for k in result.keys[:m]], n)

    window = windows[pick]
    gap = refined - coarse
    wh = np.sqrt(np.outer(d, d))
    gap_frob = float(la.norm(gap / wh))
    ones_mass = float(d.sum())

    tail = float(tail_rms(result.sigmas, fq))
    cutb, exact = _cut_norm_ub(A - refined, bf_cap)

    block_gap_sum = 0.0
    for P in partition:
        for Q in partition:
            block_gap_sum += _block_max_abs(gap, P, Q, bf_cap)

    atol = 1e-9
    certs = [
        {"name": "pigeonhole-window", "lhs": window, "rhs": threshold + atol,
         "pass": bool(window <= threshold + atol)},
        {"name": "window-captures-gap", "lhs": gap_frob ** 2, "rhs": window + atol,
         "pass": bool(gap_frob ** 2 <= window + atol)},
        {"name": "first-term-control", "lhs": cutb, "rhs": ones_mass * tail + atol,
         "pass": bool(cutb <= ones_mass * tail + atol)},
        {"name": "second-term-control", "lhs": block_gap_sum,
         "rhs": ones_mass * gap_frob + atol,
         "pass": bool(block_gap_sum <= ones_mass * gap_frob + atol)},
        {"name": "gap-scale", "lhs": gap_frob,
         "rhs": eps * math.sqrt(horizon) + atol,
         "pass": bool(gap_frob <= eps * math.sqrt(horizon) + atol)},
    ]

    wub, _ = _cut_norm_ub(A - coarse, bf_cap)
    refined_mass = mass(r_used)
    sz = None
    if max(len(p) for p in partition) <= bf_cap:
        sz = szemeredi_irregularity_ub(A, partition, bf_cap)
    return RegularityReport(
        partition=partition,
        approx_matrix=coarse,
        weak_irregularity_ub=wub,
        szemeredi_irregularity_ub=sz,
        bound_certificate=ones_mass * tail,
        certificates=certs,
        terms_used=m,
        eps=eps,
        exact=exact,
        block_deviation=_block_deviation(coarse, partition),
        pvd=result,
        details={
            "base": base,
            "levels": levels,
            "level_index": pick,
            "q": q,
            "f_q": fq,
            "r_used": r_used,
            "windows": windows,
            "mass_horizon": horizon,
            "window": window,
            "refined_approx": refined,
            # the stopping comparison as literally printed; diagnostic only
            "literal_window_ok": bool(window <= eps ** 2 * refined_mass + atol),
            "parts_factor": float(2 ** (2 * q)) if 2 * q < 1000 else math.inf,
        },
    )


def max_cut_details(A, eps: float, delta: float | None = None, weights=None,
                    split_cap: int = SPLIT_CAP, grid_cap: int = GRID_CAP,
                    bf_cap: int = BRUTE_FORCE_CAP) -> dict:
    """Max-cut estimate on the block-constant approximant, with the slack
    terms needed to compare against the true maximum.

    When the per-part split-count space is at most ``split_cap`` the exact
    optimum over all split counts is found and ``grid_term`` is 0; otherwise
    split fractions are scanned on a ``delta`` grid (default ``eps/4``),
    fractional counts are floored and remainders assigned greedily by
    marginal gain, and ``grid_term = delta * sum(|approx|)`` reports the grid
    coarseness allowance.
    """
    if delta is None:
        delta = eps / 4.0
    if delta <= 0:
        raise ValueError("delta must be positive")
    report = weak_regularity_partition(A, eps, weights=weights, bf_cap=bf_cap)
    A = as_matrix(A)
    approx = report.approx_matrix
    parts = list(report.partition)
    sizes = np.array([len(p) for p in parts])
    p = len(parts)
    means = np.zeros((p, p))
    for a, P in enumerate(parts):
        for b, Q in enumerate(parts):
            means[a, b] = approx[np.ix_(P, Q)].mean()

    def split_value(counts: np.ndarray) -> float:
        return float(counts @ means @ (sizes - counts))

    total_splits = 1
    for sz in sizes:
        total_splits *= int(sz) + 1
    if total_splits <= split_cap:
        best_counts = None
        best_val = -math.inf
        for counts in itertools.product(*(range(sz + 1) for sz in sizes)):
            v = split_value(np.array(counts))
            if v > best_val:
                best_val = v
                best_counts = counts
        grid_term = 0.0
        exact_split = True
    else:
        fracs = np.arange(0.0, 1.0 + delta / 2.0, delta)
        if fracs[-1] < 1.0:
            fracs = np.append(fracs, 1.0)
        if len(fracs) ** p > grid_cap:
            raise ValueError(
                f"{len(fracs)}^{p} grid points exceed the cap {grid_cap}")
        best_counts = None
        best_val = -math.inf
        for point in itertools.product(fracs, repeat=p):
            counts = np.floor(np.array(point) * sizes).astype(int)
            leftovers = [a for a in range(p)
                         if counts[a] < sizes[a] and point[a] * sizes[a] - counts[a] > 1e-12]
            while leftovers:
                gains = []
                base_val = split_value(counts)
                for a in leftovers:
                    trial = counts.copy()
                    trial[a] += 1
                    gains.append((split_value(trial) - base_val, a))
                gains.sort(key=lambda g: (-g[0], g[1]))
                if gains[0][0] <= 0:
                    break
                counts[gains[0][1]] += 1
                leftovers.remove(gains[0][1])
            v = split_value(counts)
            if v > best_val:
                best_val = v
                best_counts = tuple(int(c) for c in counts)
        grid_term = float(delta * np.sum(np.abs(approx)))
        exact_split = False

    X = []
    for a, P in enumerate(parts):
        X.extend(P[: best_counts[a]])
    X = tuple(sorted(X))
    Xc = tuple(i for i in range(A.shape[0]) if i not in set(X))
    estimate = float(rectangle_sum(approx, X, Xc)) if X and Xc else 0.0
    return {
        "estimate": estimate,
        "bipartition": X,
        "counts": tuple(int(c) for c in best_counts),
        "grid_term": grid_term,
        "exact_split": exact_split,
        "delta": delta,
        "weak_irregularity_ub": report.weak_irregularity_ub,
        "irregularity_exact": report.exact,
        "report": report,
    }


def max_cut_estimate(A, eps: float, delta: float | None = None, weights=None):
    """(cut value, vertex set) estimating the maximum cut of ``A``.

    The estimate is the cut value of the returned vertex set on the
    block-constant approximant; it is within ``weak_irregularity_ub +
    grid_term`` of the true maximum cut (see ``max_cut_details`` for those
    terms).
    """
    info = max_cut_details(A, eps, delta=delta, weights=weights)
    return info["estimate"], info["bipartition"]


def _block_deviation(M: Array, partition: Partition) -> float:
    worst = 0.0
    for P in partition:
        for Q in partition:
            sub = M[np.ix_(P, Q)]
            worst = max(worst, float(sub.max() - sub.min()))
    return worst


def _check_graph_matrix(A) -> Array:
    A = as_matrix(A, "adjacency")
    if A.shape[0] != A.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if np.max(np.abs(A - A.T)) > 1e-9:
        raise ValueError("adjacency matrix must be symmetric")
    if A.min() < 0:
        raise ValueError("adjacency matrix must be nonnegative")
    return A
