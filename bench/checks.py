"""Independent checks of pvdkit reports.

Each check recomputes what a report claims from the generated input, by a
route that shares no code with pvdkit: numpy subset enumeration, dense QR and
least squares, and scipy's symmetric eigensolver.  They test properties the
method must have (exact maxima, Parseval, refinement, the max-cut slack), and
never compare against a saved copy of earlier output.

``check(job, report, A)`` returns a list of disagreements; empty means the
report passed.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg

#: relative tolerance for values that pvdkit and the checks compute by
#: different floating-point routes
RTOL = 1e-8
ATOL = 1e-9

#: enumerated tables are built in row chunks of at most this many entries
CHUNK_ENTRIES = 1 << 20


def subsets(n: int) -> np.ndarray:
    """0/1 rows for the nonempty subsets of range(n), row k is mask k+1."""
    masks = np.arange(1, 2 ** n)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(float)


def enum_max(R: np.ndarray, d=None, e=None) -> float:
    """max over nonempty S, T of |R(S,T)| / sqrt(d(S) e(T)); plain sums when
    no weights are given."""
    m, n = R.shape
    U, V = subsets(m), subsets(n)
    UR = U @ R
    wS = np.ones(len(U)) if d is None else np.sqrt(U @ d)
    wT = np.ones(len(V)) if e is None else np.sqrt(V @ e)
    step = max(1, CHUNK_ENTRIES // len(V))
    best = 0.0
    for lo in range(0, len(U), step):
        vals = (UR[lo:lo + step] @ V.T) / np.outer(wS[lo:lo + step], wT)
        best = max(best, float(np.abs(vals).max()))
    return best


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _weights(ip: str, A: np.ndarray) -> np.ndarray:
    if ip == "degree":
        return A.sum(axis=1)
    if ip == "euclidean":
        return np.ones(A.shape[0])
    raise ValueError(f"checks support --ip euclidean or degree, not {ip!r}")


def _indexed(report: dict, A: np.ndarray) -> np.ndarray:
    """The input in the report's vertex order (edge lists are relabelled in
    order of first appearance)."""
    labels = report["input"].get("labels")
    if labels is None:
        return A
    perm = [int(x) for x in labels]
    if sorted(perm) != list(range(A.shape[0])):
        raise ValueError(f"labels {labels} are not a permutation of the vertices")
    return A[np.ix_(perm, perm)]


def _cut_atoms(pairs, d: np.ndarray) -> np.ndarray:
    """Rows: whitened unit atoms of the cut pairs (S, T) under weights d."""
    n = len(d)
    rows = []
    for S, T in pairs:
        u = np.zeros(n)
        z = np.zeros(n)
        u[S] = np.sqrt(d[S])
        z[T] = np.sqrt(d[T])
        rows.append(np.outer(u, z).ravel() / math.sqrt(d[S].sum() * d[T].sum()))
    return np.array(rows).reshape(len(rows), n * n)


def _projection(G: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least-squares projection of ``target`` onto the span of G's rows."""
    if len(G) == 0:
        return np.zeros_like(target)
    coef, *_ = np.linalg.lstsq(G.T, target, rcond=None)
    return G.T @ coef


def _is_partition(parts, n: int) -> bool:
    flat = sorted(v for p in parts for v in p)
    return flat == list(range(n)) and all(len(p) > 0 for p in parts)


def _refinement(pairs, n: int) -> list:
    groups: dict = {}
    for v in range(n):
        key = tuple((v in S, v in T) for S, T in pairs)
        groups.setdefault(key, []).append(v)
    return sorted(groups.values(), key=lambda g: g[0])


def _block_irregularity(A: np.ndarray, parts) -> float:
    """Sum over ordered block pairs of the within-block cut norm of A minus
    its block averages."""
    R = A.copy()
    for P in parts:
        for Q in parts:
            R[np.ix_(P, Q)] -= A[np.ix_(P, Q)].mean()
    return sum(enum_max(R[np.ix_(P, Q)]) for P in parts for Q in parts)


def _best_truncation_terms(sigmas, r: int) -> int:
    """Terms kept by the best truncation at rank r: the first index whose
    projection value is at most the RMS of the first r+1 values."""
    padded = np.zeros(r + 1)
    head = min(len(sigmas), r + 1)
    padded[:head] = sigmas[:head]
    rms = float(np.linalg.norm(padded)) / math.sqrt(r + 1)
    for i in range(1, r + 2):
        if padded[i - 1] <= rms * (1 + 1e-12):
            return min(i - 1, len(sigmas))
    raise AssertionError("some value is at most the RMS")


# ------------------------------------------------------------------ per command

def check_pvd(job, res, A, bad):
    d = _weights(job.ip, A)
    n = A.shape[0]
    W = np.sqrt(np.outer(d, d))
    a = (A / W).ravel()
    pairs = [(s["S"], s["T"]) for s in res["selected"]]
    k = len(pairs)
    sig = np.array(res["sigmas"], dtype=float)
    if k != res["num_terms"] or len(sig) != k:
        bad.append("term counts disagree")
        return
    if not close(res["source_frob_norm"], float(np.linalg.norm(a))):
        bad.append("source_frob_norm differs from the weighted Frobenius norm")
    G = _cut_atoms(pairs, d)
    Q = np.linalg.qr(G.T)[0] if k else np.zeros((n * n, 0))
    if not np.allclose(np.abs(Q.T @ a), sig, rtol=RTOL, atol=ATOL):
        bad.append("sigmas differ from the QR projection coefficients")
    mass = float(sig @ sig)
    total = float(a @ a)
    if mass > total * (1 + RTOL) + ATOL:
        bad.append(f"Parseval: sum of squared sigmas {mass} exceeds |A|^2 {total}")
    if res["exhausted"] and not close(mass, total):
        bad.append(f"Parseval: exhausted run captures {mass} of |A|^2 {total}")
    for j in range(k):
        resid = (a - Q[:, :j] @ (Q[:, :j].T @ a)).reshape(n, n) * W
        best = enum_max(resid, d, d)
        if not close(abs(res["step_values"][j]), best):
            bad.append(f"step {j}: value {res['step_values'][j]} but enumerated max {best}")
            return


def check_cutnorm(job, res, A, bad):
    if job.ip == "degree":
        d = e = A.sum(axis=1)
    else:
        d, e = np.ones(A.shape[0]), np.ones(A.shape[1])
    exact = enum_max(A, d, e)
    value = res["value"]
    eps = job.option("--eps")
    if eps is None:
        if not close(value, exact, 1e-9):
            bad.append(f"value {value} but enumerated maximum {exact}")
    elif not (exact / (1 + float(eps)) - ATOL <= value <= exact + ATOL):
        bad.append(f"value {value} outside [exact/(1+eps), exact] for exact {exact}")
    S, T = res["S"], res["T"]
    if not S or not T:
        bad.append("empty witness rectangle")
        return
    witness = A[np.ix_(S, T)].sum() / math.sqrt(d[S].sum() * e[T].sum())
    if not close(witness, res["signed_value"], 1e-9) or not close(abs(res["signed_value"]), value, 1e-12):
        bad.append(f"witness evaluates to {witness}, report says {res['signed_value']}")


def check_weakreg(job, res, A, bad):
    n = A.shape[0]
    d = _weights(job.ip, A)
    parts = res["parts"]
    if not _is_partition(parts, n) or res["num_parts"] != len(parts):
        bad.append("parts are not a partition of the vertices")
        return
    m = res["terms_used"]
    pairs = [(s["S"], s["T"]) for s in res["selected"][:m]]
    if _refinement(pairs, n) != parts:
        bad.append("parts differ from the common refinement of the used pairs")
    W = np.sqrt(np.outer(d, d))
    approx = _projection(_cut_atoms(pairs, d), (A / W).ravel()).reshape(n, n) * W
    irregularity = enum_max(A - approx)
    wub = res["weak_irregularity_ub"]
    if res["irregularity_exact"] and not close(wub, irregularity):
        bad.append(f"weak irregularity {wub} but enumeration gives {irregularity}")
    if wub < irregularity - RTOL * max(1.0, irregularity):
        bad.append(f"weak irregularity bound {wub} below the enumerated {irregularity}")
    if wub > res["bound_certificate"] + ATOL:
        bad.append("weak irregularity exceeds the tail bound")
    _check_szemeredi_value(res, A, bad)


def check_szemreg(job, res, A, bad):
    n = A.shape[0]
    parts = res["parts"]
    if not _is_partition(parts, n) or res["num_parts"] != len(parts):
        bad.append("parts are not a partition of the vertices")
        return
    if len(parts) > 4 ** res["terms_used"]:
        bad.append("more parts than the refinement of terms_used pairs allows")
    eps = float(job.option("--eps"))
    base = float(job.option("--base", 16.0))
    levels = [0]
    for _ in range(math.ceil(eps ** -2)):
        levels.append(math.ceil(base ** levels[-1]))
    if res["levels"] != levels:
        bad.append(f"ladder {res['levels']} differs from {levels}")
    threshold = eps ** 2 * res["mass_horizon"]
    pick = res["level_index"]
    windows = res["windows"]
    if windows[pick] > threshold * (1 + 1e-12) + ATOL or \
            any(w <= threshold * (1 + 1e-12) for w in windows[:pick]):
        bad.append("picked window is not the first below eps^2 * horizon mass")
    d = _weights(job.ip, A)
    if res["mass_horizon"] > float(np.sum(A * A / np.outer(d, d))) * (1 + RTOL) + ATOL:
        bad.append("captured mass exceeds the squared weighted Frobenius norm")
    _check_szemeredi_value(res, A, bad)


def _check_szemeredi_value(res, A, bad):
    sz = res["szemeredi_irregularity_ub"]
    if sz is not None:
        total = _block_irregularity(A, res["parts"])
        if not close(sz, total):
            bad.append(f"szemeredi irregularity {sz} but blockwise enumeration gives {total}")


def check_maxcut(job, res, A, bad):
    n = A.shape[0]
    X = np.vstack([np.zeros(n), subsets(n)])
    exact = float(np.max(np.sum((X @ A) * (1.0 - X), axis=1)))
    slack = res["weak_irregularity_ub"] + res["grid_term"]
    if abs(res["estimate"] - exact) > slack + 1e-6:
        bad.append(f"estimate {res['estimate']} is {abs(res['estimate'] - exact)} from the "
                   f"exact max cut {exact}, slack {slack}")
    side = res["bipartition"]
    if len(set(side)) != len(side) or not set(side) <= set(range(n)) \
            or sum(res["counts"]) != len(side):
        bad.append("bipartition is not a vertex set matching the split counts")


def check_classes(job, res, A, bad):
    n = A.shape[0]
    d = _weights(job.ip, A)
    params_r = min(3, A.size)
    deg = A.sum(axis=1)
    w = deg + deg.mean()
    core = 0.0
    for i in range(n):
        for j in range(n):
            core += A[i, j] ** 2 / (w[i] * w[j])
    if not close(res["core_density"], core, 1e-12):
        bad.append(f"core density {res['core_density']} but loops give {core}")
    lam = scipy.linalg.eigh(A / np.sqrt(np.outer(d, d)), eigvals_only=True)
    spectral = np.sort(np.abs(lam))[::-1][:params_r]
    if not np.allclose(res["spectral_projection_values"], spectral, rtol=1e-9, atol=1e-9):
        bad.append("spectral projection values differ from scipy's eigenvalues")
    mu = scipy.linalg.eigh(A / np.sqrt(np.outer(deg, deg)), eigvals_only=True)
    eps = 0.25
    trank = float(np.sum(mu[mu > eps] ** 2))
    if not close(res["threshold_rank"], trank, 1e-9):
        bad.append(f"threshold rank {res['threshold_rank']} but scipy gives {trank}")
    prof = res["profile"]
    if not close(prof["cut_mass_ratio"], A.sum() / d.sum(), 1e-12):
        bad.append("cut mass ratio differs from sum(A)/sum(weights)")
    prefix = float(np.linalg.norm(prof["sigmas"][:params_r]))
    if not close(prof["sigma_prefix_norm"], prefix, 1e-12):
        bad.append("sigma prefix norm differs from the norm of the reported sigmas")
    if prefix > float(np.linalg.norm(spectral)) + 1e-8:
        bad.append("cut projection values are not majorized by the spectral values")
    lp = res["lp_regularity"]
    if lp["mode"] == "exhaustive":
        best = _lp_regularity_max(A, 2.0, 2)
        if not close(lp["ratio"], best, 1e-9):
            bad.append(f"L_p regularity ratio {lp['ratio']} but enumeration gives {best}")


def _lp_regularity_max(A: np.ndarray, p: float, q: int) -> float:
    """Max over labelings into q classes of the block-density L_p ratio."""
    n = A.shape[0]
    labels = np.array(list(itertools.product(range(q), repeat=n)))
    X = [(labels == c).astype(float) for c in range(q)]
    sizes = [x.sum(axis=1) for x in X]
    acc = np.zeros(len(labels))
    for a in range(q):
        XA = X[a] @ A
        for b in range(q):
            size = sizes[a] * sizes[b]
            mass = np.sum(XA * X[b], axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                term = np.where(size > 0, size / n ** 2 * (mass / size) ** p, 0.0)
            acc += term
    mean_density = A.sum() / n ** 2
    return float(np.max(acc ** (1.0 / p)) / mean_density)


def check_cur(job, res, A, bad):
    eps = float(job.option("--eps"))
    r = math.ceil(eps ** -2)
    sig = np.array(res["sigmas"], dtype=float)
    pairs = [(s["column"], s["row"]) for s in res["selected"]]
    G = np.array([np.outer(A[:, c] / np.linalg.norm(A[:, c]),
                           A[i, :] / np.linalg.norm(A[i, :])).ravel() for c, i in pairs])
    a = A.ravel()
    Q = np.linalg.qr(G.T)[0]
    if not np.allclose(np.abs(Q.T @ a), sig, rtol=RTOL, atol=ATOL):
        bad.append("sigmas differ from the QR projection coefficients")
    m = _best_truncation_terms(sig, r)
    resid = A - _projection(G[:m], a).reshape(A.shape)
    cols = [A[:, j] / np.linalg.norm(A[:, j]) for j in range(A.shape[1]) if A[:, j].any()]
    rows = [A[i, :] / np.linalg.norm(A[i, :]) for i in range(A.shape[0]) if A[i, :].any()]
    restricted = float(np.max(np.abs(np.array(cols) @ resid @ np.array(rows).T)))
    frob = float(np.linalg.norm(A))
    if restricted > eps * frob + ATOL:
        bad.append(f"column/row residual norm {restricted} exceeds eps*|A|_F {eps * frob}")
    if not close(restricted, res["residual_pnorm_of_truncation"]):
        bad.append(f"residual norm {res['residual_pnorm_of_truncation']} but least squares "
                   f"gives {restricted}")
    if not close(res["source_frob_norm"], frob, 1e-12):
        bad.append("source_frob_norm differs from |A|_F")


def check_tensor(job, res, T, bad):
    sig = np.array(res["sigmas"], dtype=float)
    total = float(np.sum(T * T))
    if len(sig) > T.size or not close(float(sig @ sig), total):
        bad.append(f"Parseval: {len(sig)} values capture {float(sig @ sig)} of |T|^2 {total}")
    size = math.prod(2 ** k - 1 for k in T.shape)
    if res["domain_size"] != size:
        bad.append(f"domain size {res['domain_size']} but {size} cut tuples exist")


CHECKS = {
    "pvd": check_pvd, "cutnorm": check_cutnorm, "weakreg": check_weakreg,
    "szemreg": check_szemreg, "maxcut": check_maxcut, "classes": check_classes,
    "cur": check_cur, "tensor": check_tensor,
}


def check(job, report: dict, A: np.ndarray) -> list:
    """Disagreements between ``report`` and independent recomputation."""
    bad: list = []
    if report.get("command") != job.command:
        return [f"report is for {report.get('command')!r}"]
    CHECKS[job.command](job, report["results"], _indexed(report, A), bad)
    return bad
