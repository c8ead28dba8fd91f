"""Greedy projection decomposition over a restricted rank-one domain.

Each step picks the atom with the largest absolute whitened inner product
against the current residual, orthonormalizes it against the atoms already
used (two Gram-Schmidt passes), and subtracts the projection of the residual
onto the new direction.  The recorded projection values are the weighted
Frobenius norms of the successive partial-projection differences; their
Euclidean norm equals the norm of the projection of the source onto the span
of every atom the domain offers, which is what `verify_pvd` checks: against
the source norm for the cut domain (whose atoms span every matrix), by an
independent dense least-squares route for the others.

Everything here is dimension-agnostic: the engine flattens whitened arrays,
so matrix and tensor domains share it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.linalg as la

from .domains import CutDomain, UnsupportedDomain
from .linalg import ATOL, DEPENDENCE_RTOL, stable_norm

Array = np.ndarray

VERIFY_ATOM_CAP = 70_000
VERIFY_FROB_RTOL = 1e-8
VERIFY_STEP_ATOL = 1e-9


@dataclass
class PvdResult:
    """Outcome of a greedy run.

    ``keys``/``values`` record the selected atoms and their signed form
    values; ``sigmas`` the projection values; ``coeffs`` the signed expansion
    coefficients along the orthonormalized directions (``sigmas ==
    |coeffs|``).  ``increments`` are in original (unwhitened) coordinates;
    ``basis_white`` holds the flattened orthonormal rows the engine actually
    worked with. ``residual_pnorm`` is the domain-restricted
    norm of the final residual; ``exhausted`` says whether it is at most the
    stopping threshold ``atol`` (as opposed to the run hitting ``max_terms``
    or a numerically dependent atom).
    """

    domain: object
    source: Array
    keys: list
    values: Array
    sigmas: Array
    coeffs: Array
    increments: list = field(repr=False)
    basis_white: Array = field(repr=False)
    residual_pnorm: float
    exhausted: bool
    atol: float

    @property
    def shape(self):
        return self.source.shape

    @property
    def num_terms(self) -> int:
        return len(self.keys)

    @property
    def source_frob_norm(self) -> float:
        return stable_norm(self.source / self.domain.whitener)

    def selected_pairs(self) -> list:
        return [self.domain.describe(k) for k in self.keys]


def _gs_insert(g_flat: Array, basis: Array, used: int):
    """Orthonormalize ``g_flat`` against the first ``used`` rows of ``basis``;
    None when the candidate is dependent up to ``DEPENDENCE_RTOL``."""
    nrm0 = la.norm(g_flat)
    v = g_flat.copy()
    if used:
        Q = basis[:used]
        v -= Q.T @ (Q @ v)
        v -= Q.T @ (Q @ v)
    nrm = la.norm(v)
    if nrm <= DEPENDENCE_RTOL * nrm0:
        return None
    return v / nrm


def orthogonal_increment(candidate, basis, d_left=None, d_right=None):
    """Unit component of ``candidate`` orthogonal to ``basis``, or None.

    Parameters
    ----------
    candidate : array_like
        Matrix to orthonormalize, original coordinates.
    basis : sequence of array_like
        Matrices already orthonormal under the weighted Frobenius inner
        product (the caller is trusted on this).
    d_left, d_right : array_like, optional
        Weight vectors; default unit.

    Returns
    -------
    ndarray or None
        Unit-norm matrix orthogonal to every basis element, or None when the
        candidate lies in their span up to the dependence tolerance.
    """
    C = np.asarray(candidate, dtype=float)
    m, n = C.shape
    d = np.ones(m) if d_left is None else np.asarray(d_left, dtype=float)
    e = np.ones(n) if d_right is None else np.asarray(d_right, dtype=float)
    wh = np.sqrt(np.outer(d, e))
    flats = [np.asarray(B, dtype=float) / wh for B in basis]
    Q = (np.stack([f.ravel() for f in flats]) if flats
         else np.zeros((0, C.size)))
    q = _gs_insert((C / wh).ravel(), Q, len(flats))
    if q is None:
        return None
    return q.reshape(C.shape) * wh


def compute_pvd(source, domain, max_terms=None, atol: float = ATOL) -> PvdResult:
    """Run the greedy projection decomposition of ``source`` over ``domain``.

    Parameters
    ----------
    source : array_like
        Matrix (or tensor, for tensor domains) matching ``domain.shape``.
    domain : object
        Atom domain; see the domain classes for the protocol.
    max_terms : int, optional
        Cap on the number of terms; default runs until the residual's
        domain-restricted norm falls below ``atol`` (never more than
        ``source.size`` steps).
    atol : float, optional
        Stopping threshold and tie-band width (default ``linalg.ATOL``).

    Returns
    -------
    PvdResult
    """
    A = np.asarray(source, dtype=float)
    if A.shape != tuple(domain.shape):
        raise ValueError(f"source shape {A.shape} does not match domain shape {tuple(domain.shape)}")
    if not np.all(np.isfinite(A)):
        raise ValueError("source must be finite")
    N = A.size
    cap = N if max_terms is None else min(int(max_terms), N)
    if cap < 0:
        raise ValueError("max_terms must be nonnegative")

    Aw = A / domain.whitener
    Rw = Aw.copy()
    basis = np.zeros((cap, N))
    keys: list = []
    values: list[float] = []
    coeffs: list[float] = []
    used = 0
    final_pnorm = None
    exhausted = False

    for _ in range(cap):
        key, value = domain.max_step(Rw, atol)
        if abs(value) <= atol:
            final_pnorm = abs(value)
            exhausted = True
            break
        g = domain.atom(key).ravel()
        q = _gs_insert(g, basis, used)
        if q is None:
            # An exact maximizer with nonzero value is independent of the
            # previous atoms; landing here means the greedy step is drowned
            # in roundoff, so stop rather than divide by noise.
            final_pnorm = abs(value)
            break
        c = float(np.dot(Rw.ravel(), q))
        Rw = Rw - (c * q).reshape(A.shape)
        basis[used] = q
        used += 1
        keys.append(key)
        values.append(float(value))
        coeffs.append(c)

    if final_pnorm is None:
        _, value = domain.max_step(Rw, atol)
        final_pnorm = abs(float(value))
        exhausted = final_pnorm <= atol

    basis = basis[:used]
    wh = domain.whitener
    increments = [coeffs[j] * basis[j].reshape(A.shape) * wh for j in range(used)]
    return PvdResult(
        domain=domain,
        source=A,
        keys=keys,
        values=np.array(values),
        sigmas=np.abs(np.array(coeffs)),
        coeffs=np.array(coeffs),
        increments=increments,
        basis_white=basis,
        residual_pnorm=float(final_pnorm),
        exhausted=exhausted,
        atol=atol,
    )


def p_norm(A, domain, atol: float = ATOL) -> float:
    """Domain-restricted norm: the largest |<A, atom>| over the domain."""
    A = np.asarray(A, dtype=float)
    _, value = domain.max_step(A / domain.whitener, atol)
    return abs(float(value))


def truncate(result: PvdResult, num_terms: int) -> Array:
    """Sum of the first ``num_terms`` increments (zero matrix for 0)."""
    if not 0 <= num_terms <= result.num_terms:
        raise ValueError(f"num_terms must be in [0, {result.num_terms}]")
    out = np.zeros(result.shape)
    for inc in result.increments[:num_terms]:
        out += inc
    return out


def tail_rms(sigmas, r: int):
    """RMS of the first ``r + 1`` projection values, missing ones counted as
    zero: ``||(sigma_1..sigma_{r+1})||_2 / sqrt(r+1)``."""
    padded = np.zeros(r + 1)
    head = min(len(sigmas), r + 1)
    padded[:head] = sigmas[:head]
    return stable_norm(padded) / math.sqrt(r + 1)


def best_truncation(result: PvdResult, r: int):
    """First truncation whose next projection value is at most the RMS tail.

    Returns ``(truncation, index)`` where ``index`` is the smallest 1-based
    ``i <= r+1`` with ``sigma_i <= ||(sigma_1..sigma_{r+1})||_2 / sqrt(r+1)``
    and ``truncation`` keeps ``index - 1`` terms.  Projection values past the
    end of an exhausted run count as zero; a run that stopped early without
    exhausting the domain cannot certify the tail and raises.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    sig = result.sigmas
    if len(sig) < r + 1 and not result.exhausted:
        raise ValueError("need r+1 projection values (or an exhausted run)")
    threshold = tail_rms(sig, r)
    for i in range(1, r + 2):
        value = sig[i - 1] if i <= len(sig) else 0.0
        # tiny relative slack so the all-equal case picks index 1 despite roundoff
        if value <= threshold * (1 + 1e-12):
            return truncate(result, min(i - 1, result.num_terms)), i
    raise AssertionError("unreachable: some value is at most the RMS")


def combination_coefficients(result: PvdResult, num_terms: int) -> Array:
    """Least-squares coefficients expressing ``truncate(result, num_terms)``
    over the selected atoms themselves (original coordinates)."""
    if not 0 <= num_terms <= result.num_terms:
        raise ValueError(f"num_terms must be in [0, {result.num_terms}]")
    if num_terms == 0:
        return np.zeros(0)
    wh = result.domain.whitener
    G = np.stack([result.domain.atom(k).ravel() for k in result.keys[:num_terms]])
    target = (truncate(result, num_terms) / wh).ravel()
    alpha, *_ = la.lstsq(G.T, target, rcond=None)
    return alpha


def roundoff_slack(src_norm: float) -> float:
    """A certificate's slack at the scale of a whitened source norm."""
    return max(VERIFY_STEP_ATOL, 1e-12 * src_norm)


def certificate(name: str, lhs: float, rhs: float) -> dict:
    """One report certificate: the claim ``lhs <= rhs``, both sides as floats."""
    return {"name": name, "lhs": float(lhs), "rhs": float(rhs),
            "pass": bool(float(lhs) <= float(rhs))}


def verify_pvd(result: PvdResult) -> dict:
    """Replay a finished run against independent computations.

    Checks, each reported as a named (lhs, rhs, pass) certificate:

    * ``projection-identity``: the Euclidean norm of the projection values
      against the weighted Frobenius norm of the projection of the source
      onto the span of *all* atoms (two-sided for exhausted runs, one-sided
      otherwise), within ``VERIFY_FROB_RTOL`` times the whitened source norm
      (at least 1).  The cut domain holds every singleton rectangle, so its
      atoms span all matrices and the target is the whitened source norm
      itself (Parseval); for every other domain it is the dense
      least-squares projection onto the stacked atoms.
    * ``basis-orthonormality``: largest deviation of the basis Gram matrix
      from the identity, against ``VERIFY_FROB_RTOL``.
    * ``step-dominance``: each projection value must cover the
      domain-restricted norm of the residual it was extracted from.
    * ``truncation-chain-residual`` / ``truncation-chain-source``: for every
      certifiable ``r``, the best truncation's residual norm against the RMS
      tail bound, and that bound against the source-norm bound.  These three
      allow ``roundoff_slack`` of the whitened source norm.

    Raises ``UnsupportedDomain`` when a domain other than the cut domain
    cannot be enumerated or has more than ``VERIFY_ATOM_CAP`` atoms.
    """
    domain = result.domain
    Aw = (result.source / domain.whitener).ravel()
    src_norm = stable_norm(Aw)
    if isinstance(domain, CutDomain):
        proj_norm = src_norm
    else:
        size = domain.size()
        if size is None:
            raise UnsupportedDomain("verification needs an enumerable domain")
        if size > VERIFY_ATOM_CAP:
            raise UnsupportedDomain(
                f"domain has {size} atoms; verification cap is {VERIFY_ATOM_CAP}")
        G = np.stack([atom.ravel() for _, atom in domain.atoms()])
        coef, *_ = la.lstsq(G.T, Aw, rcond=None)
        proj_norm = stable_norm(G.T @ coef)

    certs = []
    sig_norm = stable_norm(result.sigmas)
    allowance = VERIFY_FROB_RTOL * max(1.0, src_norm)
    gap = abs(sig_norm - proj_norm) if result.exhausted else sig_norm - proj_norm
    certs.append(certificate("projection-identity", gap, allowance))

    if result.num_terms:
        gram = result.basis_white @ result.basis_white.T
        ortho = float(np.max(np.abs(gram - np.eye(result.num_terms))))
    else:
        ortho = 0.0
    certs.append(certificate("basis-orthonormality", ortho, VERIFY_FROB_RTOL))

    worst = -math.inf
    Rw = (result.source / domain.whitener).copy()
    for j in range(result.num_terms):
        _, value = domain.max_step(Rw, result.atol)
        worst = max(worst, abs(value) - result.sigmas[j])
        Rw -= result.increments[j] / domain.whitener
    slack = roundoff_slack(src_norm)
    if result.num_terms:
        certs.append(certificate("step-dominance", worst, slack))

    r_max = result.num_terms if result.exhausted else result.num_terms - 1
    chain_resid = -math.inf
    chain_source = -math.inf
    resid_at = {}  # truncation index -> its residual norm; many r share one
    for r in range(0, r_max + 1):
        approx, idx = best_truncation(result, r)
        if idx not in resid_at:
            resid_at[idx] = p_norm(result.source - approx, domain, result.atol)
        tail = float(tail_rms(result.sigmas, r))
        chain_resid = max(chain_resid, resid_at[idx] - tail)
        chain_source = max(chain_source, tail - src_norm / math.sqrt(r + 1))
    if r_max >= 0:
        certs.append(certificate("truncation-chain-residual", chain_resid, slack))
        certs.append(certificate("truncation-chain-source", chain_source, slack))

    return {"pass": all(c["pass"] for c in certs), "certificates": certs}
