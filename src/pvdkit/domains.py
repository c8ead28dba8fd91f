"""Restricted rank-one atom domains for the greedy projection engine.

A domain supplies, in whitened coordinates, the unit rank-one matrices the
engine may project onto ("atoms"), plus an exact maximizer of
``|<residual, atom>|`` over the whole domain.  The engine itself never looks
at weights: whitening happens here.

Tie-breaking is uniform across domains: among candidates within ``atol``
of the best value, the lexicographically smallest canonical key wins (subset
masks for cut pairs, whose candidates are the prefix-and-suffix rectangles
of the ``sweep``, (column, row) for column-row pairs, the index for
explicit lists).
"""
from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np
import numpy.linalg as la

from .cutnorm import BRUTE_FORCE_CAP, COMPLETION_CAP, cut_lp_exact
from .linalg import ATOL, as_matrix, as_weights, ip_norm, tensor_whitener
from .sweep import _SweepTables, _mask_set, _set_mask, _sweep_pick


class UnsupportedDomain(ValueError):
    """Raised when an operation needs more from a domain than it can give
    (enumeration of an infinite domain or beyond its cap, an LP cut step
    with non-integer weights or on a residual with both signs)."""


class CutDomain:
    """All pairs of normalized indicator vectors (one per nonempty subset).

    Parameters
    ----------
    d_left, d_right : array_like
        Strictly positive weight vectors; ``d_right`` defaults to ``d_left``.
    bf_cap : int
        Largest side that ``atoms`` enumerates.  A greedy step is the exact
        sweep over the smaller side (``sweep``) when the longer side is
        within ``bf_cap`` or the smaller side within
        ``cutnorm.COMPLETION_CAP``; past both it takes the LP route
        ``cutnorm.cut_lp_exact``, which needs integer weights and a
        one-signed residual.
    """

    def __init__(self, d_left, d_right=None, bf_cap: int = BRUTE_FORCE_CAP):
        d = np.asarray(d_left, dtype=float)
        e = d if d_right is None else np.asarray(d_right, dtype=float)
        m, n = d.shape[0], e.shape[0]
        self.weights = (as_weights(d, m, "left weights"), as_weights(e, n, "right weights"))
        self.shape = (m, n)
        self.bf_cap = bf_cap
        self.whitener = np.sqrt(np.outer(*self.weights))
        self._tables = None  # the swept side's ``_SweepTables``, from the first sweep on

    def size(self):
        m, n = self.shape
        return (2**m - 1) * (2**n - 1)

    def atom(self, key) -> np.ndarray:
        smask, tmask = key
        d, e = self.weights
        S = np.array(_mask_set(smask), dtype=int)
        T = np.array(_mask_set(tmask), dtype=int)
        u = np.zeros(self.shape[0])
        z = np.zeros(self.shape[1])
        u[S] = np.sqrt(d[S])
        z[T] = np.sqrt(e[T])
        # single combined division: exact when the weight masses multiply to
        # a perfect square (e.g. unit weights on a square support)
        return np.outer(u, z) / np.sqrt(d[S].sum() * e[T].sum())

    def atoms(self):
        m, n = self.shape
        if max(m, n) > self.bf_cap:
            raise UnsupportedDomain(f"cut domain on {self.shape} too large to enumerate")
        for smask in range(1, 2**m):
            for tmask in range(1, 2**n):
                yield (smask, tmask), self.atom((smask, tmask))

    def describe(self, key) -> dict:
        return {"kind": "cut", "S": list(_mask_set(key[0])), "T": list(_mask_set(key[1]))}

    def max_step(self, resid_white, atol: float = ATOL):
        d, e = self.weights
        R = resid_white * self.whitener
        if max(self.shape) <= self.bf_cap or min(self.shape) <= COMPLETION_CAP:
            if self._tables is None:
                self._tables = _SweepTables(d if self.shape[0] <= self.shape[1] else e,
                                            max(self.shape))
            S, T, value = _sweep_pick(R, d, e, atol, tables=self._tables)[-1]
            return (_set_mask(S), _set_mask(T)), value
        try:
            pair = cut_lp_exact(R, d, e, atol=atol)
        except ValueError as exc:
            raise UnsupportedDomain(str(exc)) from exc
        return pair.masks(), pair.value


class FactorDomain:
    """Every combination of one row per mode of per-mode factor matrices.

    Mode ``k`` holds a matrix whose rows are unit vectors in whitened
    coordinates, each with a label; the atom of the key ``(l_0, l_1, ...)``
    is the outer product of the labelled rows, and keys run in
    ``itertools.product`` order of the labels.  The maximizer contracts the
    residual with each factor matrix in turn (``U R Z^T`` for two modes), so
    no atom is formed and the memory is one value per atom.
    """

    def __init__(self, factors, labels, weights):
        self.factors = tuple(factors)
        self.labels = tuple(labels)
        self._rows = tuple({lab: i for i, lab in enumerate(labs)} for labs in self.labels)
        self.weights = tuple(weights)
        self.shape = tuple(F.shape[1] for F in self.factors)
        self.whitener = tensor_whitener(self.shape, self.weights)

    def size(self):
        return math.prod(len(labs) for labs in self.labels)

    def atom(self, key) -> np.ndarray:
        return _rank_one([F[rows[lab]] for F, rows, lab in zip(self.factors, self._rows, key)])

    def atoms(self):
        for key in itertools.product(*self.labels):
            yield key, self.atom(key)

    def max_step(self, resid_white, atol: float = ATOL):
        vals = resid_white
        for F in self.factors:
            vals = np.tensordot(vals, F, axes=([0], [1]))
        idx = np.unravel_index(_first_best(vals.ravel(), atol), vals.shape)
        return tuple(labs[i] for labs, i in zip(self.labels, idx)), float(vals[idx])


class ColumnRowDomain(FactorDomain):
    """Normalized (column, row) pairs of a source matrix, Euclidean geometry.

    Zero columns/rows are skipped; pairs whose normalized vectors coincide
    (after orienting the first nonzero entry positive) within 1e-12 are
    deduplicated, keeping the first in (column index, row index) order.  A
    pair survives exactly when its column survives that rule among the
    columns and its row among the rows, so the factors are the kept columns
    and the kept rows.
    """

    def __init__(self, source):
        A = as_matrix(source, "source")
        columns, U = _distinct_directions(A.T)
        rows, Z = _distinct_directions(A)
        if not columns:
            raise ValueError("source matrix has no nonzero column/row pair")
        m, n = A.shape
        super().__init__((U, Z), (columns, rows), (np.ones(m), np.ones(n)))

    # bound here as well because bench/recorder.py wraps them from the class __dict__
    atom = FactorDomain.atom
    max_step = FactorDomain.max_step

    def describe(self, key) -> dict:
        return {"kind": "column-row", "column": key[0], "row": key[1]}


class ExplicitTuples:
    """A fixed list of vector tuples, normalized per mode on construction.

    Mode ``k`` stacks the whitened ``k``-th vectors of all tuples into one
    matrix; the maximizer contracts the residual with every tuple's rows at
    once, so no atom is formed.  Duplicates are kept as given: they are
    harmless (never selected while an independent direction remains) and
    exercising them is part of the engine's contract.
    """

    def __init__(self, tuples, weights=None):
        tuples = [tuple(np.asarray(v, dtype=float) for v in t) for t in tuples]
        if not tuples:
            raise ValueError("need at least one tuple")
        shape = tuple(v.shape[0] for v in tuples[0])
        if weights is None:
            weights = [np.ones(n) for n in shape]
        self.weights = tuple(as_weights(np.asarray(w, dtype=float), n)
                             for w, n in zip(weights, shape))
        self.shape = shape
        self.whitener = tensor_whitener(shape, self.weights)
        self._tuples = []
        for idx, t in enumerate(tuples):
            if tuple(v.shape[0] for v in t) != shape:
                raise ValueError(f"tuple {idx} has mismatched mode sizes")
            norms = [ip_norm(v, w) for v, w in zip(t, self.weights)]
            if 0.0 in norms:
                raise ValueError(f"tuple {idx} contains a zero vector")
            self._tuples.append(tuple(v / nv for v, nv in zip(t, norms)))
        self.factors = [np.stack([np.sqrt(w) * t[k] for t in self._tuples])
                         for k, w in enumerate(self.weights)]

    def size(self):
        return len(self._tuples)

    def atom(self, key) -> np.ndarray:
        return _rank_one([F[key] for F in self.factors])

    def atoms(self):
        for idx in range(len(self._tuples)):
            yield idx, self.atom(idx)

    def describe(self, key) -> dict:
        return {"kind": "explicit-tuple", "index": key,
                "vectors": [v.tolist() for v in self._tuples[key]]}

    def max_step(self, resid_white, atol: float = ATOL):
        vals = np.tensordot(self.factors[0], resid_white, axes=([1], [0]))
        for F in self.factors[1:]:
            vals = np.einsum("ij...,ij->i...", vals, F)
        idx = _first_best(vals, atol)
        return idx, float(vals[idx])


class ExplicitDomain(ExplicitTuples):
    """The two-mode case: a caller-supplied list of (v, w) pairs, normalized
    on construction under the left and right weights."""

    def __init__(self, pairs, d_left=None, d_right=None):
        pairs = list(pairs)
        if not pairs:
            raise ValueError("explicit domain needs at least one pair")
        v0, w0 = pairs[0]
        m, n = np.asarray(v0).shape[0], np.asarray(w0).shape[0]
        super().__init__(pairs, (as_weights(d_left, m, "left weights"),
                                 as_weights(d_right, n, "right weights")))

    def describe(self, key) -> dict:
        v, w = self._tuples[key]
        return {"kind": "explicit", "index": key, "v": v.tolist(), "w": w.tolist()}


class FullSphereDomain:
    """Every unit pair: the greedy maximizer is the top singular pair of the
    whitened residual, so the decomposition reproduces the singular values.
    Not enumerable; certificate routines that need the full atom list reject
    this domain."""

    def __init__(self, d_left, d_right=None):
        d = np.asarray(d_left, dtype=float)
        e = d if d_right is None else np.asarray(d_right, dtype=float)
        m, n = d.shape[0], e.shape[0]
        self.weights = (as_weights(d, m), as_weights(e, n))
        self.shape = (m, n)
        self.whitener = np.sqrt(np.outer(*self.weights))

    def size(self):
        return None

    def atom(self, key) -> np.ndarray:
        u = np.asarray(key[0], dtype=float)
        z = np.asarray(key[1], dtype=float)
        return np.outer(u, z)

    def atoms(self):
        raise UnsupportedDomain("the full unit sphere cannot be enumerated")

    def describe(self, key) -> dict:
        d, e = self.weights
        u = np.asarray(key[0]) / np.sqrt(d)
        z = np.asarray(key[1]) / np.sqrt(e)
        return {"kind": "unit-pair", "v": u.tolist(), "w": z.tolist()}

    def max_step(self, resid_white, atol: float = ATOL):
        U, s, Vt = la.svd(resid_white)
        u = U[:, 0]
        z = Vt[0]
        k = int(np.argmax(np.abs(u)))
        if u[k] < 0:  # deterministic orientation; the atom is unchanged
            u = -u
            z = -z
        return (tuple(float(x) for x in u), tuple(float(x) for x in z)), float(s[0])


def _first_best(vals: np.ndarray, atol: float) -> int:
    """Index of the first value within ``atol`` of the largest magnitude."""
    mags = np.abs(vals)
    return int(np.nonzero(mags >= float(np.max(mags)) - atol)[0][0])


def _rank_one(factors) -> np.ndarray:
    return reduce(np.multiply.outer, factors)


def _distinct_directions(vectors):
    """Indices and normalized, oriented copies of the nonzero ``vectors``,
    skipping each one within 1e-12 (max-abs) of a copy already kept."""
    keep, units = [], []
    for k, x in enumerate(vectors):
        nx = la.norm(x)
        if nx == 0.0:
            continue
        u = _orient(x / nx)
        if units and np.min(np.max(np.abs(np.array(units) - u), axis=1)) <= 1e-12:
            continue
        keep.append(k)
        units.append(u)
    return keep, np.array(units)


def _orient(x: np.ndarray) -> np.ndarray:
    nz = np.nonzero(x)[0]
    if nz.size and x[nz[0]] < 0:
        return -x
    return x
