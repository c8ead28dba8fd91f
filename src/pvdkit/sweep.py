"""The exact sweep over the row sets of the smaller side: the one exact
maximizer of ``|A(S,T)| / sqrt(d(S) e(T))`` behind the exact routes of
``cutnorm`` and the greedy step of ``domains.CutDomain``, and of the plain
form ``|A(S,T)|``.

The sweep rests on a prefix lemma.  Fix a row set ``S`` with row sums ``r``
and positive column weights ``e``.  On the box ``[0, 1]^n`` the function
``(r.x)^2 / (e.x)`` is convex, so its maximum over nonempty column sets is
attained at a vertex where no single-column flip has a positive gradient.
The gradient in column ``j`` has the sign of ``(r.x) (2 r_j - lam e_j)`` with
``lam = (r.x)/(e.x)``, so the best column set is cut off by the threshold
``r_j/e_j = lam/2``: with the columns sorted by ``r_j/e_j`` in decreasing
order it is a prefix for a positive sum and a suffix for a negative one.
This holds for any positive weights.  A column exactly at the threshold
would gain by a flip, by convexity, so every best column set is such a
prefix or suffix, whatever order the sort gives tied ratios.  For the plain
form ``|A(S,T)|`` the best column set is the positive or the negative
support of ``r``.

The tie rule of every exact normalized maximization: the candidates are
the prefixes and suffixes of each swept set's sorted other side whose sweep
value lies within the tolerance of the maximum, and the pick is the
candidate with the smallest (S mask, T mask), valued by its own sweep.  By
the lemma the candidates hold every rectangle of the largest value; a
rectangle within the tolerance of it that is no prefix or suffix is never
picked.

Most row sets need no sort.  The best column set of a row set lies in the
support of one sign of ``r`` (its columns pass the threshold ``lam/2``), so
by Cauchy-Schwarz over that support ``ub(S) = sqrt(max(P, N)) / sqrt(d(S))``
bounds the value of every candidate of ``S``, where ``P`` and ``N`` sum
``r_j^2 / e_j`` over the positive and over the negative ``r_j``.  The row
sets go in mask order, in chunks of ``SWEEP_CHUNK_ROWS`` (2^14, so a swept
side up to 14 is one chunk): the first chunk's row sums are one product with
the 0/1 indicators of the low rows, and each later chunk adds its high rows
to them.  In each chunk the row set with the largest bound is sorted first;
the best value so far, a real rectangle's value, is a running lower bound
``lb``, and only the chunk's row sets whose bound is within the tolerance of
``lb`` are sorted, each once, in blocks of ``SWEEP_BLOCK_ROWS``.  A dropped
row set is below the maximum less the tolerance, so it holds no candidate.
The sweep holds the sorted row sets within the tolerance of the best so
far until the maximum is known, and once they pass a block it thins them to
those that can still hold the pick (a candidate above every candidate before
it in the tie rule's order) or the first candidate of the largest value.
Each row sum adds its rows to +0 in increasing order, and each mass ``d(S)``
is a row of one matrix-vector product with the indicators, so the chunks
change no bit of any value or pick.  The plain form is swept the same way
(``_plain_pick`` behind ``cut_norm_bruteforce``, ``_plain_cut_norm`` behind
the exact cut norm bound of ``regularity``), summing support by support only
the row sets whose ``(|r|_1 + |sum r|) / 2``, their value up to rounding,
comes near the best, and so is the largest cut ``A(X, X^c)`` (``_max_cut``).
No caller outside this module builds an indicator table or walks the
chunks.

Cost and memory.  Sweeping a side of ``m`` costs ``O(2^m n)`` for the row
sums and bounds plus ``O(k n log n)`` for the ``k`` sorted row sets (a median
of 0.4% of them, mean 2.3%, over the steps of the greedy runs on G(8-12,
1/2) of the benchmark's graphs-enum workload), instead of the
``2^m 2^n`` rectangle table.  It holds ``O(SWEEP_CHUNK_ROWS n)`` numbers at a
time, besides the ``2^m`` row-set masses (34 MB at ``m = 22``), which a
``domains.CutDomain`` keeps between its steps with its work arrays.
``COMPLETION_CAP`` = 22 caps the swept side past ``BRUTE_FORCE_CAP``: a step
on a G(22, 1/2) residual takes 0.66-0.69 s at 81 MB peak RSS (2 vCPUs,
Python 3.11, numpy 2.4), the first step of a domain 0.1 s more for its
masses, and each further side about doubles the time and the masses.
"""
from __future__ import annotations

import math

import numpy as np

#: row sets per chunk of a sweep: a sweep holds the row sums of one chunk at a
#: time.  A power of two, and at least 4: the row-set masses are a product
#: taken in blocks of this many rows, which rounds as one product does only
#: when a block is a multiple of the four rows a BLAS kernel takes at a time
SWEEP_CHUNK_ROWS = 1 << 14

#: row sets per block of the sort, so that the sort's temporaries and the
#: sorted row sets a sweep holds stay within a few blocks
SWEEP_BLOCK_ROWS = 512


def _set_mask(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << int(i)
    return mask


def _mask_set(mask: int) -> tuple:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _low_indicators(m: int) -> np.ndarray:
    """0/1 rows of every subset of the first ``c`` of ``m`` rows, in mask
    order from mask 0, where ``2^c`` is ``SWEEP_CHUNK_ROWS`` or less when
    ``m`` is smaller: the table that ``_row_sums`` builds each chunk from."""
    c = min(m, SWEEP_CHUNK_ROWS.bit_length() - 1)
    low = np.zeros((2**c, c))
    for k in range(c):
        low[2**k : 2 ** (k + 1), :k] = low[: 2**k, :k]
        low[2**k : 2 ** (k + 1), k] = 1.0
    return low


def _subset_sums(w, low) -> np.ndarray:
    """``U @ w`` for the 0/1 rows ``U`` of every nonempty subset of
    ``range(len(w))``, entry ``mask - 1`` (``low`` the ``_low_indicators``
    of ``len(w)``).  The product is taken in blocks of ``SWEEP_CHUNK_ROWS``
    rows from mask 1, which round as one product with the whole table does,
    and the table is never built: a block is the low rows' indicators from
    mask 1 on beside the high rows' bits of the block, and a last row of the
    next high bits."""
    m, c = len(w), low.shape[1]
    if m == c:
        return low[1:] @ w
    out = np.empty(2**m - 1)
    U = np.empty((len(low), m))
    U[:-1, :c] = low[1:]
    U[-1, :c] = 0.0
    high = np.arange(m - c)
    for j in range(2 ** (m - c)):
        U[:-1, c:] = (j >> high) & 1
        U[-1, c:] = ((j + 1) >> high) & 1
        rows = U if j + 1 < 2 ** (m - c) else U[:-1]
        out[j * len(low) : j * len(low) + len(rows)] = rows @ w
    return out


class _SweepTables:
    """What a sweep over one side keeps between its calls: the
    ``_low_indicators`` of the side and the square roots of its row-set
    masses ``w(S)`` (entry ``mask - 1``).  With ``n``, as a ``CutDomain``
    keeps them between its steps, also the ``_row_sums`` work arrays of one
    chunk's row sums against ``n`` columns, which spare a step the page
    faults of a fresh array that size."""

    def __init__(self, w, n: int | None = None):
        self.low = _low_indicators(len(w))
        roots = _subset_sums(w, self.low)
        self.roots = np.sqrt(roots, out=roots)
        size = (len(self.low), n)
        self.work = (np.empty(size), np.empty(size) if len(w) > self.low.shape[1] else None
                     ) if n else (None, None)


def _row_sums(A, low, work=(None, None)):
    """The row sums of every nonempty row set of ``A`` in mask order, as
    ``(lo, R)`` chunks of at most ``SWEEP_CHUNK_ROWS`` row sets: row ``i`` of
    ``R`` sums the rows of mask ``lo + i``.  ``low`` is the
    ``_low_indicators`` table of ``A``'s rows; its product with the low rows
    gives the first chunk, and each later chunk adds its high rows to it one
    by one, into the arrays ``work`` when given (a chunk is overwritten by
    the next).  Each sum adds its rows to +0 in increasing order, as the
    product with the 0/1 indicators of all the rows does."""
    c = low.shape[1]
    if A.shape[1] == 1:
        # a one-column product is a matrix-vector one, whose sums depend on
        # the row's place, so it is taken as ``_subset_sums`` takes it
        R = _subset_sums(A[:, 0], low)[:, None]
        yield 1, R[: len(low) - 1]
        for lo in range(len(low), 2 ** A.shape[0], len(low)):
            yield lo, R[lo - 1 : lo - 1 + len(low)]
        return
    first = np.matmul(low, A[:c], out=work[0])
    yield 1, first[1:]
    for high in range(1, 2 ** (A.shape[0] - c)):
        rows = [c + k for k in range(A.shape[0] - c) if high >> k & 1]
        R = np.add(first, A[rows[0]], out=work[1])
        for k in rows[1:]:
            R += A[k]
        yield high << c, R


def _prefix_values(R, e, w) -> tuple:
    """Each row's column order by ``r_j / e_j``, increasing, and the values
    ``r(T) / sqrt(e(T)) / w`` of its prefixes (which hold the negative
    optimum) and of its suffixes (which hold the positive one), shortest
    first, shape ``(rows, 2, n)``.  Each row is evaluated on its own, so its
    values do not depend on its chunk or on the other rows."""
    n = R.shape[1]
    order = (R / e).argsort(axis=1)
    ends = np.concatenate([order, order[:, ::-1]], axis=1).reshape(len(R), 2, n)
    cumsum = np.add.accumulate  # ``np.cumsum`` less its call overhead, which a one-row call feels
    sums = cumsum(R[np.arange(len(R))[:, None, None], ends], axis=2)
    return order, sums / np.sqrt(cumsum(e[ends], axis=2)) / w[:, None, None]


def _bound(R, e, w) -> tuple:
    """The bound ``ub(S)`` of the module docstring for each row of row sums
    ``R`` (column weights ``e``, ``w`` the roots of the row-set masses), and
    whether it may have lost terms to underflow: a square of a row sum
    underflows before ``1/e_j`` scales it, so ``max(P, N)`` below ``2^-900``
    times the largest ``1/e_j`` may have.  An overflowed square makes its
    part inf, an overflowed ``1/e_j`` makes it NaN where ``r_j`` is 0, and
    ``fmax`` keeps an inf part where the difference is NaN; the larger part
    holds at least half the total, so the difference loses a few ulps of it."""
    with np.errstate(over="ignore", invalid="ignore"):
        inv = 1.0 / e
        squares = np.multiply(R, R)  # the one temporary of the size of ``R``
        total = squares @ inv
        squares = np.maximum(R, 0.0, out=squares)
        squares *= squares
        positive = squares @ inv
        squares = np.fmax(positive, total - positive)
        return np.sqrt(squares) / w, squares < 2.0**-900 * max(1.0, float(inv.max()))


def _sweep(B, e, tables, atol: float, flip: bool) -> tuple:
    """The pruned sweep over the row sets of ``B`` (column weights ``e``,
    ``tables`` the ``_SweepTables`` of its rows).  Returns the largest
    sweep value and, of the sorted row sets that may hold the tie rule's
    pick or the first candidate of the largest value (``_hold``), the
    masks, column orders, values (``_prefix_values``) and best values, in
    no particular order."""
    best, held = -math.inf, None
    for lo, R in _row_sums(B, tables.low, tables.work):
        w = tables.roots[lo - 1 : lo - 1 + len(R)]
        upper, unsure = _bound(R, e, w)
        # the row set of the largest bound is sorted first: its best value
        # starts the running lower bound that prunes the chunk.  The relative
        # margin covers the rounding of the bound against the sweep, which
        # sums in another order; a NaN bound fails ``<``, so its row set stays
        index, rows = np.array([upper.argmax()]), None
        while len(index):
            order, vals = _prefix_values(R[index], e, w[index])
            group = [index + float(lo), order, vals, np.abs(vals).max(axis=(1, 2))]
            top = float(group[3].max())
            # a group below the best less the tolerance holds no candidate,
            # and one above it by more leaves none in the groups before it
            if held is None or top - atol > best:
                held = group
            elif top >= best - atol:
                held = [np.concatenate(p) for p in zip(held, group)]
                if len(held[0]) > SWEEP_BLOCK_ROWS:
                    held = _hold(held, max(best, top) - atol, flip)
            best = max(best, top)
            if rows is None:
                keep = ~(upper < best / (1.0 + 1e-9) - atol) | unsure
                keep[index] = False
                rows = keep.nonzero()[0]
            index, rows = rows[:SWEEP_BLOCK_ROWS], rows[SWEEP_BLOCK_ROWS:]
    return best, held


def _hold(held, floor: float, flip: bool) -> list:
    """The row sets of ``held`` that may still hold the tie rule's pick or
    the first candidate of the largest value, once that value is known to
    be at least ``floor + atol``.  A candidate within ``floor`` can be the
    pick only if its value exceeds that of every candidate before it in the
    tie rule's order, (S mask, T mask) and then prefixes first: with the
    rows swept, only the row sets above every one of smaller mask hold one.
    With the columns swept, those candidates are found among the prefixes
    (suffixes) of each row set above every shorter one, and the first row
    set of the largest value is kept besides."""
    masks, order, vals, best = held
    if not flip:
        rank = np.argsort(masks)
        b = best[rank]
        keep = rank[(b >= floor) & (b > np.maximum.accumulate(np.concatenate([[-np.inf], b[:-1]])))]
        return [masks[keep], order[keep], vals[keep], best[keep]]
    a = np.abs(vals)
    ok = a >= floor
    ok[:, :, 1:] &= a[:, :, 1:] > np.maximum.accumulate(a, axis=2)[:, :, :-1]
    r, side, j = np.nonzero(ok)
    # each candidate's sorted-side set, then its masks as bytes, highest bit
    # first, so that byte order is mask order
    k = order.shape[1]
    start = side * (k - 1 - j)
    pos = np.arange(k)
    sets = np.empty((len(r), k), dtype=bool)
    sets[np.arange(len(r))[:, None], order[r]] = ((pos >= start[:, None])
                                                  & (pos <= (start + j)[:, None]))
    keys = np.concatenate([np.packbits(sets[:, ::-1], axis=1),
                           masks[r].astype(">u8").view(np.uint8).reshape(-1, 8),
                           side[:, None].astype(np.uint8)], axis=1)
    rank = np.lexsort(keys.T[::-1])
    v = a[r, side, j][rank]
    keep = np.zeros(len(masks), dtype=bool)
    keep[r[rank[v > np.maximum.accumulate(np.concatenate([[-np.inf], v[:-1]]))]]] = True
    tops = np.flatnonzero(best == best.max())
    keep[tops[np.argmin(masks[tops])]] = True
    return [masks[keep], order[keep], vals[keep], best[keep]]


def _sweep_pick(A, d, e, atol: float, top: bool = False, tables=None) -> list:
    """The row-set sweep over the smaller side of ``A`` (its rows when
    ``m <= n``, else its columns) and the pick of the module docstring's tie
    rule, as ``(S, T, value)``: index tuples of ``A`` and the signed sweep
    value; with ``top`` it is preceded by the first candidate of the largest
    sweep value.  ``tables`` are the swept side's ``_SweepTables``, built
    when not given.  Takes validated arrays and does not check the size of
    the swept side."""
    flip = A.shape[0] > A.shape[1]
    B, dd, ee = (A.T, e, d) if flip else (A, d, e)
    best, (masks, order, vals, best_per_S) = _sweep(
        B, ee, _SweepTables(dd) if tables is None else tables, atol, flip)
    k = len(ee)
    floor, bests, swept = best - atol, best_per_S.tolist(), masks.tolist()

    def candidate(r: int, s: int, i: int) -> tuple:
        """The (S mask, T mask) of row ``r``'s prefix (``s`` 0) or suffix
        (``s`` 1) of length ``i + 1``, then ``s``, ``r`` and ``i``."""
        row = order[r].tolist()
        other = _set_mask(row[k - 1 - i :] if s else row[: i + 1])
        return ((other, int(swept[r])) if flip else (int(swept[r]), other)), s, r, i

    # unless ``S`` is the sorted side, the pick lies in the first qualifying
    # swept set.  A longer prefix (suffix) holds a shorter one, so of a
    # swept set's prefixes (suffixes) within ``atol`` the shortest has the
    # smallest mask
    win = [r for r, b in enumerate(bests) if b >= floor]
    if not flip:
        win = [min(win, key=swept.__getitem__)]
    picks = [min(candidate(r, s, next(i for i, a in enumerate(v) if abs(a) >= floor))
                 for r in win for s, v in enumerate(vals[r].tolist())
                 if any(abs(a) >= floor for a in v))]
    if top:
        r = min((r for r, b in enumerate(bests) if b == best), key=swept.__getitem__)
        picks.insert(0, candidate(r, *divmod(int(np.abs(vals[r]).argmax()), k)))
    return [(_mask_set(S), _mask_set(T), float(vals[r, s, i])) for (S, T), s, r, i in picks]


def _plain_sweep(A, low, atol: float) -> tuple:
    """The plain cut norm ``max |A(S,T)|`` by the sweep over the row sets of
    ``A`` (``low`` the ``_low_indicators`` of its rows), each with the
    positive or negative support of its row sums, and the mask and the row
    sums of the first row set within ``atol`` of it, which is one of the row
    sets above every earlier one.  Only the row sets near the chunk's best
    are summed support by support: ``(|r|_1 + |sum r|) / 2``, from two
    matrix-vector products, is their value up to a rounding far inside the
    relative margin, as the value is at least ``|r|_1 / 2``."""
    ones = np.ones(A.shape[1])
    best, firsts = -math.inf, []
    for lo, R in _row_sums(A, low):
        approx = (np.abs(R) @ ones + np.abs(R @ ones)) / 2
        lim = max(best, approx.max()) / (1.0 + 1e-9) - atol
        rows = ((approx >= lim) | (approx < 2.0**-900)).nonzero()[0]
        S = R[rows]
        v = np.maximum(np.where(S > 0, S, 0.0).sum(axis=1),
                       -np.where(S < 0, S, 0.0).sum(axis=1))
        above = v > np.maximum.accumulate(np.concatenate([[best], v[:-1]]))
        best = max(best, float(v.max(initial=best)))  # a later chunk may hold no survivor
        firsts = [f for f in firsts if f[1] >= best - atol] + [
            (lo + int(rows[i]), float(v[i]), S[i])
            for i in np.flatnonzero(above & (v >= best - atol))]
    return best, next((s, r) for s, value, r in firsts if value >= best - atol)


def _plain_pick(A, atol: float) -> tuple:
    """The plain cut norm by the sweep over the row sets of ``A``, the mask
    of the first row set within ``atol`` of it (``_plain_sweep``), and that
    row set's sums over every nonempty column set, entry ``mask - 1``: the
    witness scan of ``cutnorm.cut_norm_bruteforce``."""
    m, n = A.shape
    low = _low_indicators(m)
    best, (s, r) = _plain_sweep(A, low, atol)
    return best, s, _subset_sums(r, low if n == m else _low_indicators(n))


def _plain_cut_norm(A, atol: float) -> float:
    """The plain cut norm ``max |A(S,T)|`` by the sweep over the smaller
    side of ``A``."""
    B = A if A.shape[0] <= A.shape[1] else A.T
    return _plain_sweep(B, _low_indicators(B.shape[0]), atol)[0]


def _max_cut(A) -> float:
    """The largest cut ``A(X, X^c)`` of the square ``A`` over every vertex
    set ``X``, chunk by chunk of ``_row_sums``."""
    n = A.shape[0]
    low = _low_indicators(n)
    c = low.shape[1]
    best = -math.inf
    for lo, R in _row_sums(A, low):
        U = np.empty((len(R), n))  # the chunk's 0/1 rows of ``X``
        U[:, :c] = low[1:] if lo == 1 else low
        U[:, c:] = ((lo >> c) >> np.arange(n - c)) & 1
        best = max(best, float((R * (1.0 - U)).sum(axis=1).max()))
    return best
