"""Input parsing for the command line: Matrix Market files, whitespace edge
lists, JSON matrices/tensors, and weight vectors.

All parse errors carry ``path:lineno:`` prefixes.  Non-finite values are
rejected everywhere.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

Array = np.ndarray


class InputError(ValueError):
    """Malformed input file."""


def _fail(path: str, lineno: int, msg: str):
    raise InputError(f"{path}:{lineno}: {msg}")


def _parse_float(path: str, lineno: int, token: str) -> float:
    try:
        v = float(token)
    except ValueError:
        _fail(path, lineno, f"not a number: {token!r}")
    if not math.isfinite(v):
        _fail(path, lineno, f"non-finite entry: {token!r}")
    return v


def _parse_int(path: str, lineno: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(path, lineno, f"not an integer: {token!r}")


def guess_format(path: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    if ext in (".mtx", ".mm"):
        return "matrix-market"
    if ext == ".json":
        return "json"
    return "edge-list"


def load_matrix(path: str, format: str | None = None):
    """Parse a matrix file.

    Returns
    -------
    (matrix, meta) : meta carries the edge-list label mapping when relevant.
    """
    fmt = format or guess_format(path)
    if fmt == "matrix-market":
        return read_matrix_market(path), {}
    if fmt == "edge-list":
        return read_edge_list(path)
    if fmt == "json":
        return read_json_matrix(path), {}
    raise InputError(f"unknown matrix format {fmt!r}")


def read_matrix_market(path: str) -> Array:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        _fail(path, 1, "empty file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "%%MatrixMarket":
        _fail(path, 1, "expected '%%MatrixMarket matrix <format> <field> <symmetry>'")
    _, obj, layout, field, symmetry = (t.lower() for t in head)
    if obj != "matrix":
        _fail(path, 1, f"unsupported object {obj!r}")
    if layout not in ("coordinate", "array"):
        _fail(path, 1, f"unsupported format {layout!r}")
    if field not in ("real", "integer"):
        _fail(path, 1, f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        _fail(path, 1, f"unsupported symmetry {symmetry!r}")

    data = [(i + 1, ln) for i, ln in enumerate(lines[1:], start=1)
            if ln.strip() and not ln.lstrip().startswith("%")]
    if not data:
        _fail(path, len(lines), "missing size line")
    lineno, size_line = data[0]
    toks = size_line.split()
    if layout == "coordinate":
        if len(toks) != 3:
            _fail(path, lineno, "size line must be 'rows cols nnz'")
        m, n, nnz = (_parse_int(path, lineno, t) for t in toks)
        if m < 1 or n < 1 or nnz < 0:
            _fail(path, lineno, "bad dimensions")
        A = np.zeros((m, n))
        entries = data[1:]
        if len(entries) != nnz:
            _fail(path, lineno, f"expected {nnz} entries, found {len(entries)}")
        for lno, ln in entries:
            t = ln.split()
            if len(t) != 3:
                _fail(path, lno, "entry must be 'row col value'")
            i = _parse_int(path, lno, t[0])
            j = _parse_int(path, lno, t[1])
            v = _parse_float(path, lno, t[2])
            if not (1 <= i <= m and 1 <= j <= n):
                _fail(path, lno, f"index ({i},{j}) out of range")
            A[i - 1, j - 1] += v
            if symmetry == "symmetric" and i != j:
                A[j - 1, i - 1] += v
        return A
    # array layout: column-major dense values
    if len(toks) != 2:
        _fail(path, lineno, "size line must be 'rows cols'")
    m, n = (_parse_int(path, lineno, t) for t in toks)
    if m < 1 or n < 1:
        _fail(path, lineno, "bad dimensions")
    if symmetry == "symmetric" and m != n:
        _fail(path, lineno, "symmetric array must be square")
    vals = [(lno, tok) for lno, ln in data[1:] for tok in ln.split()]
    want = m * n if symmetry == "general" else m * (m + 1) // 2
    if len(vals) != want:
        _fail(path, lineno, f"expected {want} values, found {len(vals)}")
    A = np.zeros((m, n))
    k = 0
    for j in range(n):
        start = j if symmetry == "symmetric" else 0
        for i in range(start, m):
            lno, tok = vals[k]
            A[i, j] = _parse_float(path, lno, tok)
            if symmetry == "symmetric":
                A[j, i] = A[i, j]
            k += 1
    return A


def read_edge_list(path: str):
    """Whitespace edge list: 'u v [weight]' per line, '#' comments.

    Labels are arbitrary strings, indexed in first-appearance order; weights
    default to 1 and repeated edges accumulate.  Returns (matrix, meta) where
    meta['labels'] maps indices back to labels.
    """
    labels: dict = {}
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            if len(toks) not in (2, 3):
                _fail(path, lineno, "expected 'node node [weight]'")
            w = _parse_float(path, lineno, toks[2]) if len(toks) == 3 else 1.0
            uv = []
            for t in toks[:2]:
                if t not in labels:
                    labels[t] = len(labels)
                uv.append(labels[t])
            edges.append((uv[0], uv[1], w))
    if not edges:
        _fail(path, 1, "no edges found")
    n = len(labels)
    A = np.zeros((n, n))
    for u, v, w in edges:
        A[u, v] += w
        if u != v:
            A[v, u] += w
    names = [None] * n
    for name, idx in labels.items():
        names[idx] = name
    return A, {"labels": names}


def read_json_matrix(path: str) -> Array:
    """JSON matrix: nested lists, or {'matrix': nested lists}."""
    A = _json_floats(path, _read_json(path), "matrix")
    if A.ndim != 2 or A.size == 0:
        raise InputError(f"{path}:1: expected a nonempty 2-d array")
    return A


def read_json_tensor(path: str) -> Array:
    """JSON tensor: nested lists, {'tensor': nested lists}, or
    {'dims': [...], 'entries': flat} with entries in row-major order."""
    doc = _read_json(path)
    if isinstance(doc, dict) and "dims" in doc:
        dims = _json_floats(path, doc, "dims")
        if dims.ndim != 1 or np.any(dims < 1) or np.any(dims % 1):
            raise InputError(f"{path}:1: dims must be a list of positive integers")
        dims, entries = dims.astype(int).tolist(), _json_floats(path, doc, "entries")
        if entries.shape != (math.prod(dims),):
            raise InputError(f"{path}:1: expected {math.prod(dims)} entries for dims {dims}")
        T = entries.reshape(dims)
    else:
        T = _json_floats(path, doc, "tensor")
    if T.ndim < 2 or T.size == 0:
        raise InputError(f"{path}:1: expected a nonempty tensor with at least 2 modes")
    return T


def read_weights(path: str, n: int) -> Array:
    """Whitespace-separated positive weights; the count must equal n."""
    with open(path, "r", encoding="utf-8") as fh:
        vals = [_parse_float(path, lineno, tok) for lineno, raw in enumerate(fh, start=1)
                for tok in raw.split("#", 1)[0].split()]
    if len(vals) != n:
        raise InputError(f"{path}: expected {n} weights, found {len(vals)}")
    w = np.array(vals)
    if np.any(w <= 0):
        raise InputError(f"{path}: weights must be strictly positive")
    return w


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}: {exc.msg}") from exc


def _json_floats(path: str, value, key: str) -> Array:
    """The finite float array of a JSON value, or of its member ``key`` when
    it is an object: the one place a document becomes numbers.  Anything but
    nested lists of numbers there is an ``InputError``."""
    if isinstance(value, dict):
        value = value.get(key)
    try:
        if value is None:
            raise TypeError
        A = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{path}:1: {key} must be nested lists of numbers") from None
    if not np.all(np.isfinite(A)):
        raise InputError(f"{path}:1: non-finite entries")
    return A
