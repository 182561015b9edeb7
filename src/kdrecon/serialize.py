"""Canonical JSON/CSV encodings for artifacts.

Complex numbers are {"re": ..., "im": ...} pairs; floats are written with
shortest round-trip precision (repr), so every artifact re-loads bit-exactly.
Every stored float is formatted once with ``float.__repr__`` (a broadcast axis
holds one stored value, repeated), and each artifact is written CHUNK_ROWS
rows at a time, byte for byte as ``json.dumps(..., indent=2, sort_keys=True)``
and ``csv.writer`` lay out the same values one cell at a time.  Inside a
``shared_reprs()`` scope the writers on that thread format each array once
and share its strings; a writer called outside any scope keeps nothing.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import threading
from contextlib import contextmanager
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaError
from .oracle import PseudoDistribution

CHUNK_ROWS = 4096  # rows joined per write: the strings held at once stay bounded
# json writes the non-finite floats that repr calls nan, inf and -inf like this
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_RE_IM = itemgetter("re", "im")
# inside shared_reprs(), .reprs holds this thread's formatted arrays, by their bytes
_SCOPE = threading.local()


def _float_reprs(data: bytes) -> tuple:
    """repr of each float64 packed in ``data``."""
    return tuple(map(float.__repr__, np.frombuffer(data).tolist()))


@contextmanager
def shared_reprs():
    """Share formatted strings between the writes made in this scope on this
    thread: a distribution's JSON file, its CSV file and its plot file format
    its re and im parts once.  The strings are dropped when the scope ends,
    also on an error."""
    _SCOPE.reprs = {}
    try:
        yield
    finally:
        del _SCOPE.reprs


def _broadcast(strs, base_shape, shape) -> np.ndarray:
    """Strings of an array of ``base_shape`` repeated over ``shape``: a
    read-only object-array view."""
    return np.broadcast_to(np.asarray(strs, dtype=object).reshape(base_shape), shape)


def _reprs(a, nonfinite=None) -> np.ndarray:
    """repr of every element of a real array as a float, as an object array:
    flat, in row-major order, or a broadcast view of ``a``'s shape;
    ``nonfinite`` maps the repr of nan and of each infinity to another string.

    A stride-0 (broadcast) axis holds one stored value, so only the base the
    array is broadcast from is formatted, once per ``shared_reprs()`` scope."""
    a = np.asarray(a, dtype=float)
    base = np.ascontiguousarray(a[tuple(slice(None) if s else slice(0, 1) for s in a.strides)])
    key, shared = base.tobytes(), getattr(_SCOPE, "reprs", {})  # outside a scope: {}, unkept
    out = shared.get(key)
    if out is None:
        out = shared[key] = np.array(_float_reprs(key), dtype=object)
    bad = np.flatnonzero(~np.isfinite(base)) if nonfinite else []
    if len(bad):
        out = out.copy()
        out[bad] = [nonfinite[s] for s in out[bad]]
    return out if base.size == a.size else _broadcast(out, base.shape, a.shape)


def _write_rows(fh, columns, before, head, tail):
    """Write equal-size arrays of strings row by row, in row-major order, one
    join of CHUNK_ROWS rows at a time: each cell follows its column's
    separator in ``before``, except that ``head`` opens the first row, and
    ``tail`` closes the last.  No rows write nothing."""
    n, k = columns[0].size, 2 * len(columns)
    flat = [c if c.ndim == 1 else c.flat for c in columns]
    for start in range(0, n, CHUNK_ROWS):
        rows = min(CHUNK_ROWS, n - start)
        parts = [tail] * (k * rows + 1)
        for j, (cells, sep) in enumerate(zip(flat, before)):
            parts[2 * j:-1:k] = repeat(sep, rows)
            parts[2 * j + 1::k] = cells[start:start + rows].tolist()
        if start == 0:
            parts[0] = head
        if start + rows < n:
            parts.pop()
        fh.write("".join(parts))


def _write_json_pairs(fh, values: np.ndarray):
    """A complex array as the list of {re, im} pairs that json.dumps(indent=2,
    sort_keys=True) writes for the value of a top-level key."""
    if values.size == 0:
        fh.write("[]")
        return
    columns = [_reprs(values.imag, _JSON_NONFINITE), _reprs(values.real, _JSON_NONFINITE)]
    _write_rows(fh, columns, ['\n    },\n    {\n      "im": ', ',\n      "re": '],
                head='[\n    {\n      "im": ', tail="\n    }\n  ]")


def _write_csv_rows(fh, columns):
    """Rows of plain fields as csv.writer writes them: comma-joined, CRLF-ended."""
    _write_rows(fh, columns, ["\r\n"] + [","] * (len(columns) - 1), head="", tail="\r\n")


def _first_bad_pair(entries):
    """Position and value of the first entry that is not a {re, im} pair of numbers."""
    for i, e in enumerate(entries):
        if (type(e) is not dict or set(e) != {"re", "im"}
                or not {type(e["re"]), type(e["im"])} <= {float, int}):
            return i, e


def complex_array_from_json(entries, shape) -> np.ndarray:
    """Fill a complex array from a list of {re, im} pairs of JSON numbers (not
    strings, null or booleans), with no Python call per entry."""
    if type(entries) is not list:
        raise SchemaError(f"expected a list of {{re, im}} pairs, got {type(entries).__name__}")
    parts = []
    if set(map(type, entries)) <= {dict} and set(map(len, entries)) <= {2}:
        try:
            parts = list(chain.from_iterable(map(_RE_IM, entries)))
        except KeyError:
            pass
    if len(parts) != 2 * len(entries) or not set(map(type, parts)) <= {float, int}:
        raise SchemaError("entry %d: expected a {re, im} pair of numbers, got %r"
                          % _first_bad_pair(entries))
    try:
        values = np.array(parts, dtype=float)
    except OverflowError as exc:
        raise SchemaError(f"complex entry out of float range: {exc}") from exc
    if values.size != 2 * math.prod(shape):  # exact: np.prod wraps modulo 2^64
        raise SchemaError(f"{len(entries)} complex entries do not fill shape {list(shape)}")
    try:  # an empty shape numpy still cannot hold: too large a dimension, too many axes
        return values.view(complex).reshape(shape)
    except ValueError as exc:
        raise SchemaError(f"shape {list(shape)} is not an array shape: {exc}") from exc


def pseudo_to_dict(pd: PseudoDistribution) -> dict:
    """Fields of the distribution JSON for write_json, which encodes the
    ``values`` array; pseudo_from_dict reads the dict read_json returns."""
    return {
        "shape": list(pd.shape),
        "axes": list(pd.axes),
        "ordering_tag": pd.ordering_tag,
        "conditioning": pd.conditioning,
        "cell_weight": pd.cell_weight,
        "values": pd.values,
    }


def _require(ok: bool, field: str, expected: str, got):
    if not ok:
        raise SchemaError(f"pseudo-distribution {field} must be {expected}, got {got!r}")


def pseudo_from_dict(d: dict) -> PseudoDistribution:
    _require(type(d) is dict, "JSON", "an object", type(d).__name__)
    required = {"shape", "axes", "ordering_tag", "conditioning", "cell_weight", "values"}
    missing = required - set(d)
    if missing:
        raise SchemaError(f"pseudo-distribution JSON missing fields {sorted(missing)}")
    shape, axes = d["shape"], d["axes"]
    _require(type(shape) is list and all(type(n) is int and n >= 0 for n in shape),
             "shape", "a list of non-negative integers", shape)
    _require(type(axes) is list and len(axes) == len(shape)
             and all(type(a) is str for a in axes),
             "axes", f"a list of {len(shape)} strings", axes)
    _require(type(d["ordering_tag"]) is str, "ordering_tag", "a string", d["ordering_tag"])
    _require(d["conditioning"] is None or type(d["conditioning"]) is str,
             "conditioning", "a string or null", d["conditioning"])
    weight = d["cell_weight"]
    _require(type(weight) in (int, float) and abs(weight) <= sys.float_info.max,
             "cell_weight", "a finite number", weight)
    return PseudoDistribution(
        complex_array_from_json(d["values"], tuple(shape)),
        tuple(axes),
        ordering_tag=d["ordering_tag"],
        conditioning=d["conditioning"],
        cell_weight=float(weight),
    )


def write_json(path, payload):
    """json.dumps(payload, indent=2, sort_keys=True) plus a newline; an array
    under a top-level key is written as its list of {re, im} pairs."""
    arrays = {}
    if isinstance(payload, dict):
        arrays = {k: v for k, v in payload.items() if isinstance(v, np.ndarray)}
        payload = {**payload, **dict.fromkeys(arrays)}
    rest = json.dumps(payload, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        for key in sorted(arrays):
            # a raw newline and two spaces before a quote only start a top-level key
            field = f"\n  {json.dumps(key)}: "
            head, _, rest = rest.partition(field + "null")
            fh.write(head + field)
            _write_json_pairs(fh, np.asarray(arrays[key], dtype=complex))
        fh.write(rest + "\n")


def read_json(path):
    """The JSON value in a UTF-8 file; undecodable bytes, malformed JSON,
    nesting too deep for the decoder and an integer past Python's digit
    limit are a ParseError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not UTF-8: {exc.reason}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_pseudo_csv(pd: PseudoDistribution, path):
    """Index columns (one per axis) followed by re and im columns."""
    shape = pd.shape
    # axis k's index column: str(range(m)) along axis k, repeated over the others
    columns = [_broadcast(list(map(str, range(m))), (m,) + (1,) * (len(shape) - k - 1), shape)
               for k, m in enumerate(shape)]
    columns += [_reprs(pd.values.real), _reprs(pd.values.imag)]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([f"i_{label}" for label in pd.axes] + ["re", "im"])
        _write_csv_rows(fh, columns)


def write_plot_csv(path, columns: dict):
    """Plot-ready CSV: named real-valued columns of equal length (a column may
    be an array of any shape, read in row-major order)."""
    if not columns:
        raise ValueError("a plot needs at least one column")
    cells = [_reprs(c) for c in columns.values()]
    lengths = {name: c.size for name, c in zip(columns, cells)}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"plot columns differ in length: {lengths}")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(list(columns))
        _write_csv_rows(fh, cells)
