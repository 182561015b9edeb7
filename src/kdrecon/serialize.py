"""Canonical JSON/CSV encodings for artifacts.

Complex numbers are {"re": ..., "im": ...} pairs; floats are written with
shortest round-trip precision (repr), so every artifact re-loads bit-exactly.
Every stored float is formatted once with ``float.__repr__`` (a broadcast axis
holds one stored value, repeated), and each artifact is written CHUNK_ROWS
rows at a time, byte for byte as ``json.dumps(..., indent=2, sort_keys=True)``
and ``csv.writer`` lay out the same values one cell at a time.
"""

from __future__ import annotations

import csv
import json
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
# The strings of the arrays write_json wrote last, by their bytes: a
# distribution's re and im parts, formatted for its JSON file and re-used by
# its CSV file and the re/im columns of its plot file.
_REPR_CACHE: dict = {}
_REPR_CACHE_SIZE = 2


def _float_reprs(data: bytes) -> tuple:
    """repr of each float64 packed in ``data``."""
    return tuple(map(float.__repr__, np.frombuffer(data).tolist()))


def release_reprs():
    """Drop the strings kept for re-use between writers."""
    _REPR_CACHE.clear()


def _broadcast(strs, base_shape, shape) -> np.ndarray:
    """Strings of an array of ``base_shape`` repeated over ``shape``: a
    read-only object-array view."""
    return np.broadcast_to(np.asarray(strs, dtype=object).reshape(base_shape), shape)


def _reprs(a, nonfinite=None, keep=False) -> np.ndarray:
    """repr of every element of a real array as a float, as an object array:
    flat, in row-major order, or a broadcast view of ``a``'s shape;
    ``nonfinite`` maps the repr of nan and of each infinity to another string.

    A stride-0 (broadcast) axis holds one stored value, so only the base the
    array is broadcast from is formatted.  Strings in the cache are re-used;
    ``keep`` puts these in it, in place of the oldest."""
    a = np.asarray(a, dtype=float)
    base = np.ascontiguousarray(a[tuple(slice(None) if s else slice(0, 1) for s in a.strides)])
    key = base.tobytes()
    out = _REPR_CACHE.get(key)
    if out is None and keep:
        # room first, so that no more than two arrays' strings are held while formatting
        while len(_REPR_CACHE) >= _REPR_CACHE_SIZE:
            del _REPR_CACHE[next(iter(_REPR_CACHE))]
        out = _REPR_CACHE[key] = np.array(_float_reprs(key), dtype=object)
    elif out is None:
        out = np.array(_float_reprs(key), dtype=object)
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
    columns = [_reprs(values.imag, _JSON_NONFINITE, keep=True),
               _reprs(values.real, _JSON_NONFINITE, keep=True)]
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
    if values.size != 2 * np.prod(shape, dtype=int):
        raise SchemaError(f"{len(entries)} complex entries do not fill shape {list(shape)}")
    return values.view(complex).reshape(shape)


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
    _require(type(d["cell_weight"]) in (int, float), "cell_weight", "a number", d["cell_weight"])
    return PseudoDistribution(
        complex_array_from_json(d["values"], tuple(shape)),
        tuple(axes),
        ordering_tag=d["ordering_tag"],
        conditioning=d["conditioning"],
        cell_weight=float(d["cell_weight"]),
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
    """The JSON value in a UTF-8 file; undecodable bytes and malformed JSON are
    a ParseError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not UTF-8: {exc.reason}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


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
