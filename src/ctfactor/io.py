"""File plumbing for the command line: CSV data and JSON documents.

CSV values are written with ``repr`` so finite decimals survive a
read/write/read round trip with identical bits. A header row is detected
by being entirely non-numeric.
"""

import csv
import itertools
import json
import math
import os

import numpy as np

from .errors import ParseError

__all__ = [
    "read_data_csv",
    "write_data_csv",
    "read_corr_json",
    "load_json",
    "save_json",
]


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def read_data_csv(path):
    """Read a numeric CSV into an (n, p) array.

    Returns ``(data, header)`` where ``header`` is None when the first row
    is numeric. Malformed cells and ragged rows raise :class:`ParseError`.
    The data rows go through numpy's C reader, which converts a cell with
    the same routine as ``float()``; input it refuses, or with no data
    rows, goes to the ``float()`` cell loop, which locates the bad cell.
    """
    if not os.path.isfile(path):  # a pipe cannot be read a second time
        return _read_cells(path)
    with open(path, newline="") as fh:
        first = next(_rows(path, fh), None)
        header = None
        if first and all(not _is_number(cell) for cell in first):
            header = [cell.strip() for cell in first]
        else:
            fh.seek(0)
        data = _parse_rows(fh)
    if data is None:
        return _read_cells(path)
    if not np.all(np.isfinite(data)):
        raise ParseError(f"{path}: non-finite values in data")
    return data, header


def _rows(path, fh):
    """The non-empty ``csv.reader`` rows of ``fh``; a row the reader
    refuses (such as a cell over its field size limit) is a ParseError."""
    reader = csv.reader(fh)
    try:
        yield from filter(None, reader)
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None


def _parse_rows(fh):
    """The rows left in ``fh`` by ``np.loadtxt``, or None when it refuses
    them or there are none (it would warn)."""
    line = next((line for line in fh if line.strip("\r\n")), None)
    if line is None:
        return None
    try:
        return np.loadtxt(itertools.chain([line], fh), delimiter=",",
                          comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None


def _read_cells(path):
    """The reference reader: ``csv.reader`` rows and ``float()`` per cell."""
    with open(path, newline="") as fh:
        rows = list(_rows(path, fh))
    if not rows:
        raise ParseError(f"{path}: no rows")
    header = None
    start = 0
    if all(not _is_number(cell) for cell in rows[0]):
        header = [cell.strip() for cell in rows[0]]
        start = 1
    if start >= len(rows):
        raise ParseError(f"{path}: header but no data rows")
    width = len(rows[start])
    data = np.empty((len(rows) - start, width))
    for r, row in enumerate(rows[start:], start=start):
        if len(row) != width:
            raise ParseError(
                f"{path}: row {r + 1} has {len(row)} cells, expected {width}"
            )
        for c, cell in enumerate(row):
            try:
                data[r - start, c] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {r + 1}, column {c + 1}: not a number: {cell!r}"
                ) from None
    if not np.all(np.isfinite(data)):
        raise ParseError(f"{path}: non-finite values in data")
    return data, header


def write_data_csv(path, data, header=True):
    """Write an (n, p) array as CSV with an X1..Xp header by default."""
    arr = np.asarray(data, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow([f"X{j + 1}" for j in range(arr.shape[1])])
        for row in arr:
            writer.writerow([repr(float(v)) for v in row])


def read_corr_json(path):
    """Read ``{"correlation": [[...]], "n": int}``; returns ``(corr, n)``."""
    doc = load_json(path)
    if not isinstance(doc, dict) or "correlation" not in doc or "n" not in doc:
        raise ParseError(f"{path}: expected keys 'correlation' and 'n'")
    try:
        corr = np.asarray(doc["correlation"], dtype=float)
        n = int(doc["n"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ParseError(f"{path}: correlation must be a square matrix")
    if n < 1:
        raise ParseError(f"{path}: n must be >= 1, got {n}")
    return corr, n


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None


_ESCAPE = json.encoder.encode_basestring_ascii


def _encode(obj, nl):
    """JSON text of ``obj`` nested at newline-plus-indent ``nl``.

    The bytes are those of ``json.dumps(obj, indent=2, sort_keys=True)``
    after numpy arrays and scalars become Python values and non-finite
    floats become None, built with one ``str.join`` per container instead
    of the stdlib's per-value generators (``indent`` turns its C encoder
    off). Dict keys must be ``str``: ``_ESCAPE`` raises TypeError on others.
    """
    if isinstance(obj, str):
        return _ESCAPE(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):  # bool is an int: test it first
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist(), nl)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        sep = "," + inner
        if (set(map(type, obj)) <= {list, tuple} and set(map(len, obj)) == {2}
                and set(map(type, itertools.chain.from_iterable(obj))) == {int}):
            # [int, int] pairs, as in support arrays (most of the bytes)
            pair = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
            body = sep.join([pair] * len(obj)) % tuple(itertools.chain.from_iterable(obj))
        else:
            body = sep.join([_encode(v, inner) for v in obj])
        return "[" + inner + body + nl + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ("," + inner).join(
            [_ESCAPE(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        )
        return "{" + inner + body + nl + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def save_json(path, doc):
    """Write ``dumps_json(doc)`` and a newline to ``path``."""
    with open(path, "w") as fh:
        fh.write(dumps_json(doc) + "\n")


def dumps_json(doc):
    """The one JSON form of every document: 2-space indent, sorted keys,
    ASCII-escaped strings, and ``null`` for NaN and infinities."""
    return _encode(doc, "\n")
