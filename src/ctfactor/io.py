"""File plumbing for the command line: CSV data and JSON documents.

CSV values are written with ``repr`` so finite decimals survive a
read/write/read round trip with identical bits. A header row is detected
by being entirely non-numeric.
"""

import csv
import itertools
import json
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
        first = next(filter(None, csv.reader(fh)), None)
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
        rows = [row for row in csv.reader(fh) if row]
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


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def save_json(path, doc):
    """Write a JSON document deterministically (sorted keys, no NaN)."""
    text = json.dumps(_plain(doc), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def dumps_json(doc):
    return json.dumps(_plain(doc), indent=2, sort_keys=True, allow_nan=False)
