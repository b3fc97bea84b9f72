"""File plumbing for the command line: CSV data and JSON documents.

CSV values are written with ``repr`` so finite decimals survive a
read/write/read round trip with identical bits. A header row is detected
by being entirely non-numeric. Data rows are read by orjson in blocks,
then by numpy's C reader from the first block orjson refuses, then by a
``float()`` per cell where numpy refuses; all three round as ``float()``
does. JSON input must be UTF-8; correlation documents are decoded by
orjson, other documents by the stdlib.
"""

import csv
import itertools
import json
import math
import os

import numpy as np
import orjson

from .errors import ParseError

__all__ = [
    "read_data_csv",
    "write_data_csv",
    "read_corr_json",
    "load_json",
    "save_json",
]


#: Data rows per orjson block of :func:`_parse_rows`. A block's Python
#: floats are dropped once they are an array, so one block of them is
#: alive at a time; blocks of 16 to 128 rows read equally fast.
_BLOCK = 32


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
    The data rows are read in three steps. orjson decodes blocks of
    ``_BLOCK`` rows and a block is taken only when every cell is a Python
    float (see :func:`_decode_block`). From the first block it refuses,
    numpy's C reader reads the rest, converting a cell with the same
    routine as ``float()``. Input numpy refuses, or with no data rows, goes
    to the ``float()`` cell loop, which locates the bad cell. So values,
    headers and errors are the cell loop's.
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
    """The data rows left in ``fh``, or None when there are none or only
    the cell loop can read them.

    Non-blank lines go to orjson in blocks of ``_BLOCK``; from the first
    block it does not take, ``np.loadtxt`` reads that block and the rest.
    Blank lines are skipped, as ``csv.reader`` skips them, so blank lines
    at the end only end the input.
    """
    lines = (line for line in fh if line.strip("\r\n"))
    blocks = []
    while block := list(itertools.islice(lines, _BLOCK)):
        rows = _decode_block(block)
        if rows is None:  # numpy's reader reads this block and every line after it
            try:
                rows = np.loadtxt(itertools.chain(block, lines), delimiter=",",
                                  comments=None, quotechar='"', ndmin=2)
            except ValueError:
                return None
        if blocks and rows.shape[1] != blocks[0].shape[1]:
            return None  # a ragged row, for the cell loop to report
        blocks.append(rows)
    if not blocks:
        return None
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _decode_block(block):
    """``block``'s lines as a float array, or None unless orjson reads
    them as rows of Python floats, one row per line, all of one width.

    orjson reads ``-0`` as the int 0 where ``float()`` gives -0.0, quoted
    cells as ``str``, ``true`` and ``null`` as ``bool`` and None, and
    numpy would convert them all quietly; so only floats are taken. A
    bracket in a line would make more rows than lines.
    """
    try:
        rows = orjson.loads("[[" + "],[".join(block) + "]]")
    except orjson.JSONDecodeError:
        return None
    if (len(rows) != len(block) or set(map(type, rows)) != {list}
            or len(set(map(len, rows))) != 1
            or set(map(type, itertools.chain.from_iterable(rows))) != {float}):
        return None
    return np.array(rows, dtype=float)


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


def write_data_csv(path, data):
    """Write an (n, p) array as CSV under an X1..Xp header."""
    arr = np.asarray(data, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"X{j + 1}" for j in range(arr.shape[1])])
        for row in arr:
            writer.writerow([repr(float(v)) for v in row])


def read_corr_json(path):
    """Read ``{"correlation": [[...]], "n": int}``; returns ``(corr, n)``.

    The file is read once and its bytes decoded by orjson. A document
    orjson refuses (``NaN`` and ``Infinity`` tokens, numbers beyond the
    double range, lone surrogates, invalid UTF-8), or whose ``n`` it does
    not give as an int (it turns integers outside 64 bits into floats), is
    decoded again from the same bytes by :func:`load_json`'s stdlib
    decoder. The matrices, ``n`` and errors are those of the stdlib alone.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = orjson.loads(raw)
    except orjson.JSONDecodeError:
        doc = None
    if not isinstance(doc, dict) or type(doc.get("n")) is not int:
        doc = _loads(path, raw)
    if not isinstance(doc, dict) or "correlation" not in doc or "n" not in doc:
        raise ParseError(f"{path}: expected keys 'correlation' and 'n'")
    try:
        corr = np.asarray(doc["correlation"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    n = doc["n"]
    if type(n) is not int:  # bool is an int subclass
        raise ParseError(f"{path}: n must be an integer, got {n!r}")
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ParseError(f"{path}: correlation must be a square matrix")
    if n < 1:
        raise ParseError(f"{path}: n must be >= 1, got {n}")
    return corr, n


def load_json(path):
    """The JSON document in ``path``, decoded as UTF-8 by the stdlib."""
    with open(path, "rb") as fh:
        return _loads(path, fh.read())


def _loads(path, raw):
    """Stdlib ``json`` on ``raw`` as UTF-8 text (RFC 8259). Line ends are
    translated as a text-mode read translates them, so error positions
    count characters as they did when files were read as text."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid UTF-8: {exc}") from None
    try:
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
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
