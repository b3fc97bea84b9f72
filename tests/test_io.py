"""File formats: data CSV, correlation JSON, deterministic JSON emission."""

import decimal
import json
import math
import os
import tempfile
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ctfactor import io as io_module
from ctfactor.errors import ParseError
from ctfactor.io import (
    dumps_json,
    load_json,
    read_corr_json,
    read_data_csv,
    save_json,
    write_data_csv,
)
from ctfactor.numerics import philox
from oracles import dumps_json_reference, read_corr_json_reference


class TestDataCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        data = philox(1).standard_normal((20, 3))
        path = tmp_path / "data.csv"
        write_data_csv(path, data)
        back, header = read_data_csv(path)
        assert header == ["X1", "X2", "X3"]
        assert np.array_equal(back, data)

    def test_headerless_accepted(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.0,2.0\n3.5,4.5\n")
        back, header = read_data_csv(path)
        assert header is None
        assert np.array_equal(back, [[1.0, 2.0], [3.5, 4.5]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="row 3"):
            read_data_csv(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError):
            read_data_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,inf\n")
        with pytest.raises(ParseError):
            read_data_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_data_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "no rows"),
            ("\n\r\n\n", "no rows"),
            ("a,b\n", "header but no data rows"),
            ("a,b\r\n\r\n\n", "header but no data rows"),
            ("  \n", "header but no data rows"),
        ],
    )
    def test_no_data_rows_raise_no_warning(self, tmp_path, text, message):
        # numpy's reader warns on input without data, so it must not see any
        path = tmp_path / "nodata.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as exc:
                read_data_csv(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
            ('x\n"1\n",-0\n', [[1.0, -0.0]]),
            ("\u0661,1_0\n2.5, 3 \n", [[1.0, 10.0], [2.5, 3.0]]),
        ],
    )
    def test_accepts_what_float_accepts(self, tmp_path, text, expected):
        path = tmp_path / "odd.csv"
        path.write_bytes(text.encode())
        back, _ = read_data_csv(path)
        assert back.tobytes() == np.array(expected).tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_read_once(self, tmp_path):
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=("1,2\n3,4\n",), daemon=True)
        writer.start()
        back, header = read_data_csv(pipe)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert header is None
        assert np.array_equal(back, [[1.0, 2.0], [3.0, 4.0]])


#: Cells ``float()`` accepts, in the forms writers produce.
NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.3E}"),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["+1.5", "-0", "-0.0", ".5", "5.", "1e5", "1E-3", "-2.5e+02",
                     "+.5e-1", "007", "1e-400", "1.7976931348623157e308"]),
)
#: Cells ``float()`` accepts and numpy's reader does not.
FLOAT_ONLY_CELLS = st.sampled_from(["\u0661", "\u0663.\u0665", "1_0", "-2_5.0_1", "1e1_0"])
#: Cells both parsers read as a value that is not finite.
NON_FINITE_CELLS = st.sampled_from(["inf", "-inf", "nan", "NaN", "Infinity", "1e999"])
#: Cells both parsers refuse.
ODD_CELLS = st.sampled_from(
    ["", "1__0", "_1", "x", "#", "1#", "1 2", "0x1p3", "nan(1)", "1d5", '1"2"']
)
HEADER_CELLS = st.sampled_from(
    ["X1", "X2", "a b", " y ", '"q,r"', '"multi\nline"', "", "#h", "nan?"]
)
#: Per kind of text: cells, paddings, quotings, extra lines, row widths.
TEXT_KINDS = {
    "numbers": (NUMBER_CELLS, ("", " ", "\t"), ("plain", "quoted"), ("",), (0,)),
    "non-finite": (
        st.one_of(NUMBER_CELLS, NON_FINITE_CELLS),
        ("", " "),
        ("plain", "quoted"),
        ("",),
        (0,),
    ),
    "comment-lines": (NUMBER_CELLS, ("", " "), ("plain", "quoted"), ("", "#", "# 1,2"), (0,)),
    "float-only": (
        st.one_of(NUMBER_CELLS, FLOAT_ONLY_CELLS),
        ("", " ", "\xa0", "\u2003"),
        ("plain", "quoted", "quoted-newline"),
        ("",),
        (0,),
    ),
    "mixed": (
        st.one_of(NUMBER_CELLS, FLOAT_ONLY_CELLS, NON_FINITE_CELLS, ODD_CELLS),
        ("", " ", "\t", "\xa0"),
        ("plain", "quoted", "space-quoted", "quoted-tail", "quoted-newline"),
        ("", " ", "\t"),
        (0, 0, 0, -1, 1),
    ),
}


@st.composite
def dressed(draw, cells, pads, quotings):
    """A drawn cell with optional surrounding spaces and quotes."""
    cell = draw(st.sampled_from(pads)) + draw(cells) + draw(st.sampled_from(pads))
    return {
        "plain": "{}",
        "quoted": '"{}"',
        "space-quoted": ' "{}"',
        "quoted-tail": '"{}"5',
        "quoted-newline": '"{}\n"',
    }[draw(st.sampled_from(quotings))].format(cell)


@st.composite
def csv_texts(draw):
    """CSV text: optional header, rows of cells, extra lines, line ends.

    ``numbers`` texts hold only numbers, spaces and quotes in rows of one
    width, so both parsers accept them; ``non-finite`` adds values that
    are not finite, ``comment-lines`` lines that a reader skipping ``#``
    comments would drop, ``float-only`` cells only ``float()`` accepts,
    and ``mixed`` cells either parser refuses, ragged rows and
    whitespace-only lines.
    """
    cells, pads, quotings, extra_lines, raggedness = TEXT_KINDS[draw(st.sampled_from(sorted(TEXT_KINDS)))]
    width = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.lists(HEADER_CELLS, min_size=width, max_size=width))))
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(extra_lines)))
            continue
        size = width + draw(st.sampled_from(raggedness))
        lines.append(",".join(draw(st.lists(dressed(cells, pads, quotings), min_size=size, max_size=size))))
    ends = draw(st.sampled_from(("\n", "\r\n", "\r", "mixed")))
    text = ""
    for line in lines:
        text += line + (draw(st.sampled_from(("\n", "\r\n", "\r"))) if ends == "mixed" else ends)
    if text and draw(st.booleans()):  # no line end after the last row
        text = text[:-2] if text.endswith("\r\n") else text[:-1]
    return text


def read_outcome(reader, path):
    try:
        data, header = reader(path)
    except ParseError as exc:
        return ("error", str(exc))
    return ("ok", data.shape, data.dtype.str, data.tobytes(), header)


#: orjson block sizes to read at: one and two rows put block boundaries
#: between the few rows of a drawn text, the default rarely does.
BLOCKS = [1, 2, io_module._BLOCK]

CSV_TEXT_SETTINGS = settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def check_against_cell_loop(text, block):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with mock.patch.object(io_module, "_BLOCK", block), mock.patch.object(
            io_module, "_read_cells", wraps=io_module._read_cells
        ) as cell_loop, warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = read_outcome(read_data_csv, path)
        reference = read_outcome(io_module._read_cells, path)
    assert fast == reference
    # the cell loop serves only input numpy's reader cannot convert
    if reference[0] == "ok" and text.isascii() and "_" not in text:
        assert not cell_loop.called


class TestFastPathMatchesCellLoop:
    @CSV_TEXT_SETTINGS
    @given(csv_texts())
    def test_same_values_header_or_error(self, text):
        check_against_cell_loop(text, io_module._BLOCK)

    @pytest.mark.parametrize("block", BLOCKS[:2])
    @CSV_TEXT_SETTINGS
    @given(text=csv_texts())
    def test_same_at_small_blocks(self, block, text):
        check_against_cell_loop(text, block)


def halfway(x):
    """The exact decimal midway between ``x`` and the next double up."""
    ctx = decimal.Context(prec=1100)
    above = decimal.Decimal(math.nextafter(x, math.inf))
    return format(ctx.divide(ctx.add(decimal.Decimal(x), above), 2), "e")


#: Number tokens that orjson reads as floats: mantissas of 1 to 40
#: digits with exponents past both ends of the double range, and exact
#: halfway points between adjacent doubles, where rounding errors show.
JSON_FLOATS = st.one_of(
    st.tuples(
        st.sampled_from(["", "-"]),
        st.integers(1, 9),
        st.text("0123456789", min_size=1, max_size=39),
        st.integers(-345, 307),
    ).map(lambda t: f"{t[0]}{t[1]}.{t[2]}e{t[3]}"),
    st.floats(-1.7e308, 1.7e308).map(halfway),
)


class TestBlockDoublesMatchFloat:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(JSON_FLOATS, min_size=6, max_size=6), min_size=1, max_size=8))
    def test_same_bits_as_float(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w") as fh:
                fh.write("".join(",".join(row) + "\n" for row in rows))
            outcome, loadtxt, _ = read_paths(path)
            assert outcome == read_outcome(io_module._read_cells, path)
        assert outcome[0] == "ok" and not loadtxt


def read_paths(path, block=io_module._BLOCK):
    """``read_data_csv(path)`` at orjson block size ``block``, and whether
    numpy's reader and the cell loop were called."""
    with mock.patch.object(io_module, "_BLOCK", block), mock.patch.object(
        io_module.np, "loadtxt", wraps=np.loadtxt
    ) as loadtxt, mock.patch.object(
        io_module, "_read_cells", wraps=io_module._read_cells
    ) as cell_loop:
        outcome = read_outcome(read_data_csv, path)
    return outcome, loadtxt.called, cell_loop.called


class TestReaderPath:
    """Which of the three readers (orjson blocks, numpy's reader, the
    cell loop) a file goes through, and that the values do not say."""

    @pytest.mark.parametrize("block", BLOCKS)
    def test_written_doubles_skip_numpy(self, tmp_path, block):
        path = tmp_path / "data.csv"
        scales = 10.0 ** philox(4).integers(-300, 300, (300, 40))
        write_data_csv(path, philox(3).standard_normal((300, 40)) * scales)
        assert read_paths(path, block) == (read_outcome(io_module._read_cells, path), False, False)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a,b\n1,-0\n-0,2\n", [[1.0, -0.0], [-0.0, 2.0]]),  # orjson: -0 is the int 0
            ('"1.5","-0"\n"2.5",3e0\n', [[1.5, -0.0], [2.5, 3.0]]),  # orjson: str cells
        ],
        ids=["integers", "quoted"],
    )
    @pytest.mark.parametrize("block", BLOCKS)
    def test_other_numbers_take_numpy(self, tmp_path, text, expected, block):
        path = tmp_path / "data.csv"
        path.write_text(text)
        outcome, loadtxt, cell_loop = read_paths(path, block)
        assert outcome == read_outcome(io_module._read_cells, path)
        assert loadtxt and not cell_loop
        assert outcome[3] == np.array(expected).tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            "1.5,2.5\n3.5,4.5\n\n\r\n\n",
            "1.5,2.5\n\n\n\n\r\n3.5,4.5\r\n\r\n",
            "x,y\n\n\n1.5,2.5\r\r3.5,4.5",
        ],
        ids=["blank-tail", "blank-inside", "blank-after-header"],
    )
    @pytest.mark.parametrize("block", BLOCKS)
    def test_blank_lines_end_nothing_but_the_input(self, tmp_path, text, block):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        outcome, loadtxt, cell_loop = read_paths(path, block)
        assert outcome[3] == np.array([[1.5, 2.5], [3.5, 4.5]]).tobytes()
        assert not loadtxt and not cell_loop

    @pytest.mark.parametrize(
        "text, error",
        [
            ("1.5,2.5\n3.5,4.5\n1,2\n", None),
            ("1.5,2.5\n3.5,4.5\n \n", "row 3 has 1 cells, expected 2"),
            ("1.5,2.5\n3.5,4.5\n\t\n\n", "row 3 has 1 cells, expected 2"),
            ("1.5,2.5\n3.5,4.5\n5.5\n", "row 3 has 1 cells, expected 2"),
            ("1.5\n3.5\n5.5],[6.5\n", "row 3 has 2 cells, expected 1"),
            ("1.5,2.5\n3.5,4.5\n5.5,true\n", "row 3, column 2: not a number: 'true'"),
            ("1.5,2.5\n3.5,4.5\nnull,6.5\n", "row 3, column 1: not a number: 'null'"),
        ],
        ids=["integers", "space-line", "tab-line", "short-row", "brackets", "true", "null"],
    )
    @pytest.mark.parametrize("block", BLOCKS)
    def test_refused_block_after_good_ones(self, tmp_path, text, error, block):
        path = tmp_path / "data.csv"
        path.write_text(text)
        outcome, loadtxt, cell_loop = read_paths(path, block)
        assert outcome == read_outcome(io_module._read_cells, path)
        if error is None:
            assert loadtxt and not cell_loop
        else:
            assert cell_loop and outcome == ("error", f"{path}: {error}")


class TestCorrJson:
    def test_round_trip(self, tmp_path):
        corr = np.array([[1.0, 0.25], [0.25, 1.0]])
        path = tmp_path / "corr.json"
        save_json(path, {"correlation": corr, "n": 50})
        back, n = read_corr_json(path)
        assert n == 50
        assert np.array_equal(back, corr)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"correlation": [[1.0]]}))
        with pytest.raises(ParseError):
            read_corr_json(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_json(path)

    @pytest.mark.parametrize("reader", [load_json, read_corr_json])
    def test_invalid_utf8_rejected(self, tmp_path, reader):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"correlation": [[1.0]], "n": 5, "note": "\xff"}')
        with pytest.raises(ParseError) as exc:
            reader(path)
        assert str(exc.value) == (
            f"{path}: invalid UTF-8: 'utf-8' codec can't decode byte 0xff "
            "in position 42: invalid start byte"
        )

    @pytest.mark.parametrize("reader", [load_json, read_corr_json])
    def test_bom_message_kept(self, tmp_path, reader):
        path = tmp_path / "bom.json"
        path.write_bytes(b'\xef\xbb\xbf{"correlation": [[1.0]], "n": 5}')
        with pytest.raises(ParseError) as exc:
            reader(path)
        assert str(exc.value) == (
            f"{path}: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)"
        )

    def test_clean_document_skips_stdlib(self, tmp_path):
        path = tmp_path / "corr.json"
        path.write_text('{"correlation": [[1.0, -0.0], [-0.0, 1]], "n": 9223372036854775807}')
        with mock.patch.object(io_module, "_loads", wraps=io_module._loads) as stdlib:
            corr, n = read_corr_json(path)
        assert not stdlib.called
        assert n == 2**63 - 1
        assert corr.tobytes() == np.array([[1.0, -0.0], [-0.0, 1.0]]).tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize(
        "text, n",
        [('{"correlation": [[1.0]], "n": 5}', 5), ('{"correlation": [[NaN]], "n": 1e2}', None)],
        ids=["orjson", "stdlib-fallback"],
    )
    def test_pipe_read_once(self, tmp_path, text, n):
        pipe = tmp_path / "pipe.json"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
        writer.start()
        if n is None:  # the stdlib decodes the bytes already read: NaN, then n
            with pytest.raises(ParseError, match="n must be an integer, got 100.0$"):
                read_corr_json(pipe)
        else:
            corr, got = read_corr_json(pipe)
            assert got == n and corr.tolist() == [[1.0]]
        writer.join(timeout=10)
        assert not writer.is_alive()


#: Number tokens: full-``repr`` and 6-decimal floats, integers either side
#: of the 64-bit limits, and tokens orjson refuses or reads differently.
NUMBER_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1, 1).map(lambda x: f"{x:.6f}"),
    st.integers(-(2**70), 2**70).map(str),
    st.integers(2**63 - 2, 2**64 + 2).flatmap(lambda v: st.sampled_from([str(v), str(-v)])),
    st.sampled_from([
        "-0.0", "-0", "5e-324", "2.4703282292062328e-324", "1e-400", "1E5", "1.5e+3",
        "1.7976931348623157e308", "1e400", "-1e400", "NaN", "Infinity", "-Infinity",
        str(10**400), str(2**1024 - 2**971), str(2**1024 - 2**970),
    ]),
)
#: Cells that are not numbers, and n values that are not integers.
OTHER_TOKENS = st.sampled_from(
    ["true", "false", "null", '"7"', '"1.5"', "[]", "[1]", "{}", '"\\ud800"', "2000.5", "2000.0"]
)
#: Strings for extra keys and values: non-ASCII, escapes, lone surrogates.
STRING_TOKENS = st.one_of(
    st.text(max_size=5).map(lambda t: json.dumps(t, ensure_ascii=False)),
    st.text(max_size=5).map(json.dumps),
    st.sampled_from(['"\\ud800"', '"\\udc00x"', '"\\u00e9"', '"caf\u00e9"']),
)
SPACES = st.sampled_from(["", " ", "\n", "\r\n", "\t", "\r"])
#: Valid sample sizes, drawn often enough that most documents are read.
INT_N_TOKENS = st.integers(1, 5000).map(str)


def one_in(k):
    """True with probability ``1 / k`` (``st.integers`` would favour 0)."""
    return st.sampled_from([False] * (k - 1) + [True])


@st.composite
def corr_documents(draw):
    """Bytes of a correlation JSON, well formed or broken in one of the
    ways readers meet: odd numbers, a non-integer ``n``, missing, extra
    and repeated keys, ragged rows, a BOM, invalid UTF-8, truncation."""
    size = draw(st.sampled_from([0, 1, 2, 2, 3, 3]))
    cell = st.one_of(NUMBER_TOKENS, OTHER_TOKENS) if draw(one_in(5)) else NUMBER_TOKENS
    rows = []
    for _ in range(size):
        width = size + (draw(st.sampled_from([-1, 1])) if draw(one_in(10)) else 0)
        rows.append("[" + ", ".join(draw(st.lists(cell, min_size=width, max_size=width))) + "]")
    pad = draw(SPACES)
    items = [('"correlation"', "[" + ("," + pad).join(rows) + "]")]
    items.append(('"n"', draw(st.one_of(INT_N_TOKENS, INT_N_TOKENS, NUMBER_TOKENS, OTHER_TOKENS))))
    for _ in range(draw(st.integers(0, 2))):
        items.append((draw(STRING_TOKENS), draw(st.one_of(STRING_TOKENS, NUMBER_TOKENS))))
    change = draw(st.sampled_from(["none"] * 8 + ["drop", "repeat"]))
    if change == "drop":
        items.pop(draw(st.integers(0, 1)))
    elif change == "repeat":
        items.append(('"n"', draw(st.one_of(INT_N_TOKENS, NUMBER_TOKENS, OTHER_TOKENS))))
    items = draw(st.permutations(items))
    text = "{" + pad + ("," + pad).join(f"{k}:{draw(SPACES)}{v}" for k, v in items) + pad + "}"
    if draw(one_in(20)):
        text = draw(st.sampled_from(["[]", "null", "1", text + "}", text[:-1]]))
    raw = text.encode("utf-8", "surrogatepass")
    damage = draw(st.sampled_from(["none"] * 12 + ["bom", "xff", "bad-pair", "cut"]))
    at = draw(st.integers(0, len(raw)))
    if damage == "bom":
        raw = b"\xef\xbb\xbf" + raw
    elif damage in ("xff", "bad-pair"):
        raw = raw[:at] + (b"\xff" if damage == "xff" else b"\xc3\x28") + raw[at:]
    elif damage == "cut":
        raw = raw[:at]
    return raw


def corr_outcome(reader, path):
    try:
        corr, n = reader(path)
    except ParseError as exc:
        return ("error", str(exc))
    return ("ok", corr.shape, corr.dtype.str, corr.tobytes(), type(n), n)


class TestCorrJsonMatchesStdlib:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(corr_documents())
    def test_same_matrix_n_or_error(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "corr.json")
            with open(path, "wb") as fh:
                fh.write(raw)
            assert corr_outcome(read_corr_json, path) == corr_outcome(
                read_corr_json_reference, path)


class TestDeterministicJson:
    def test_key_order_canonical(self):
        assert dumps_json({"b": 1, "a": 2}) == dumps_json({"a": 2, "b": 1})

    def test_numpy_values_become_plain(self):
        doc = json.loads(dumps_json({"x": np.float64(0.5), "k": np.int64(3),
                                     "v": np.arange(3), "flag": np.bool_(True)}))
        assert doc == {"x": 0.5, "k": 3, "v": [0, 1, 2], "flag": True}

    def test_non_finite_becomes_null(self):
        doc = json.loads(dumps_json({"a": float("nan"), "b": float("inf")}))
        assert doc == {"a": None, "b": None}

    def test_save_is_byte_stable(self, tmp_path):
        payload = {"z": [1.5, 2.5], "a": {"nested": True}}
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        save_json(p1, dict(payload))
        save_json(p2, {"a": {"nested": True}, "z": [1.5, 2.5]})
        assert p1.read_bytes() == p2.read_bytes()

    def test_trailing_newline(self, tmp_path):
        path = tmp_path / "nl.json"
        save_json(path, {"a": 1})
        assert path.read_bytes().endswith(b"\n")

    @pytest.mark.parametrize(
        "value", [object(), {1, 2}, 1j, b"x", np.complex128(1), {1: "a"}, {"a": 1, 2: "b"}],
        ids=["object", "set", "complex", "bytes", "numpy-complex", "int-key", "mixed-keys"],
    )
    def test_unsupported_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            dumps_json({"nested": [value]})


INTS = st.integers(-(2**70), 2**70)
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    INTS,
    FLOATS,
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e-05, 1e16, 0.1, True, 1, False, 0]),
    st.text(),  # non-ASCII and control characters included
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
)
ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
)
PAIR_LISTS = st.lists(
    st.one_of(st.tuples(INTS, INTS), st.lists(INTS, min_size=2, max_size=2)), max_size=6
)
NEAR_MISS_PAIRS = st.sampled_from([
    [[1, 2.0]], [[True, 1]], [[1, 2, 3]], [[1]], [[1, 2], 3], [[1, 2], [3, None]],
    [[1, np.int64(2)]], [(1, 2), [3, 4], (5, 6.5)], [[1, 2], [[3, 4], [5, 6]]], [[], []],
])
DOCUMENTS = st.recursive(
    st.one_of(SCALARS, ARRAYS, PAIR_LISTS, NEAR_MISS_PAIRS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=25,
)


class TestEmitterMatchesStdlib:
    @settings(max_examples=600, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(DOCUMENTS)
    def test_same_bytes_as_json_dumps(self, doc):
        assert dumps_json(doc) == dumps_json_reference(doc)
