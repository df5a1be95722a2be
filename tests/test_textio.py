import gzip
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swinfer import _textio
from swinfer._textio import (InputError, _read_matrix_csv_strict, dump_json,
                             format_float, read_matrix_csv, write_text)


def test_format_float_examples():
    assert format_float(0.1) == "0.1"
    assert format_float(1.0) == "1.0"
    assert format_float(-2.5e-300) == "-2.5e-300"
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            format_float(bad)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


def test_dump_json_structure():
    doc = {
        "a": 1,
        "b": 0.5,
        "c": True,
        "d": None,
        "e": [1.0, "two", False],
        "f": {"nested": np.array([0.25, 0.75])},
    }
    parsed = json.loads(dump_json(doc))
    assert parsed["a"] == 1
    assert parsed["b"] == 0.5
    assert parsed["c"] is True
    assert parsed["d"] is None
    assert parsed["e"] == [1.0, "two", False]
    assert parsed["f"]["nested"] == [0.25, 0.75]


def test_dump_json_keeps_bool_and_int_apart():
    # bool is an int subclass; the emitter must write true, not 1
    text = dump_json({"flag": True, "count": 1})
    assert "true" in text
    parsed = json.loads(text)
    assert parsed["flag"] is True and parsed["count"] == 1


def test_dump_json_floats_reparse_exactly():
    """Each float comes back a float with the same bits (``float.hex`` tells
    -0.0 from 0.0, and an int has no ``hex`` method)."""
    values = [-0.0, 1.0, 2.0 ** 53, 1e16, 5e-324, 0.1, 1 / 3, 1e308]
    parsed = json.loads(dump_json({"v": values}))
    assert [type(got) for got in parsed["v"]] == [float] * len(values)
    assert [got.hex() for got in parsed["v"]] == [want.hex() for want in values]


def test_dump_json_takes_numpy_values():
    doc = {"flag": np.bool_(True), "count": np.int64(3),
           "x": np.float64(-0.0), "rows": np.array([[1, 2], [3, 4]]),
           "values": np.array([0.5, 2.0])}
    parsed = json.loads(dump_json(doc))
    assert parsed == {"flag": True, "count": 3, "x": -0.0,
                      "rows": [[1, 2], [3, 4]], "values": [0.5, 2.0]}
    assert parsed["flag"] is True and math.copysign(1.0, parsed["x"]) == -1.0
    for bad in (math.nan, math.inf, -math.inf, np.float64(math.nan),
                np.array([1.0, math.inf])):
        with pytest.raises(ValueError):
            dump_json({"v": bad})


def test_read_matrix_csv_happy_path(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.5,2\n-3,4e-2\n0,0\n")
    got = read_matrix_csv(str(path))
    np.testing.assert_array_equal(
        got, np.array([[1.5, 2.0], [-3.0, 0.04], [0.0, 0.0]]))
    assert got.dtype == np.float64


def test_read_matrix_csv_reports_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(InputError, match=r":2: "):
        read_matrix_csv(str(path))


def test_read_matrix_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(InputError, match=r":2: "):
        read_matrix_csv(str(path))


def test_read_matrix_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "inf.csv"
    for token in ("inf", "1e400"):
        path.write_text(f"1,2\n{token},4\n")
        with pytest.raises(InputError, match=r":2: non-finite"):
            read_matrix_csv(str(path))


def test_read_matrix_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    for text in ("", " \n\t\n  "):
        path.write_text(text)
        with pytest.raises(InputError, match="no data rows"):
            read_matrix_csv(str(path))


def _write(tmp_path, text, name="m.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def test_read_matrix_csv_valid_file_skips_line_loop(tmp_path, monkeypatch):
    def refuse(path):
        raise AssertionError("line loop used on a file the C reader parses")

    monkeypatch.setattr(_textio, "_read_matrix_csv_strict", refuse)
    path = _write(tmp_path, "1.5,-2\r\n3e-3,4\r\n\n0.1,1e308\r\n")
    np.testing.assert_array_equal(
        read_matrix_csv(path), [[1.5, -2.0], [3e-3, 4.0], [0.1, 1e308]])


@pytest.mark.parametrize("text", ["1,2\n  \t\n3,4\n", "1,2\n3,4\n \n  "],
                         ids=["middle", "eof"])
def test_read_matrix_csv_accepts_whitespace_only_lines(tmp_path, text):
    got = read_matrix_csv(_write(tmp_path, text))
    np.testing.assert_array_equal(got, [[1.0, 2.0], [3.0, 4.0]])


def test_read_matrix_csv_accepts_underscore_digits(tmp_path):
    got = read_matrix_csv(_write(tmp_path, "1_0,2\n3,4\n"))
    np.testing.assert_array_equal(got, [[10.0, 2.0], [3.0, 4.0]])


def test_read_matrix_csv_missing_path(tmp_path):
    with pytest.raises(InputError, match="cannot open"):
        read_matrix_csv(str(tmp_path / "absent.csv"))


def test_read_matrix_csv_names_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"1,2\n\xff,3\n")
    with pytest.raises(InputError, match="not UTF-8 text") as info:
        read_matrix_csv(str(path))
    assert str(path) in str(info.value)
    proc = subprocess.run([sys.executable, "-m", "swinfer.cli", "estimate",
                           "--x", str(path), "--y", str(path), "--k", "4"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert f"error: {path}: not UTF-8 text" in proc.stderr


@pytest.mark.parametrize("text, line", [("\ufeff1,2\n3,4\n", 1),
                                        ("1,2\n#x\n3,4\n", 2)],
                         ids=["bom", "comment"])
def test_read_matrix_csv_rejects_bom_and_comment(tmp_path, text, line):
    with pytest.raises(InputError, match=rf":{line}: not a float row"):
        read_matrix_csv(_write(tmp_path, text))


def test_read_matrix_csv_one_row_and_one_column(tmp_path):
    assert read_matrix_csv(_write(tmp_path, "1,2,3\n")).shape == (1, 3)
    assert read_matrix_csv(_write(tmp_path, "1\n2\n3\n", "c.csv")).shape == (3, 1)


def test_read_matrix_csv_reads_compressed_suffix_as_text(tmp_path):
    # np.loadtxt given a path string would decompress by suffix and try
    # "<path>.gz" for a missing path; the reader must do neither
    packed = tmp_path / "m.csv.gz"
    with gzip.open(packed, "wt") as handle:
        handle.write("1,2\n3,4\n")
    with pytest.raises(InputError, match="not UTF-8 text"):
        read_matrix_csv(str(packed))
    with pytest.raises(InputError, match="cannot open"):
        read_matrix_csv(str(tmp_path / "m.csv"))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_read_matrix_csv_reads_a_pipe_once(tmp_path):
    # A pipe cannot be reread, so it must go to the line loop alone: a failed
    # C-reader attempt would drain the start of the stream. The whitespace
    # line near the end is one the C reader refuses.
    rows = [f"{i / 7!r},{-i * 1e-3!r}" for i in range(3000)]
    text = "\n".join(rows[:2990] + ["  "] + rows[2990:]) + "\n"
    want = read_matrix_csv(_write(tmp_path, text))
    assert want.shape == (3000, 2)

    fifo = str(tmp_path / "pipe.csv")
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w", encoding="utf-8") as handle:
            handle.write(text)

    result = {}

    def read():
        try:
            result["got"] = read_matrix_csv(fifo)
        except InputError as exc:
            result["got"] = exc

    writer = threading.Thread(target=feed, daemon=True)
    reader = threading.Thread(target=read, daemon=True)
    writer.start()
    reader.start()
    reader.join(timeout=30)
    if reader.is_alive():
        # a second open of the pipe waits for a writer that never comes;
        # open one so the stuck reader sees end of file and exits
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=5)
        pytest.fail("the pipe was opened twice")
    writer.join(timeout=5)
    got = result["got"]
    assert isinstance(got, np.ndarray), got
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


_FORMATS = (repr, lambda v: "%.17g" % v, lambda v: "%.3e" % v)
_BAD_TOKENS = ("nan", "inf", "1e400", "1_0", "", "#x")
_SPACE = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def _csv_texts(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for _ in range(n):
        if draw(st.booleans()):
            lines.extend(draw(st.lists(st.sampled_from(["", " ", "\t \t"]),
                                       max_size=2)))
        fields = []
        for _ in range(d):
            value = draw(st.floats(allow_nan=False, allow_infinity=False))
            text = draw(st.sampled_from(_FORMATS))(value)
            fields.append(draw(_SPACE) + text + draw(_SPACE))
        lines.append(fields)
    rows = [i for i, line in enumerate(lines) if isinstance(line, list)]
    bad = draw(st.sampled_from((None, "bom", "column") + _BAD_TOKENS))
    if bad == "column":
        lines[draw(st.sampled_from(rows))].append("1")
    elif bad is not None and bad != "bom":
        row = lines[draw(st.sampled_from(rows))]
        row[draw(st.integers(0, d - 1))] = bad
    text = newline.join(",".join(line) if isinstance(line, list) else line
                        for line in lines)
    if draw(st.booleans()):
        text += newline
    return ("\ufeff" if bad == "bom" else "") + text


def _outcome(parse, path):
    try:
        return parse(path)
    except InputError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(text=_csv_texts())
def test_read_matrix_csv_matches_line_loop(tmp_path_factory, text):
    path = _write(tmp_path_factory.mktemp("csv"), text)
    fast = _outcome(read_matrix_csv, path)
    strict = _outcome(_read_matrix_csv_strict, path)
    if isinstance(strict, str):
        assert fast == strict
    else:
        assert isinstance(fast, np.ndarray) and fast.dtype == np.float64
        assert fast.shape == strict.shape
        np.testing.assert_array_equal(fast.view(np.uint64),
                                      strict.view(np.uint64))


def test_write_text_round_trip(tmp_path):
    path = tmp_path / "out.txt"
    write_text(str(path), "hello\n")
    assert path.read_text() == "hello\n"
