"""Text interchange helpers: strict CSV parsing, CSV reports and round-trip JSON.

Every float in a report is spelled by ``repr``: the shortest text that
re-parses to the identical double, so every report emitted by this package
round-trips exactly. JSON goes through the stdlib ``json`` encoder, CSV
through the stdlib ``csv`` writer.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import warnings

import numpy as np


class InputError(ValueError):
    """A user-supplied file or value failed to parse or validate."""


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return repr(x)


def _csv_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return str(value)


def csv_text(header, rows) -> str:
    """A header line and one line per row, each ending in a newline.

    Floats are printed by :func:`format_float` and booleans as 0 or 1; a
    field that holds a comma, a quote or a line break is quoted, so every
    line has the header's width.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_csv_cell, row) for row in rows)
    return buffer.getvalue()


def _to_python(obj):
    """A numpy scalar or array as Python values, for the JSON encoder."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj) -> str:
    """Serialize dicts, lists, strings, bools, ints, floats, None and numpy
    values, two-space indented, in key insertion order; a non-finite float
    raises ValueError."""
    return json.dumps(obj, indent=2, allow_nan=False, default=_to_python)


def read_matrix_csv(path: str) -> np.ndarray:
    """Parse a headerless CSV of floats, one observation per row.

    A regular file is first handed, as an open text handle, to numpy's C
    reader (``np.loadtxt``, no comment character, warnings silenced). Its
    result is kept only if the call succeeds, yields at least one row and
    every value is finite. In every other case (a parse, decode or open
    error, an empty result or a non-finite value) the strict line loop
    :func:`_read_matrix_csv_strict` parses the file again. A path that is not
    a regular file, such as a pipe, which can be read only once, goes to the
    loop alone.

    Both readers convert a token to the same correctly rounded double, and
    the loop also takes what only ``float`` accepts (whitespace-only lines,
    ``1_0``, Unicode digits). So every input yields the same array, bit for
    bit, or the same InputError, with the offending line number, as the loop
    alone would; ``tests/test_textio.py`` checks this property.
    """
    path = os.fspath(path)
    if os.path.isfile(path):
        try:
            with open(path, "r", encoding="utf-8") as handle, \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore")
                data = np.loadtxt(handle, delimiter=",", dtype=np.float64,
                                  comments=None, ndmin=2)
        except (ValueError, OSError):
            pass
        else:
            if data.shape[0] and np.isfinite(data).all():
                return data
    return _read_matrix_csv_strict(path)


def _read_matrix_csv_strict(path: str) -> np.ndarray:
    """Parse line by line with ``float``; InputError names the bad line.

    Blank and whitespace-only lines are skipped; every other line must hold
    the same number of finite, comma-separated floats.
    """
    rows: list[list[float]] = []
    width = None
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    with handle:
        try:
            for lineno, line in enumerate(handle, 1):
                text = line.strip()
                if not text:
                    continue
                fields = text.split(",")
                try:
                    row = [float(f) for f in fields]
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: not a float row: {exc}") from exc
                if any(not math.isfinite(v) for v in row):
                    raise InputError(f"{path}:{lineno}: non-finite value")
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise InputError(
                        f"{path}:{lineno}: expected {width} columns, got {len(row)}")
                rows.append(row)
        except UnicodeDecodeError as exc:
            # raised by the handle's decoder, outside any one line
            raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
