"""The one place that writes data files: CSV tables and JSON documents.

A CSV table is a mapping of column name to column.  A column is a float
array or any sequence of cells; :func:`fmt` defines a cell: a string as
given (blank cells, flags, pre-formatted values), a Python int exactly with
``str`` (so seeds of any size survive), anything else with ``%.17g``, which
round-trips every double bit for bit (NaN reads "nan").  JSON relies on
Python's shortest round-trip repr, which is equally lossless.

The writer picks each column's printf spec once: ``%.17g`` for a float
array, ``%s`` for a column of plain ``str`` and ``int`` cells (the bytes
``fmt`` gives them), and ``%s`` over ``fmt``'s strings for any other
column.  Each chunk of rows is then one ``%`` of a repeated row template,
so no Python call is paid per cell of the first two kinds.
"""

from __future__ import annotations

import json

import numpy as np

#: Rows formatted and written at a time: a large table never sits in memory
#: as one string.
CHUNK_ROWS = 8192


def fmt(x) -> str:
    """One CSV cell: strings as given, Python ints exactly, floats %.17g."""
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return "%.17g" % x


def dump_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _column(col):
    """A column's printf spec and its cells, as the spec takes them.  A
    float array stays an array, converted a chunk at a time."""
    if isinstance(col, np.ndarray):
        if col.dtype.kind == "f":
            return "%.17g", col
        col = col.tolist()
    # exact types: a str or int subclass (bool too) may print otherwise
    if set(map(type, col)) <= {str, int}:
        return "%s", col
    return "%s", list(map(fmt, col))


def write_csv(path, columns: dict, comments=()) -> None:
    """Write named, equal-length columns with '# ...' comment lines on top.

    Raises ValueError before the file is opened when the lengths differ.
    """
    specs, cells = zip(*map(_column, columns.values())) if columns else ((), ())
    lengths = {name: len(c) for name, c in zip(columns, cells)}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    n_rows, k = min(lengths.values(), default=0), len(cells)
    row = ",".join(specs) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(",".join(columns) + "\n")
        for start in range(0, n_rows, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, n_rows)
            args = [None] * ((stop - start) * k)
            for j, col in enumerate(cells):
                part = col[start:stop]
                args[j::k] = part.tolist() if isinstance(part, np.ndarray) else part
            fh.write(row * (stop - start) % tuple(args))
