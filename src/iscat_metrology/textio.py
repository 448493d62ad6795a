"""The one place that writes data files: CSV tables and JSON documents.

A CSV table is a mapping of column name to column.  A column is a float
array or any sequence of cells; each cell is written as a string when it is
one (blank cells, flags, pre-formatted values), exactly with ``str`` when it
is a Python int (so seeds of any size survive), and otherwise with
``%.17g``, which round-trips every double bit for bit (NaN reads "nan").
JSON relies on Python's shortest round-trip repr, which is equally lossless.
"""

from __future__ import annotations

import itertools
import json

import numpy as np


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


def write_csv(path, columns: dict, comments=()) -> None:
    """Write named, equal-length columns with '# ...' comment lines on top."""
    cells = (
        map(fmt, col.tolist() if isinstance(col, np.ndarray) else col)
        for col in columns.values()
    )
    rows = map(",".join, zip(*cells, strict=True))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(",".join(columns) + "\n")
        # formatted and written in chunks: a large table never sits in memory
        # as one list of lines or one string
        while chunk := list(itertools.islice(rows, 8192)):
            fh.write("\n".join(chunk) + "\n")
