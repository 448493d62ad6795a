import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import EXTREME_FLOATS, oracle_csv
from iscat_metrology.textio import CHUNK_ROWS, write_csv

SPECIAL_FLOATS = EXTREME_FLOATS + (math.nan, math.inf, -math.inf, 2.2e-308, -1e-320)
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
TEXT = st.one_of(st.just(""), st.text(st.characters(blacklist_categories=["Cs"])))
ROW_COUNTS = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]


def cycled(cells, n):
    """``n`` cells repeating the drawn ones: long columns from short draws."""
    return [cells[i % len(cells)] for i in range(n)]


def sample(kind, n):
    """A strategy for one column of ``kind`` with ``n`` cells."""
    short = {
        "float64": st.lists(FLOATS, min_size=1, max_size=12),
        "float32": st.lists(
            st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=32)),
            min_size=1, max_size=12,
        ),
        "int_array": st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=12),
        "str": st.lists(TEXT, min_size=1, max_size=12),
        "big_int": st.lists(
            st.one_of(st.integers(2**64, 2**200), st.integers(-2**200, 2**200)),
            min_size=1, max_size=12,
        ),
        "bool": st.lists(st.booleans(), min_size=1, max_size=12),
        "bool_array": st.lists(st.booleans(), min_size=1, max_size=12),
        "str_and_float": st.lists(st.one_of(TEXT, FLOATS), min_size=1, max_size=12),
        "range": st.integers(-2**70, 2**70),
    }[kind]
    if kind == "range":
        return short.map(lambda start: range(start, start + n))
    dtype = {"float64": np.float64, "float32": np.float32, "int_array": np.int64,
             "bool_array": bool}.get(kind)
    if dtype is None:
        return short.map(lambda cells: cycled(cells, n))
    return short.map(lambda cells: as_array(cycled(cells, n), dtype))


def as_array(cells, dtype):
    with np.errstate(over="ignore"):  # doubles beyond float32 become inf
        return np.array(cells, dtype=dtype)


KINDS = ["float64", "float32", "int_array", "str", "big_int", "bool",
         "bool_array", "str_and_float", "range"]


@st.composite
def tables(draw):
    n = draw(st.sampled_from(ROW_COUNTS))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    columns = {f"c{j}_{kind}": draw(sample(kind, n)) for j, kind in enumerate(kinds)}
    line = st.characters(blacklist_categories=["Cs"], blacklist_characters="\r\n")
    comments = draw(st.lists(st.text(line), max_size=2))
    return columns, comments


@settings(max_examples=80, deadline=None)
@given(table=tables())
def test_matches_cell_by_cell_oracle(tmp_path_factory, table):
    columns, comments = table
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(path, columns, comments)
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    assert path.read_bytes() == oracle_csv(columns, zip(*cells), comments)


@pytest.mark.parametrize(
    "columns",
    [
        {"a": [1, 2], "b": [3]},
        {"a": np.zeros(CHUNK_ROWS + 1), "b": np.zeros(CHUNK_ROWS)},
        {"a": range(3), "b": ["x"] * 3, "c": np.zeros(4)},
    ],
)
def test_unequal_columns_raise_before_the_file_exists(tmp_path, columns):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(path, columns)
    assert not path.exists()


def test_no_python_call_per_cell_for_float_str_and_int_columns(tmp_path):
    n = 3 * CHUNK_ROWS + 5
    columns = {
        "x": np.linspace(0.0, 1.0, n),
        "flag": ["0", "1"] * (n // 2) + ["1"],
        "seed": range(2**64, 2**64 + n),
    }
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        write_csv(tmp_path / "table.csv", columns)
    finally:
        sys.setprofile(None)
    # a handful of calls per column and per chunk, none per cell
    assert calls < 50, calls
