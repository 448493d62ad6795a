import math
import sys
from fractions import Fraction

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


# --- the float formatter: every cell equals "%.17g" % v -------------------------


def float_cells(directory, values) -> list:
    """The cells ``write_csv`` writes for a float64 column of ``values``."""
    path = directory / "floats.csv"
    write_csv(path, {"v": np.asarray(values, dtype=np.float64)})
    return path.read_text(encoding="ascii").split("\n")[1:-1]


def assert_printf_cells(directory, values):
    values = np.asarray(values, dtype=np.float64).ravel()
    expected = ["%.17g" % v for v in values.tolist()]
    cells = float_cells(directory, values)
    wrong = [(v.hex(), c, e) for v, c, e in zip(values.tolist(), cells, expected) if c != e]
    assert len(cells) == len(expected) and not wrong, wrong[:5]


def with_negatives(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def test_float_cells_over_every_binade(tmp_path):
    rng = np.random.default_rng(20261019)
    n = 500_000
    # random bit patterns: every binade, both signs, subnormals, inf and NaN
    anywhere = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False)
    # and as many with |v| in [2**-24, 2**60), around the formatted domain
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(1023 - 24, 1023 + 60, n, dtype=np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 2**52, n, dtype=np.uint64)
    near = sign | exponent | mantissa
    assert_printf_cells(tmp_path, np.concatenate([anywhere, near]).view(np.float64))


def test_float_cells_at_powers_of_ten_and_their_neighbours(tmp_path):
    powers = np.array([float(f"1e{k}") for k in range(-8, 19)])
    below = np.nextafter(powers, 0.0)
    above = np.nextafter(powers, math.inf)
    assert_printf_cells(tmp_path, with_negatives([powers, below, above]))


def test_float_cells_at_half_way_ties(tmp_path):
    """(2j+1)/2**n in [10**X, 10**(X+1)) with n = 17 - X sits half way
    between two 17-digit decimals: it must round half to even."""
    rng = np.random.default_rng(7)
    ties = []
    for x in range(-6, 16):
        n = 17 - x
        lo = math.ceil(Fraction(10) ** x * 2**n)
        hi = min(Fraction(10) ** (x + 1) * 2**n, 2**53)
        odd = rng.integers(lo // 2, (hi - 1) // 2, 500) * 2 + 1
        ties += [m / 2**n for m in odd.tolist()]
    for v in ties:
        scaled = Fraction(v) * Fraction(10) ** (16 - math.floor(math.log10(v)))
        assert scaled - math.floor(scaled) == Fraction(1, 2), v
    assert_printf_cells(tmp_path, with_negatives(ties + [(2 * j + 1) / 2**20 for j in range(4096)]))


def test_float_cells_at_layout_and_domain_edges(tmp_path):
    edges = [
        9.99999999999999955e-07,  # rounds up to 1e16 when scaled by 1e22
        1e-6, 1e-5, 1e-4, 1e-3,  # the exponent/fixed switch at 1e-4
        1e16, 1e17, 99999999999999999.0, 9.9999999999999999e16,  # carry to 1e17
        1e17 - 16, 1e17 + 16, 2.0**53, 2.0**53 + 2, 2.0**57, 123456789012345678.0,
        0.1, 0.5, 1.0, 1.5, 10.0, 100.5, 0.30000000000000004,
    ]
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, math.inf)])
    assert_printf_cells(tmp_path, with_negatives(edges))


def test_float_cells_for_zeros_non_finite_and_subnormals(tmp_path):
    specials = [0.0, math.nan, math.inf, 5e-324, 1e-320, 2.2250738585072009e-308,
                2.2250738585072014e-308, 1.7976931348623157e308]
    assert_printf_cells(tmp_path, with_negatives(specials))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=40))
def test_float_cells_for_any_doubles(tmp_path_factory, values):
    assert_printf_cells(tmp_path_factory.mktemp("floats"), values)
