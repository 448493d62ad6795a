"""Property tests: hostile input through the command-line entry point.

Each numeric field of a config keeps its valid value or is replaced by any
double (NaN, the infinities and +-1e308 included) or by a value of the wrong
JSON type.  Spectrum CSVs get hostile cells, shuffled, duplicated, extra or
missing columns, comment and blank lines, short and long rows and cells over
the ``csv`` module's field limit.  Scan axes and SNR sweeps get hostile
NAME:LO:HI:STEPS[:log] specs and NAME:V1,V2[,...] lists.  Whatever the input, ``main`` returns 0, 2 or
3 and raises nothing; a success writes only finite numbers, and a failure
writes no file.  A config field that is not a JSON number (null, a bool, a
string or a list), and a config key the schema does not name, always exit 2.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from iscat_metrology.cli import main
from iscat_metrology.spectrum import SPECTRUM_CSV_COLUMNS
from iscat_metrology.tuner import AXIS_NAMES, MAX_CELLS

HOSTILE = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]),
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.floats(), max_size=2),
    st.integers(),
)


def field(valid):
    return st.one_of(st.just(valid), HOSTILE)


SCHEMA_CONFIGS = st.fixed_dictionaries(
    {
        "alpha0_mag": field(1.0),
        "alpha_r": st.fixed_dictionaries({"re": field(2.3e-5), "im": field(0.0)}),
        "particle": st.fixed_dictionaries(
            {
                "mass_kda": field(1.0),
                "scale_per_kda": field(2e-5),
                "phi_s": field(5 * math.pi / 6),
            }
        ),
        "reference": st.one_of(
            st.none(),
            st.fixed_dictionaries({"mag": field(4.5e-5), "phi_i": field(0.0)}),
        ),
    }
)

#: The keys of each config object; any other key exits 2.
SCHEMA = {
    "config": {"alpha0_mag", "alpha_r", "particle", "reference"},
    "alpha_r": {"re", "im"},
    "particle": {"mass_kda", "scale_per_kda", "phi_s"},
    "reference": {"mag", "phi_i"},
}


def _objects(config):
    """(name, object) of the config and each of its objects."""
    yield "config", config
    for name in ("alpha_r", "particle", "reference"):
        if isinstance(config.get(name), dict):
            yield name, config[name]


@st.composite
def configs(draw):
    """A config, one time in four with a new key in one of its objects: a
    schema key of another object, a misspelling or any text."""
    config = draw(SCHEMA_CONFIGS)
    if draw(st.integers(0, 3)) == 0:
        _, obj = draw(st.sampled_from(list(_objects(config))))
        keys = st.one_of(st.sampled_from(["re", "mass", "refrence"]), st.text())
        obj[draw(keys.filter(lambda key: key not in obj))] = draw(HOSTILE)
    return config


CONFIGS = configs()

#: A valid config that overflows doubles: |dalpha|^2 and the projection of
#: alpha_d onto dalpha exceed 1.8e308.
OVERFLOW = {
    "alpha0_mag": 1e308,
    "alpha_r": {"re": 1e307, "im": 0},
    "particle": {"mass_kda": 1e300, "scale_per_kda": 1e7, "phi_s": 1.0},
    "reference": None,
}
#: A valid config whose detector mean |alpha_d|^2 overflows doubles while
#: the information stays finite.
HUGE_MEAN = {
    "alpha0_mag": 1e300,
    "alpha_r": {"re": 1e299, "im": 0},
    "particle": {"mass_kda": 1, "scale_per_kda": 1, "phi_s": 0},
    "reference": None,
}
VALID = {
    "alpha0_mag": 1.0,
    "alpha_r": {"re": 2.3e-5, "im": 0.0},
    "particle": {"mass_kda": 1.0, "scale_per_kda": 2e-5, "phi_s": 2.6},
    "reference": {"mag": 4.5e-5, "phi_i": 0.0},
}


def _reject_constant(token):
    raise AssertionError(f"non-finite number {token} in JSON output")


def _cells(path):
    """Every CSV cell below the header, comment lines skipped."""
    lines = [
        line for line in path.read_text().splitlines()
        if not line.startswith("#")
    ]
    return [cell for line in lines[1:] for cell in line.split(",")]


def assert_finite_output(path):
    if path.suffix == ".json":  # data file or manifest
        json.loads(path.read_text(), parse_constant=_reject_constant)
        return
    for cell in _cells(path):
        try:
            value = float(cell)
        except ValueError:
            continue  # text cell: a target name or a blank
        assert math.isfinite(value), f"non-finite cell {cell!r} in {path}"


def _numbers(config):
    """The values of a config's number fields."""
    yield config["alpha0_mag"]
    for key in ("alpha_r", "particle", "reference"):
        yield from (config[key] or {}).values()


def _not_a_number(value):
    """True for a JSON value other than a number (bool counts as one)."""
    return isinstance(value, bool) or not isinstance(value, (int, float))


def run_checked(tmp, argv):
    """Exit code of ``main(argv)`` writing into a new directory under
    ``tmp``, with the files it wrote checked."""
    out_dir = Path(tmp) / "out"
    out_dir.mkdir()
    out = out_dir / ("result.csv" if "csv" in argv else "result.json")
    rc = main([*argv, "--out", str(out)])
    assert rc in (0, 2, 3)
    written = list(out_dir.iterdir())
    if rc == 0:
        assert out in written
        for path in written:
            assert_finite_output(path)
    else:
        assert written == []
    return rc


def run_cli(subcommand, config, options):
    """Exit code of one run, with the data files it wrote checked."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(config))  # NaN / Infinity tokens allowed
        rc = run_checked(tmp, [subcommand, "--config", str(cfg_path), *options])
        if any(_not_a_number(value) for value in _numbers(config)):
            assert rc == 2
        if any(set(obj) - SCHEMA[name] for name, obj in _objects(config)):
            assert rc == 2
        return rc


@pytest.mark.parametrize("fmt", ["json", "csv"])
@settings(max_examples=150, deadline=None)
@given(config=CONFIGS, target=st.sampled_from(["mass", "phase"]))
@example(config=VALID, target="mass")
@example(config=OVERFLOW, target="mass")
def test_fisher_hostile_config(fmt, config, target):
    run_cli("fisher", config, ["--target", target, "--format", fmt])


@settings(max_examples=150, deadline=None)
@given(config=CONFIGS, target=st.sampled_from(["mass", "phase"]))
@example(config=VALID, target="mass")
@example(config=OVERFLOW, target="phase")
def test_optimize_hostile_config(config, target):
    run_cli("optimize", config, ["--target", target])


@settings(max_examples=60, deadline=None)
@given(config=CONFIGS, target=st.sampled_from(["mass", "phase"]))
@example(config=VALID, target="mass")
@example(config=HUGE_MEAN, target="mass")
def test_montecarlo_hostile_config(config, target):
    options = ["--target", target, "--trials", "2", "--samples", "2"]
    run_cli("montecarlo", config, options + ["--seed", "1"])


@pytest.mark.parametrize(
    "subcommand, options",
    [
        ("fisher", ["--format", "json"]),
        ("fisher", ["--format", "csv"]),
        ("montecarlo", ["--trials", "3", "--samples", "3", "--seed", "1"]),
    ],
)
def test_overflowing_information_exits_2(capsys, subcommand, options):
    assert run_cli(subcommand, OVERFLOW, options) == 2
    assert "cfi_photon_number" in capsys.readouterr().err


def test_overflowing_detector_mean_exits_2(capsys):
    options = ["--trials", "3", "--samples", "3", "--seed", "1"]
    assert run_cli("montecarlo", HUGE_MEAN, options) == 2
    assert "detector mean" in capsys.readouterr().err


def test_detector_mean_over_poisson_limit_exits_2(capsys):
    # |alpha_d|^2 = 1.6e19 fits a double but not numpy's Poisson sampler
    config = {
        "alpha0_mag": 1e10,
        "alpha_r": {"re": 4e9, "im": 0},
        "particle": {"mass_kda": 1, "scale_per_kda": 1, "phi_s": 0},
        "reference": None,
    }
    options = ["--trials", "2", "--samples", "2", "--seed", "1"]
    assert run_cli("montecarlo", config, options) == 2
    assert "detector mean |alpha_d|^2 = 1.6" in capsys.readouterr().err


def test_huge_integer_names_field(capsys):
    config = {**VALID, "alpha0_mag": 10**400}
    assert run_cli("fisher", config, []) == 2
    assert "alpha0_mag must be a number" in capsys.readouterr().err


# --- spectrum CSVs ------------------------------------------------------------

#: A valid cell of each column but omega, which grows with the row.
SPECTRUM_CELLS = {
    "weight": "0.1",
    "alpha_r_re": "0.02",
    "alpha_r_im": "0",
    "alpha_s_re": "0.001",
    "alpha_s_im": "0.002",
    "alpha_i_re": "0.01",
    "alpha_i_im": "-0.03",
    "scale_s": "1e-4",
    "phi_s": "1.1",
    "note": "x",  # an extra column
}
#: A valid number one character longer than the csv module's field limit.
LONG_CELL = "1." + "0" * (csv.field_size_limit() - 1)
HOSTILE_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(
        ["nan", "-inf", "1e400", "1e308", "-0.0", "5e-324", "0", "", " ",
         "1_0", '"1.5"', "x", LONG_CELL]
    ),
    st.text(max_size=4),
)
VALID_BAND = (
    "# a comment\n" + ",".join(SPECTRUM_CSV_COLUMNS) + "\n"
    + "".join(
        ",".join([omega] + [SPECTRUM_CELLS[n] for n in SPECTRUM_CSV_COLUMNS[1:]])
        + "\n"
        for omega in ("1.0", "1.1")
    )
)


@st.composite
def spectrum_csvs(draw):
    """CSV text: the columns in any order, perhaps one missing, perhaps some
    named twice or extra; rows with up to two hostile cells, perhaps one
    cell short or long; comment and blank lines anywhere."""
    names = draw(st.permutations(SPECTRUM_CSV_COLUMNS))
    names = names[draw(st.sampled_from([0, 0, 0, 1])):]
    extra = st.sampled_from([*SPECTRUM_CSV_COLUMNS, "note"])
    names += draw(st.lists(extra, max_size=2))
    lines = [",".join(names)]
    for k in range(draw(st.integers(1, 3))):
        cells = [SPECTRUM_CELLS.get(name, repr(1.0 + 0.1 * k)) for name in names]
        for j in draw(st.sets(st.integers(0, len(cells) - 1), max_size=2)):
            cells[j] = draw(HOSTILE_CELLS)
        length = len(cells) + draw(st.sampled_from([0, 0, 0, -1, 1]))
        lines.append(",".join((cells + ["0"])[:length]))
    for _ in range(draw(st.integers(0, 2))):
        line = draw(st.sampled_from(["", "   ", "# comment", "#,omega,,"]))
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=spectrum_csvs(), target=st.sampled_from(["mass", "phase"]))
@example(text=VALID_BAND, target="mass")
@example(text=VALID_BAND.replace("1.1,", LONG_CELL + ",", 1), target="mass")
def test_spectrum_hostile_csv(text, target):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "band.csv"
        path.write_text(text, encoding="utf-8")
        argv = ["spectrum", "--spectrum", str(path), "--target", target]
        rc = run_checked(tmp, argv)
        if text == VALID_BAND:
            assert rc == 0


# --- scan axes and SNR sweeps ---------------------------------------------------

#: Text that never splits an axis spec and never parses as an int: no ':'
#: and no decimal digit of any script.
SAFE_TEXT = st.text(
    st.characters(exclude_categories=["Nd", "Cs"], exclude_characters=":"),
    max_size=3,
)
#: In-range bounds are drawn twice as often, so that more specs run.
IN_RANGE = st.floats(0.0, 0.1).map(repr)
AXIS_BOUNDS = st.one_of(
    IN_RANGE,
    IN_RANGE,
    st.floats().map(repr),
    st.sampled_from(["", "x", "1e400", "-0", "nan", "-inf", "1_0"]),
    SAFE_TEXT,
)
#: At most 50 steps or more than the cap, never in between, so no run
#: allocates a large grid (the cap is checked before anything is allocated).
AXIS_STEPS = st.one_of(
    st.integers(1, 50).map(str),
    st.integers(-2, 50).map(str),
    st.integers(MAX_CELLS + 1, 10**30).map(str),
    st.sampled_from(["", "1e3", "2.5", "nan", "x"]),
    SAFE_TEXT,
)


#: A listed value: in range twice as often, or empty, text or non-finite.
LIST_CELLS = st.one_of(
    IN_RANGE,
    IN_RANGE,
    st.floats().map(repr),
    st.sampled_from(["", "x", "nan", "inf", "1e999"]),
    SAFE_TEXT.filter(lambda text: "," not in text),
)


def axis_specs(names):
    ranges = st.tuples(
        st.sampled_from(names),
        AXIS_BOUNDS,
        AXIS_BOUNDS,
        AXIS_STEPS,
        st.sampled_from(["", "", "", ":log", ":lin", ":log:x"]),
    ).map(lambda parts: ":".join(parts[:4]) + parts[4])
    lists = st.tuples(
        st.sampled_from(names),
        st.lists(LIST_CELLS, min_size=2, max_size=5),
        st.sampled_from(["", "", ","]),  # a trailing comma: an empty last value
    ).map(lambda parts: f"{parts[0]}:{','.join(parts[1])}{parts[2]}")
    return st.one_of(ranges, lists)


AXES = axis_specs([*AXIS_NAMES, "bogus", ""])


@settings(max_examples=150, deadline=None)
@given(
    x=AXES,
    y=st.one_of(st.none(), AXES),
    reference=st.sampled_from([VALID["reference"], None]),
    target=st.sampled_from(["mass", "phase"]),
)
@example(x="phi_s:0:6.3:50", y="mag_i:0:1e-4:50", reference=None, target="mass")
@example(x=f"phi_s:0:1:{MAX_CELLS + 1}", y=None, reference=None, target="mass")
@example(x="phi_i:0:1.7976931348623157e+308:19", y=None,
         reference=VALID["reference"], target="mass")
@example(x="phi_s:-1e308:1e308:3", y=None, reference=None, target="mass")
@example(x="mag_i:0,1e-5,2e-5", y="phi_s:1,2,", reference=None, target="mass")
def test_scan_hostile_axes(x, y, reference, target):
    # JSON output: the ratio of an undefined (vacuum) cell is null there
    options = ["--target", target, "--format", "json", f"--x-axis={x}"]
    if y is not None:
        options.append(f"--y-axis={y}")
    run_cli("scan", {**VALID, "reference": reference}, options)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(max_examples=100, deadline=None)
@given(sweep=axis_specs(["phi_i", "phi_s", "bogus"]))
@example(sweep="phi_i:0:6.3:50")
@example(sweep="phi_s:1e-4:1e-2:50:log")
@example(sweep="phi_i:0,1.5,3,1e999")
# numpy overflows building these axes: exit 2 and exit 0, with no warning
@example(sweep="phi_i:0.0625:1.7976931348622105e+308:2:log")
@example(sweep="phi_i:0.0:1.7976931348623157e+308:19")
def test_snr_hostile_sweep(fmt, sweep):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["snr", f"--sweep={sweep}", "--format", fmt]
        run_checked(tmp, argv)
