"""Property tests: hostile JSON configs through the command-line entry point.

Each numeric field of a config keeps its valid value or is replaced by any
double (NaN, the infinities and +-1e308 included) or by a value of the wrong
JSON type.  Whatever the input, ``main`` returns 0, 2 or 3 and raises
nothing; a success writes only finite numbers, and a failure writes no file.
A field that is not a JSON number (null, a bool, a string or a list) always
exits 2.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from iscat_metrology.cli import main

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


CONFIGS = st.fixed_dictionaries(
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


def run_cli(subcommand, config, options):
    """Exit code of one run, with the data files it wrote checked."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(config))  # NaN / Infinity tokens allowed
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()
        suffix = ".csv" if "csv" in options else ".json"
        out = out_dir / f"result{suffix}"
        rc = main(
            [subcommand, "--config", str(cfg_path), "--out", str(out), *options]
        )
        assert rc in (0, 2, 3)
        if any(_not_a_number(value) for value in _numbers(config)):
            assert rc == 2
        written = list(out_dir.iterdir())
        if rc == 0:
            assert out in written
            for path in written:
                assert_finite_output(path)
        else:
            assert written == []
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
