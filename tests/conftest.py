import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from iscat_metrology import tuner
from iscat_metrology.field import (
    EstimationTarget,
    FieldConfig,
    ParticleModel,
    ReferenceArm,
    config_to_dict,
    detector_amplitude,
    first_arm_amplitude,
    scattered_amplitude,
)
from iscat_metrology.textio import dump_json

PI = math.pi

# A tier-1 run draws the same hypothesis examples every time and replays
# nothing from earlier runs, so its result is a function of the tree.
# HYPOTHESIS_PROFILE=explore draws new examples, more of them where a test
# does not set its own count, and keeps failures in .hypothesis/.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("explore", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))

#: Doubles every CSV writer must read back bit for bit: a signed zero, the
#: smallest subnormal and the largest finite double.
EXTREME_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308)


def read_csv_columns(path) -> dict:
    """Columns of a written CSV (comment lines skipped), as cell strings."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    names, *rows = (line.split(",") for line in lines)
    return {name: [row[k] for row in rows] for k, name in enumerate(names)}


def oracle_csv(names, rows, comments=()) -> bytes:
    """A CSV file as a cell-by-cell writer makes it: each row is
    ``",".join(map(fmt, row))``, so ``fmt`` alone defines every cell."""
    from iscat_metrology.textio import fmt

    lines = [f"# {c}" for c in comments] + [",".join(names)]
    lines += [",".join(map(fmt, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _fresh(args, **kwargs) -> subprocess.CompletedProcess:
    """``python ARGS`` in a new interpreter on this checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]
    )}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, **kwargs
    )


def run_fresh(*args) -> str:
    """Standard output of ``python ARGS`` in a new interpreter on this
    checkout's ``src``; a non-zero exit fails the test."""
    return _fresh(args, check=True).stdout


def run_fresh_cli(argv, cwd) -> tuple[int, str]:
    """Exit code and standard error of the CLI run on ``argv`` in a new
    process working in ``cwd``."""
    result = _fresh(["-m", "iscat_metrology.cli", *argv], cwd=cwd)
    return result.returncode, result.stderr


def same_bits(cells, values) -> bool:
    """Cells parse back to exactly ``values``, sign of zero included."""
    return [float(c).hex() for c in cells] == [float(v).hex() for v in values]


def fig2_config() -> FieldConfig:
    """One-arm baseline of the ratio scans: |alpha_s| = 2e-5, phi_s = 5*pi/6,
    alpha_r = 2.3e-5 (all relative to |alpha_0| = 1)."""
    return FieldConfig(
        alpha_r=2.3e-5,
        particle=ParticleModel(mass_kda=1.0, scale_per_kda=2e-5, phi_s=5 * PI / 6),
    )


def worked_example_config() -> FieldConfig:
    """66 kDa particle at s = 0.22/kDa in a dark-field (saturated) setup."""
    return FieldConfig(
        alpha_r=0j,
        particle=ParticleModel(mass_kda=66.0, scale_per_kda=0.22, phi_s=1.0),
        alpha0_mag=30.0,
    )


def desk_scale_config() -> FieldConfig:
    """Fig-2 geometry scaled up 1e5 so counting means are O(10)."""
    return FieldConfig(
        alpha_r=2.3,
        particle=ParticleModel(mass_kda=66.0, scale_per_kda=2.0 / 66.0, phi_s=5 * PI / 6),
        alpha0_mag=10.0,
    )


def saturated_mc_config() -> FieldConfig:
    """Desk-scale two-arm config tuned to a saturating reference phase
    (the branch with the larger detector amplitude)."""
    base = desk_scale_config()
    sol = tuner.saturating_reference_set(base, EstimationTarget.MASS)
    candidates = [
        FieldConfig(
            alpha_r=base.alpha_r,
            particle=base.particle,
            reference=ReferenceArm(4.5, phi),
            alpha0_mag=base.alpha0_mag,
        )
        for phi in sol.solutions_at(4.5)
    ]
    return max(candidates, key=lambda c: abs(detector_amplitude(c)))


def quarter_ratio_mc_config() -> FieldConfig:
    """Same particle and detector photon number, but the reference arm parks
    the detector phase at psi - pi/3, so cos^2 = 1/4 exactly."""
    base = desk_scale_config()
    sol = tuner.saturating_reference_set(base, EstimationTarget.MASS)
    t_mag = abs(detector_amplitude(saturated_mc_config()))
    alpha_i = t_mag * cmath.exp(1j * (sol.psi - PI / 3)) - first_arm_amplitude(base)
    return FieldConfig(
        alpha_r=base.alpha_r,
        particle=base.particle,
        reference=ReferenceArm(abs(alpha_i), cmath.phase(alpha_i)),
        alpha0_mag=base.alpha0_mag,
    )


def vacuum_config() -> FieldConfig:
    """Reference arm cancelling the sample arm exactly."""
    base = fig2_config()
    alpha_i = -first_arm_amplitude(base)
    return FieldConfig(
        alpha_r=base.alpha_r,
        particle=base.particle,
        reference=ReferenceArm(abs(alpha_i), cmath.phase(alpha_i)),
        alpha0_mag=base.alpha0_mag,
    )


@pytest.fixture
def fig2_cfg():
    return fig2_config()


@pytest.fixture
def worked_cfg():
    return worked_example_config()


@pytest.fixture(scope="session")
def mc_saturated_cfg():
    return saturated_mc_config()


@pytest.fixture(scope="session")
def mc_quarter_cfg():
    return quarter_ratio_mc_config()


@pytest.fixture
def config_file(tmp_path):
    def write(cfg, name="config.json"):
        path = tmp_path / name
        dump_json(path, config_to_dict(cfg))
        return path

    return write


def alpha_s_mag(cfg: FieldConfig) -> float:
    return abs(scattered_amplitude(cfg.particle))
