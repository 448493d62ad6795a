"""Coherent-amplitude model of the interferometric scattering setups.

Two setups are represented by one config type:

* ``iscat``  -- scattered light interferes with the field reflected from the
  sample interface (no reference arm).
* ``miscat`` -- a Michelson reference arm with tunable magnitude ``|alpha_i|``
  and phase ``phi_i`` is added before detection.

All amplitudes are dimensionless coherent-state labels expressed relative to
the input amplitude ``|alpha_0|`` (default 1), so ``|alpha|**2`` is a photon
number.  The detector label is the sum ``alpha_r + alpha_s + alpha_i``.
Three rules of the model are stated here once:

* photon budget (:func:`check_budget`): with no photon source besides the
  input, |alpha_r + alpha_s| <= alpha0_mag/2 and |alpha_i| <= alpha0_mag/2;
* vacuum: counting carries no phase where |alpha_d| <= VACUUM_TOL*alpha0_mag;
* absent arm (:attr:`FieldConfig.arm`): iSCAT is MiSCAT without the
  reference arm, whose ``arm`` has magnitude 0 and phase 0.

The scattered amplitude is linear in the particle mass,
``alpha_s = m * s * exp(i*phi_s)`` with ``m`` in kDa and ``s`` in 1/kDa, and
``phi_s`` measured relative to the reflected field (whose phase is 0 by
convention).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import EnergyBudgetError
from .textio import dump_json

TAU = 2.0 * math.pi

#: Absolute slack for the arm bounds, in units of alpha0_mag.
BUDGET_TOL = 1e-12

#: Detector amplitudes below this (times alpha0_mag) count as vacuum.
VACUUM_TOL = 1e-12


def wrap_angle(theta: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    r = math.fmod(theta, TAU)
    if r < 0.0:
        r += TAU
    if r >= TAU:  # fmod of a tiny negative can round up to TAU exactly
        r = 0.0
    return r


def _require_finite(fields: dict) -> None:
    """Raise ValueError naming the first non-finite entry of ``fields``."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def from_polar(mag: float, phase: float) -> complex:
    """Complex amplitude from magnitude and argument."""
    return cmath.rect(mag, phase)


def magnitude(z):
    """|z| of a complex array; np.abs on complex may round differently."""
    return np.hypot(z.real, z.imag)


class EstimationTarget(Enum):
    """Which particle parameter is being estimated."""

    MASS = "mass"
    SCATTER_PHASE = "phase"


@dataclass(frozen=True)
class ParticleModel:
    """Particle with mass ``mass_kda`` (kDa), scattering strength
    ``scale_per_kda`` (1/kDa) and scattering phase ``phi_s`` (rad)."""

    mass_kda: float
    scale_per_kda: float
    phi_s: float

    def __post_init__(self):
        _require_finite(
            {
                "particle.mass_kda": self.mass_kda,
                "particle.scale_per_kda": self.scale_per_kda,
                "particle.phi_s": self.phi_s,
            }
        )
        if not (self.mass_kda >= 0.0):
            raise ValueError(f"mass_kda must be >= 0, got {self.mass_kda}")
        if not (self.scale_per_kda > 0.0):
            raise ValueError(
                f"scale_per_kda must be > 0, got {self.scale_per_kda}"
            )
        object.__setattr__(self, "phi_s", wrap_angle(self.phi_s))


@dataclass(frozen=True)
class ReferenceArm:
    """Reference-arm setting: magnitude ``mag`` and phase ``phi_i`` (rad)."""

    mag: float
    phi_i: float

    def __post_init__(self):
        _require_finite(
            {"reference.mag": self.mag, "reference.phi_i": self.phi_i}
        )
        if not (self.mag >= 0.0):
            raise ValueError(f"reference magnitude must be >= 0, got {self.mag}")
        object.__setattr__(self, "phi_i", wrap_angle(self.phi_i))

    def amplitude(self) -> complex:
        return from_polar(self.mag, self.phi_i)


@dataclass(frozen=True)
class FieldConfig:
    """Full amplitude set of one setup.

    ``reference=None`` encodes the plain iSCAT setup (no reference arm, not a
    zero-magnitude arm), so reports can name the setup explicitly.
    """

    alpha_r: complex
    particle: ParticleModel
    reference: Optional[ReferenceArm] = None
    alpha0_mag: float = 1.0

    def __post_init__(self):
        _require_finite(
            {
                "alpha_r.re": self.alpha_r.real,
                "alpha_r.im": self.alpha_r.imag,
                "alpha0_mag": self.alpha0_mag,
            }
        )
        if not (self.alpha0_mag > 0.0):
            raise ValueError(f"alpha0_mag must be > 0, got {self.alpha0_mag}")

    @property
    def setup(self) -> str:
        return "miscat" if self.reference is not None else "iscat"

    @property
    def arm(self) -> ReferenceArm:
        """The reference arm; without one, an arm of magnitude 0 at phase 0."""
        return self.reference or ReferenceArm(0.0, 0.0)


def scattered_amplitude(p: ParticleModel) -> complex:
    """Scattered coherent-state label m*s*exp(i*phi_s)."""
    return from_polar(p.mass_kda * p.scale_per_kda, p.phi_s)


def reference_amplitude(cfg: FieldConfig) -> complex:
    """Reference-arm label; 0 in iSCAT mode."""
    return cfg.arm.amplitude()


def first_arm_amplitude(cfg: FieldConfig) -> complex:
    """Label of the sample arm, alpha_r + alpha_s."""
    return cfg.alpha_r + scattered_amplitude(cfg.particle)


def first_arm_magnitude(cfg: FieldConfig) -> float:
    """|alpha_r + alpha_s|; inf, not abs()'s OverflowError, past a double."""
    with np.errstate(over="ignore"):
        return float(magnitude(first_arm_amplitude(cfg)))


def budget_violations(first_mag, reference_mag, alpha0_mag: float) -> list[str]:
    """Photon-budget rule; return one message per violated arm bound.

    ``first_mag`` is |alpha_r + alpha_s| and ``reference_mag`` is |alpha_i|
    (0 without a reference arm), each a scalar or an array of scan cells;
    an array is judged by its largest entry.  The bounds carry an absolute
    slack of BUDGET_TOL * alpha0_mag so round-off at the boundary does not
    trip them.
    """
    bound = 0.5 * alpha0_mag
    violations = []
    for arm, mags in (
        ("sample arm |alpha_r + alpha_s|", first_mag),
        ("reference arm |alpha_i|", reference_mag),
    ):
        worst = float(np.max(mags))
        if worst > bound + BUDGET_TOL * alpha0_mag:
            violations.append(
                f"{arm} = {worst!r} exceeds the bound alpha0_mag/2 = {bound!r}"
            )
    return violations


def check_budget(first_mag, reference_mag, alpha0_mag: float) -> None:
    """Raise the :func:`budget_violations`, if any, as one EnergyBudgetError."""
    violations = budget_violations(first_mag, reference_mag, alpha0_mag)
    if violations:
        raise EnergyBudgetError("; ".join(violations))


def validate_energy(cfg: FieldConfig) -> list[str]:
    """Budget violations of one configuration; empty when it is valid."""
    return budget_violations(first_arm_magnitude(cfg), cfg.arm.mag, cfg.alpha0_mag)


def detector_amplitude(cfg: FieldConfig) -> complex:
    """Total label at the detector, alpha_r + alpha_s + alpha_i.

    Raises EnergyBudgetError naming the violated bound if the configuration
    breaks the photon budget.
    """
    check_budget(first_arm_magnitude(cfg), cfg.arm.mag, cfg.alpha0_mag)
    return first_arm_amplitude(cfg) + reference_amplitude(cfg)


def target_derivative(cfg: FieldConfig, target: EstimationTarget) -> complex:
    """Derivative of the scattered label with respect to the target.

    Mass: s*exp(i*phi_s) (independent of m).  Scattering phase:
    i*m*s*exp(i*phi_s), i.e. the mass derivative rotated by pi/2 and scaled
    by m.
    """
    p = cfg.particle
    d = from_polar(p.scale_per_kda, p.phi_s)
    if target is EstimationTarget.MASS:
        return d
    return 1j * p.mass_kda * d


def with_target_value(
    cfg: FieldConfig, target: EstimationTarget, value: float
) -> FieldConfig:
    """Copy of ``cfg`` with the targeted parameter set to ``value``."""
    p = cfg.particle
    if target is EstimationTarget.MASS:
        particle = ParticleModel(value, p.scale_per_kda, p.phi_s)
    else:
        particle = ParticleModel(p.mass_kda, p.scale_per_kda, value)
    return FieldConfig(cfg.alpha_r, particle, cfg.reference, cfg.alpha0_mag)


def target_value(cfg: FieldConfig, target: EstimationTarget) -> float:
    """Current value of the targeted parameter."""
    if target is EstimationTarget.MASS:
        return cfg.particle.mass_kda
    return cfg.particle.phi_s


# --- JSON config schema -----------------------------------------------------
#
# {"alpha0_mag": float,
#  "alpha_r": {"re": float, "im": float},
#  "particle": {"mass_kda": float, "scale_per_kda": float, "phi_s": float},
#  "reference": {"mag": float, "phi_i": float} | null}


def complex_to_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _number(value, field: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the double range
            pass
    raise ValueError(f"{field} must be a number, got {value!r}")


def _numbers(obj, field: str, keys) -> list[float]:
    """The numbers under ``keys`` of the JSON object ``obj`` named ``field``."""
    if not isinstance(obj, dict):
        raise ValueError(
            f"{field} must be an object with keys {', '.join(keys)}, got {obj!r}"
        )
    return [_number(obj.get(key), f"{field}.{key}") for key in keys]


def config_to_dict(cfg: FieldConfig) -> dict:
    ref = None
    if cfg.reference is not None:
        ref = {"mag": cfg.reference.mag, "phi_i": cfg.reference.phi_i}
    return {
        "alpha0_mag": cfg.alpha0_mag,
        "alpha_r": complex_to_json(cfg.alpha_r),
        "particle": {
            "mass_kda": cfg.particle.mass_kda,
            "scale_per_kda": cfg.particle.scale_per_kda,
            "phi_s": cfg.particle.phi_s,
        },
        "reference": ref,
    }


def config_from_dict(d: dict) -> FieldConfig:
    """FieldConfig from the JSON schema; ValueError names a malformed field."""
    if not isinstance(d, dict):
        raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
    keys = ("mass_kda", "scale_per_kda", "phi_s")
    particle = ParticleModel(*_numbers(d.get("particle"), "particle", keys))
    reference = None
    if d.get("reference") is not None:
        reference = ReferenceArm(
            *_numbers(d["reference"], "reference", ("mag", "phi_i"))
        )
    return FieldConfig(
        alpha_r=complex(*_numbers(d.get("alpha_r"), "alpha_r", ("re", "im"))),
        particle=particle,
        reference=reference,
        alpha0_mag=_number(d.get("alpha0_mag", 1.0), "alpha0_mag"),
    )


def load_config(path) -> FieldConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # e.g. 100,000 nested '['
            raise ValueError(f"config {path} nests too deeply to read") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"config {path} is not UTF-8: {exc}") from None
        except json.JSONDecodeError as exc:  # a UTF-8 BOM included
            raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_dict(data)


def save_config(cfg: FieldConfig, path) -> None:
    dump_json(path, config_to_dict(cfg))
