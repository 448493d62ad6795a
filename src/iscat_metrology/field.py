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
from dataclasses import asdict, dataclass, fields
from enum import Enum
from typing import Optional

import numpy as np

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
    return r + 0.0  # -0.0 becomes 0.0


def _require_finite(fields: dict) -> None:
    """Raise ValueError naming the first non-finite entry of ``fields``."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def magnitude(z):
    """|z| of a complex array; np.abs on complex may round differently."""
    return np.hypot(z.real, z.imag)


def phase(z):
    """arg(z) in [0, 2*pi) of a complex array, rounding like wrap_angle:
    the one rule for every reported angle (psi, chi, phi_i)."""
    theta = np.arctan2(z.imag, z.real)
    theta = np.where(theta < 0.0, theta + TAU, theta)
    return np.where(theta >= TAU, 0.0, theta) + 0.0  # -0.0 becomes 0.0


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
            raise ValueError(f"particle.mass_kda must be >= 0, got {self.mass_kda}")
        if not (self.scale_per_kda > 0.0):
            raise ValueError(
                f"particle.scale_per_kda must be > 0, got {self.scale_per_kda}"
            )
        object.__setattr__(self, "mass_kda", self.mass_kda + 0.0)  # -0.0 becomes 0.0
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
            raise ValueError(f"reference.mag must be >= 0, got {self.mag}")
        object.__setattr__(self, "mag", self.mag + 0.0)  # -0.0 becomes 0.0
        object.__setattr__(self, "phi_i", wrap_angle(self.phi_i))


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
    return cmath.rect(p.mass_kda * p.scale_per_kda, p.phi_s)


def reference_amplitude(cfg: FieldConfig) -> complex:
    """Reference-arm label; 0 in iSCAT mode."""
    arm = cfg.arm
    return cmath.rect(arm.mag, arm.phi_i)


def first_arm_amplitude(cfg: FieldConfig) -> complex:
    """Label of the sample arm, alpha_r + alpha_s."""
    return cfg.alpha_r + scattered_amplitude(cfg.particle)


def first_arm_magnitude(cfg: FieldConfig) -> float:
    """|alpha_r + alpha_s|; inf, not abs()'s OverflowError, past a double."""
    with np.errstate(over="ignore"):
        return float(magnitude(first_arm_amplitude(cfg)))


def check_budget(first_mag, reference_mag, alpha0_mag: float) -> None:
    """Photon-budget rule; raise one ValueError naming each violated arm bound.

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
    if violations:
        raise ValueError("; ".join(violations))


def detector_amplitude(cfg: FieldConfig) -> complex:
    """Total label at the detector, alpha_r + alpha_s + alpha_i.

    Raises ValueError naming the violated bound if the configuration
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
    d = cmath.rect(p.scale_per_kda, p.phi_s)
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


def _number(value, field: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the double range
            pass
    raise ValueError(f"{field} must be a number, got {value!r}")


def _reject_unknown_keys(obj: dict, field: str, keys) -> None:
    """Raise ValueError listing the keys of ``obj`` that ``keys`` does not name."""
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise ValueError(f"{field} has unknown keys {unknown}")


def _numbers(obj, field: str, keys) -> list[float]:
    """The numbers under ``keys`` of the JSON object ``obj`` named ``field``,
    which may hold no other key."""
    if not isinstance(obj, dict):
        raise ValueError(
            f"{field} must be an object with keys {', '.join(keys)}, got {obj!r}"
        )
    _reject_unknown_keys(obj, field, keys)
    return [_number(obj.get(key), f"{field}.{key}") for key in keys]


def _names(cls) -> list[str]:
    """Field names of a config dataclass: the keys of its JSON object."""
    return [f.name for f in fields(cls)]


def config_to_dict(cfg: FieldConfig) -> dict:
    """The JSON schema of ``cfg``; ``particle`` and ``reference`` hold the
    fields that :func:`config_from_dict` reads, in the same order."""
    ref = cfg.reference
    return {
        "alpha0_mag": cfg.alpha0_mag,
        "alpha_r": {"re": cfg.alpha_r.real, "im": cfg.alpha_r.imag},
        "particle": asdict(cfg.particle),
        "reference": asdict(ref) if ref is not None else None,
    }


def config_from_dict(d: dict) -> FieldConfig:
    """FieldConfig from the JSON schema; ValueError names a malformed field
    or lists the keys the schema does not name."""
    if not isinstance(d, dict):
        raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
    _reject_unknown_keys(d, "config", _names(FieldConfig))
    particle = ParticleModel(
        *_numbers(d.get("particle"), "particle", _names(ParticleModel))
    )
    reference = None
    if d.get("reference") is not None:
        reference = ReferenceArm(
            *_numbers(d["reference"], "reference", _names(ReferenceArm))
        )
    return FieldConfig(
        alpha_r=complex(*_numbers(d.get("alpha_r"), "alpha_r", ("re", "im"))),
        particle=particle,
        reference=reference,
        alpha0_mag=_number(d.get("alpha0_mag", 1.0), "alpha0_mag"),
    )


def load_config(path) -> FieldConfig:
    def unique_keys(pairs):  # json.load would keep the last of equal keys
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"config {path} repeats the key {key!r}")
            obj[key] = value
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=unique_keys)
        except RecursionError:  # e.g. 100,000 nested '['
            raise ValueError(f"config {path} nests too deeply to read") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"config {path} is not UTF-8: {exc}") from None
        except json.JSONDecodeError as exc:  # a UTF-8 BOM included
            raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_dict(data)
