"""Reference-arm tuning: which (|alpha_i|, phi_i) settings make photon
counting quantum-optimal, and ratio scans over setup parameters.

Geometry.  Photon counting saturates the coherent-state QFI when the
detector label alpha_d = alpha_first + alpha_i lies on the line through the
origin with direction exp(i*psi), psi = arg(dalpha) (both directions of the
line work, since only cos^2 of the phase mismatch matters).  The candidate
references therefore form the line

    alpha_i(t) = t*exp(i*psi) - alpha_first,   t real,

and for a given magnitude |alpha_i| = mag the solutions are the
intersections of that line with the circle of radius mag around
-alpha_first: zero, one (tangency) or two phases phi_i.  The smallest
reachable magnitude is the point-to-line distance

    min_mag_i = |Im(alpha_first * exp(-i*psi))|,

which never exceeds |alpha_first| <= alpha0_mag/2, so a saturating setting
always exists within the photon budget.  The single pathological point t=0
(alpha_d = 0, vacuum) is excluded: counting statistics carry no phase there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import fisher
from .errors import EnergyBudgetError
from .field import (
    VACUUM_TOL,
    EstimationTarget,
    FieldConfig,
    ReferenceArm,
    budget_violations,
    config_to_dict,
    first_arm_amplitude,
    from_polar,
    scattered_amplitude,
    target_derivative,
    wrap_angle,
)

#: Classification band for tangency and for the vacuum exclusion, in units
#: of alpha0_mag.
GEOMETRY_TOL = 1e-12


@dataclass(frozen=True)
class SaturationSolution:
    """Solution set of saturating reference settings for one configuration."""

    min_mag_i: float
    psi: float
    feasible: bool
    alpha_first: complex
    alpha0_mag: float

    def solutions_at(self, mag_i: float) -> tuple[float, ...]:
        """Saturating phases phi_i at the given reference magnitude.

        Returns zero, one (tangency) or two phases, sorted ascending in
        [0, 2*pi).  The vacuum point is excluded.
        """
        if not (0.0 <= mag_i <= 0.5 * self.alpha0_mag):
            raise ValueError(
                f"reference magnitude {mag_i!r} outside "
                f"[0, alpha0_mag/2 = {0.5 * self.alpha0_mag!r}]"
            )
        tol = GEOMETRY_TOL * self.alpha0_mag
        rotated = self.alpha_first * cmath.exp(-1j * self.psi)
        a, b = rotated.real, rotated.imag
        if mag_i < self.min_mag_i - tol:
            return ()
        if abs(mag_i - self.min_mag_i) <= tol:
            ts = [a]
        else:
            r = math.sqrt(max(mag_i * mag_i - b * b, 0.0))
            ts = [a - r, a + r]
        phases = []
        for t in ts:
            if abs(t) <= tol:
                continue  # vacuum point: counting carries no phase there
            alpha_i = t * cmath.exp(1j * self.psi) - self.alpha_first
            phases.append(wrap_angle(cmath.phase(alpha_i)))
        return tuple(sorted(phases))


def saturating_reference_set(
    cfg: FieldConfig, target: EstimationTarget
) -> SaturationSolution:
    """Closed-form solution set for saturating the counting measurement."""
    dalpha = target_derivative(cfg, target)
    if dalpha == 0:
        raise ValueError(
            "target derivative vanishes; no alignment direction exists"
        )
    psi = wrap_angle(cmath.phase(dalpha))
    alpha_first = first_arm_amplitude(cfg)
    min_mag = abs((alpha_first * cmath.exp(-1j * psi)).imag)
    return SaturationSolution(
        min_mag_i=min_mag,
        psi=psi,
        feasible=min_mag <= 0.5 * cfg.alpha0_mag,
        alpha_first=alpha_first,
        alpha0_mag=cfg.alpha0_mag,
    )


def phase_solutions(
    cfg: FieldConfig, target: EstimationTarget, mag_i: float
) -> tuple[float, ...]:
    """Saturating phi_i values at a fixed reference magnitude."""
    return saturating_reference_set(cfg, target).solutions_at(mag_i)


# --- Parameter scans ----------------------------------------------------------

AXIS_NAMES = ("alpha_r_mag", "phi_s", "mag_i", "phi_i")


@dataclass(frozen=True)
class AxisSpec:
    """One scan axis: parameter name plus the sampled values."""

    name: str
    values: np.ndarray
    scale: str = "linear"

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(
                f"unknown axis {self.name!r}; expected one of {AXIS_NAMES}"
            )
        values = np.asarray(self.values, dtype=float)
        if values.size == 0 or not np.all(np.isfinite(values)):
            raise ValueError(f"axis {self.name!r} needs finite values: {values}")
        object.__setattr__(self, "values", values)

    @staticmethod
    def _check_range(name: str, lo: float, hi: float, steps: int) -> None:
        if steps < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(
                f"axis {name!r} needs steps >= 1 and finite bounds, "
                f"got [{lo}, {hi}] in {steps} steps"
            )

    @classmethod
    def linspace(cls, name: str, lo: float, hi: float, steps: int) -> "AxisSpec":
        cls._check_range(name, lo, hi, steps)
        return cls(name, np.linspace(lo, hi, steps), "linear")

    @classmethod
    def logspace(cls, name: str, lo: float, hi: float, steps: int) -> "AxisSpec":
        cls._check_range(name, lo, hi, steps)
        if not (0.0 < lo < hi):
            raise ValueError(f"log axis needs 0 < lo < hi, got [{lo}, {hi}]")
        return cls(
            name, np.logspace(math.log10(lo), math.log10(hi), steps), "log"
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scale": self.scale,
            "values": [float(v) for v in self.values],
        }


def apply_axis(cfg: FieldConfig, name: str, value: float) -> FieldConfig:
    """Baseline config with one scan parameter replaced."""
    if name == "alpha_r_mag":
        phase = cmath.phase(cfg.alpha_r) if cfg.alpha_r != 0 else 0.0
        return replace(cfg, alpha_r=cmath.rect(value, phase))
    if name == "phi_s":
        return replace(
            cfg, particle=replace(cfg.particle, phi_s=wrap_angle(value))
        )
    if name == "mag_i":
        phi_i = cfg.reference.phi_i if cfg.reference is not None else 0.0
        return replace(cfg, reference=ReferenceArm(value, phi_i))
    if name == "phi_i":
        mag = cfg.reference.mag if cfg.reference is not None else 0.0
        return replace(cfg, reference=ReferenceArm(mag, wrap_angle(value)))
    raise ValueError(f"unknown axis {name!r}; expected one of {AXIS_NAMES}")


@dataclass(frozen=True)
class ScanGrid:
    """Saturation-ratio matrix over one or two scan axes.

    ``values[iy, ix]`` is cos^2(psi-chi) for the cell, NaN where the ratio
    is undefined (vacuum detector field or vanishing derivative).
    """

    x: AxisSpec
    y: Optional[AxisSpec]
    base: FieldConfig
    target: EstimationTarget
    values: np.ndarray

    def header_dict(self) -> dict:
        return {
            "target": self.target.value,
            "baseline": config_to_dict(self.base),
            "x": self.x.to_dict(),
            "y": self.y.to_dict() if self.y is not None else None,
            "shape": list(self.values.shape),
        }

    def rows(self):
        """Long-form rows (x, y, ratio, defined_flag); y is '' for 1-D scans."""
        from .textio import fmt

        for iy in range(self.values.shape[0]):
            y_cell = fmt(float(self.y.values[iy])) if self.y is not None else ""
            for ix in range(self.values.shape[1]):
                v = self.values[iy, ix]
                defined = not math.isnan(v)
                yield (
                    fmt(float(self.x.values[ix])),
                    y_cell,
                    fmt(v) if defined else "nan",
                    "1" if defined else "0",
                )

    def to_csv(self, path) -> None:
        from .textio import write_csv

        write_csv(path, ["x", "y", "ratio", "defined_flag"], self.rows())


def scan_ratio_grid(
    base: FieldConfig,
    target: EstimationTarget,
    x: AxisSpec,
    y: Optional[AxisSpec] = None,
) -> ScanGrid:
    """Evaluate the saturation ratio over a 1-D or 2-D parameter grid.

    Each axis value goes through apply_axis once, so it is validated and
    wrapped as in a single configuration, and each axis sets only its own
    parameter (x wins if both axes set the same one).  The detector label
    and target derivative are broadcast over the grid, the photon budget is
    checked once over all cells (EnergyBudgetError names the bound), and
    the ratio comes from :func:`fisher.information`.
    """
    # without a reference arm, a zero-magnitude arm at phase 0 adds nothing
    cfg0 = base if base.reference else replace(base, reference=ReferenceArm(0, 0))
    axes = {}
    for axis, shape in ((y, (-1, 1)), (x, (1, -1))):
        if axis is not None:
            cfgs = [apply_axis(cfg0, axis.name, float(v)) for v in axis.values]
            axes[axis.name] = cfgs, shape

    def column(name, get):
        """get(cfg) per value of the axis that sets ``name``, else of cfg0."""
        if name not in axes:
            return get(cfg0)
        cfgs, shape = axes[name]
        return np.array([get(c) for c in cfgs]).reshape(shape)

    first = np.broadcast_to(
        column("alpha_r_mag", lambda c: c.alpha_r)
        + column("phi_s", lambda c: scattered_amplitude(c.particle)),
        (len(y.values) if y is not None else 1, len(x.values)),
    )
    mag_i = column("mag_i", lambda c: c.reference.mag)
    first_mag = np.hypot(first.real, first.imag)  # rounds like abs(complex)
    violations = budget_violations(first_mag, mag_i, base.alpha0_mag)
    if violations:
        raise EnergyBudgetError("; ".join(violations))
    phasor_i = column("phi_i", lambda c: from_polar(1.0, c.reference.phi_i))
    dalpha = column("phi_s", lambda c: target_derivative(c, target))
    ratio = fisher.information(
        first + mag_i * phasor_i, dalpha, VACUUM_TOL * base.alpha0_mag
    )[4]
    return ScanGrid(x, y, base, target, ratio)
