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
always exists within the photon budget.  The vacuum point t=0 (alpha_d = 0,
within ``field.VACUUM_TOL``) is excluded: counting carries no phase there.
``GEOMETRY_TOL`` classifies tangency only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import fisher
from .field import (
    VACUUM_TOL,
    EstimationTarget,
    FieldConfig,
    ReferenceArm,
    budget_violations,
    check_budget,
    config_to_dict,
    first_arm_amplitude,
    first_arm_magnitude,
    from_polar,
    magnitude,
    scattered_amplitude,
    target_derivative,
    wrap_angle,
)
from .textio import fmt, write_csv

#: Classification band for tangency, in units of alpha0_mag.
GEOMETRY_TOL = 1e-12


@dataclass(frozen=True)
class SaturationSolution:
    """Solution set of saturating reference settings for one configuration."""

    min_mag_i: float
    psi: float
    feasible: bool
    alpha_first: complex
    alpha0_mag: float

    def line_points(self, mag_i: float) -> list[tuple[float, float]]:
        """(phi_i, t) of the line points t*exp(i*psi) nearest the circle of
        radius ``mag_i``, sorted by phi_i in [0, 2*pi): the intersections,
        or the foot of the perpendicular if none.  Vacuum included."""
        if not (mag_i >= 0.0):
            raise ValueError(f"reference magnitude must be >= 0, got {mag_i!r}")
        check_budget(0.0, mag_i, self.alpha0_mag)
        tol = GEOMETRY_TOL * self.alpha0_mag
        rotated = self.alpha_first * cmath.exp(-1j * self.psi)
        a, b = rotated.real, rotated.imag
        if mag_i <= self.min_mag_i + tol:
            ts = [a]
        else:
            r = math.sqrt(max(mag_i * mag_i - b * b, 0.0))
            ts = [a - r, a + r]
        arms = [(t * cmath.exp(1j * self.psi) - self.alpha_first, t) for t in ts]
        return sorted((wrap_angle(math.atan2(z.imag, z.real)), t) for z, t in arms)

    def solutions_at(self, mag_i: float) -> tuple[float, ...]:
        """Saturating phases phi_i at the given reference magnitude.

        Returns zero, one (tangency) or two phases, sorted ascending in
        [0, 2*pi).  The vacuum point, where counting carries no phase, is
        excluded.
        """
        points, vacuum = self.line_points(mag_i), VACUUM_TOL * self.alpha0_mag
        reached = mag_i >= self.min_mag_i - GEOMETRY_TOL * self.alpha0_mag
        return tuple(phi for phi, t in points if reached and abs(t) > vacuum)


def saturating_reference_set(
    cfg: FieldConfig, target: EstimationTarget
) -> SaturationSolution:
    """Closed-form solution set for saturating the counting measurement.

    Raises EnergyBudgetError naming the arm when ``cfg`` breaks the photon
    budget, the premise of the feasibility guarantee above.
    """
    alpha_first = first_arm_amplitude(cfg)
    check_budget(first_arm_magnitude(cfg), cfg.arm.mag, cfg.alpha0_mag)
    dalpha = target_derivative(cfg, target)
    if dalpha == 0:
        raise ValueError(
            "target derivative vanishes; no alignment direction exists"
        )
    psi = wrap_angle(math.atan2(dalpha.imag, dalpha.real))
    min_mag = abs((alpha_first * cmath.exp(-1j * psi)).imag)
    return SaturationSolution(
        min_mag_i=min_mag,
        psi=psi,
        feasible=not budget_violations(0.0, min_mag, cfg.alpha0_mag),
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

#: Largest scan accepted, in axis steps and in grid cells (nx*ny): a cell
#: holds about 150 bytes while the grid is computed and written, so this
#: caps a scan near 1.5 GB.  Checked before anything is allocated.
MAX_CELLS = 10**7


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
        if steps > MAX_CELLS:
            raise ValueError(
                f"axis {name!r}: {steps} steps exceed the cap of {MAX_CELLS}"
            )

    @classmethod
    def linspace(cls, name: str, lo: float, hi: float, steps: int) -> "AxisSpec":
        cls._check_range(name, lo, hi, steps)
        # only the last value can overflow inside np.linspace, and it is
        # then set to HI; a span past a double is taken halved, exactly
        with np.errstate(over="ignore"):
            if math.isfinite(hi - lo):
                values = np.linspace(lo, hi, steps)
            else:
                values = 2.0 * np.linspace(lo / 2.0, hi / 2.0, steps)
        return cls(name, values, "linear")

    @classmethod
    def logspace(cls, name: str, lo: float, hi: float, steps: int) -> "AxisSpec":
        cls._check_range(name, lo, hi, steps)
        if not (0.0 < lo < hi):
            raise ValueError(f"log axis needs 0 < lo < hi, got [{lo}, {hi}]")
        with np.errstate(over="ignore"):
            values = np.logspace(math.log10(lo), math.log10(hi), steps)
        return cls(name, values, "log")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scale": self.scale,
            "values": [float(v) for v in self.values],
        }


def apply_axis(cfg: FieldConfig, name: str, value: float) -> FieldConfig:
    """Baseline config with one scan parameter replaced."""
    if name == "alpha_r_mag":
        z = cfg.alpha_r
        phase = math.atan2(z.imag, z.real) if z != 0 else 0.0
        return replace(cfg, alpha_r=cmath.rect(value, phase))
    if name == "phi_s":
        return replace(
            cfg, particle=replace(cfg.particle, phi_s=wrap_angle(value))
        )
    if name == "mag_i":
        return replace(cfg, reference=ReferenceArm(value, cfg.arm.phi_i))
    if name == "phi_i":
        return replace(cfg, reference=ReferenceArm(cfg.arm.mag, wrap_angle(value)))
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

    def to_csv(self, path) -> None:
        """Long-form x, y, ratio, defined_flag; y is blank in 1-D scans."""
        ny, nx = self.values.shape
        # each axis value is formatted once, not once per cell
        x = [fmt(v) for v in self.x.values.tolist()]
        y = [""] if self.y is None else [fmt(v) for v in self.y.values.tolist()]
        ratio = self.values.ravel()
        write_csv(
            path,
            {
                "x": x * ny,
                "y": [cell for cell in y for _ in range(nx)],
                "ratio": ratio,
                "defined_flag": np.where(np.isnan(ratio), "0", "1").tolist(),
            },
        )


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
    grid_shape = (len(y.values) if y is not None else 1, len(x.values))
    cells = grid_shape[0] * grid_shape[1]
    if cells > MAX_CELLS:
        raise ValueError(
            f"scan grid of {cells} cells (x axis {x.name!r}, y axis "
            f"{y.name if y else None!r}) exceeds the cap of {MAX_CELLS}"
        )
    axes = {}
    for axis, shape in ((y, (-1, 1)), (x, (1, -1))):
        if axis is not None:
            cfgs = [apply_axis(base, axis.name, float(v)) for v in axis.values]
            axes[axis.name] = cfgs, shape

    def column(name, get):
        """get(cfg) per value of the axis that sets ``name``, else of base."""
        if name not in axes:
            return get(base)
        cfgs, shape = axes[name]
        return np.array([get(c) for c in cfgs]).reshape(shape)

    first = np.broadcast_to(
        column("alpha_r_mag", lambda c: c.alpha_r)
        + column("phi_s", lambda c: scattered_amplitude(c.particle)),
        grid_shape,
    )
    mag_i = column("mag_i", lambda c: c.arm.mag)
    check_budget(magnitude(first), mag_i, base.alpha0_mag)
    phasor_i = column("phi_i", lambda c: from_polar(1.0, c.arm.phi_i))
    dalpha = column("phi_s", lambda c: target_derivative(c, target))
    ratio = fisher.information(
        first + mag_i * phasor_i, dalpha, VACUUM_TOL * base.alpha0_mag
    )[4]
    return ScanGrid(x, y, base, target, ratio)
