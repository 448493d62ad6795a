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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fisher
from .field import (
    VACUUM_TOL,
    EstimationTarget,
    FieldConfig,
    _require_finite,
    check_budget,
    config_to_dict,
    first_arm_amplitude,
    first_arm_magnitude,
    magnitude,
    phase,
    rect,
    wrap_angle,
)
from .textio import Indexed, write_csv

#: Classification band for tangency, in units of alpha0_mag.
GEOMETRY_TOL = 1e-12


@dataclass(frozen=True)
class SaturationSolution:
    """Solution set of saturating reference settings for one configuration."""

    min_mag_i: float
    psi: float
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
        return sorted((float(phase(z)), t) for z, t in arms)

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

    Raises ValueError naming the arm when ``cfg`` breaks the photon
    budget, the premise of the feasibility guarantee above, and
    NotEstimableError where the target derivative vanishes.
    """
    alpha_first = first_arm_amplitude(cfg)
    check_budget(first_arm_magnitude(cfg), cfg.arm.mag, cfg.alpha0_mag)
    dalpha = fisher.estimable_derivative(cfg, target)
    psi = float(phase(dalpha))
    min_mag = abs((alpha_first * cmath.exp(-1j * psi)).imag)
    return SaturationSolution(
        min_mag_i=min_mag,
        psi=psi,
        alpha_first=alpha_first,
        alpha0_mag=cfg.alpha0_mag,
    )


# --- Parameter scans ----------------------------------------------------------

AXIS_NAMES = ("alpha_r_mag", "phi_s", "mag_i", "phi_i")

#: Largest scan accepted, in axis steps and in grid cells (nx*ny).  A scan's
#: peak memory grows by about 63 bytes a cell in 2-D and 150 a step in 1-D,
#: whose axis values the header and manifest list (measured to 4*10**6), so
#: the cap holds it near 0.7 or 1.6 GB.  Checked before anything is allocated.
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
        if values.size == 0:
            raise ValueError(f"axis {self.name!r} has no values")
        _require_finite({f"axis {self.name!r} value": values})
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
            raise ValueError(f"log axis {name!r} needs 0 < lo < hi, got [{lo}, {hi}]")
        with np.errstate(over="ignore"):
            values = np.logspace(math.log10(lo), math.log10(hi), steps)
        return cls(name, values, "log")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scale": self.scale,
            "values": [float(v) for v in self.values],
        }


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
        """Long-form x, y, ratio, defined_flag; y is blank in 1-D scans.

        Each axis value is formatted once and repeated by index, a chunk of
        rows at a time: x runs through its values along each grid row, and
        y repeats one value for a whole grid row.  defined_flag is "1" or
        "0" by the NaN mask.
        """
        ny, nx = self.values.shape
        ratio = self.values.ravel()
        write_csv(
            path,
            {
                "x": Indexed(self.x.values, np.tile(np.arange(nx, dtype=np.int32), ny)),
                "y": Indexed(
                    [""] if self.y is None else self.y.values,
                    np.repeat(np.arange(ny, dtype=np.int32), nx),
                ),
                "ratio": ratio,
                "defined_flag": Indexed(["1", "0"], np.isnan(ratio)),
            },
        )


def scan_ratio_grid(
    base: FieldConfig,
    target: EstimationTarget,
    x: AxisSpec,
    y: Optional[AxisSpec] = None,
) -> ScanGrid:
    """Evaluate the saturation ratio over a 1-D or 2-D parameter grid.

    Each axis sets only its own parameter of ``base`` (ValueError if both
    axes set the same one), as one configuration would: a magnitude must be
    >= 0 (ValueError names the first negative value, y axis first), and an
    angle is wrapped.  Each axis is one row (x) or column (y) array, and each
    term an array expression over the axes it depends on, the photon budget
    included (ValueError names the bound); only alpha_d and the ratio span the grid.
    """
    if y is not None and y.name == x.name:
        raise ValueError(f"x and y axes both set {x.name!r}; scan it on one axis")
    cells = len(x.values) * (len(y.values) if y is not None else 1)
    if cells > MAX_CELLS:
        raise ValueError(
            f"scan grid of {cells} cells (x axis {x.name!r}, y axis "
            f"{y.name if y else None!r}) exceeds the cap of {MAX_CELLS}"
        )
    p, arm, z = base.particle, base.arm, base.alpha_r
    # each parameter as base sets it, or as its axis does, angles wrapped
    at = {"phi_s": p.phi_s, "mag_i": arm.mag, "phi_i": arm.phi_i}
    for axis, shape in ((y, (-1, 1)), (x, (1, -1))):
        if axis is None:
            continue
        values = axis.values.reshape(shape)
        if axis.name in ("phi_s", "phi_i"):
            values = wrap_angle(values)
        elif (values < 0.0).any():
            # a negative magnitude would turn alpha_r or the arm by pi
            bad = float(values[values < 0.0][0])
            raise ValueError(f"axis {axis.name!r} needs magnitudes >= 0, got {bad!r}")
        if axis.name == "alpha_r_mag":  # alpha_r keeps its angle
            z = rect(values, math.atan2(z.imag, z.real) if z != 0 else 0.0)
        else:
            at[axis.name] = values
    with np.errstate(over="ignore", invalid="ignore"):  # an arm past a double is inf
        first = z + rect(p.mass_kda * p.scale_per_kda, at["phi_s"])
        check_budget(magnitude(first), at["mag_i"], base.alpha0_mag)
    alpha_d = first + at["mag_i"] * rect(1.0, at["phi_i"])
    dalpha = rect(p.scale_per_kda, at["phi_s"])
    if target is EstimationTarget.SCATTER_PHASE:
        dalpha = 1j * p.mass_kda * dalpha
    info = fisher.information(alpha_d, dalpha, VACUUM_TOL * base.alpha0_mag)
    return ScanGrid(x, y, base, target, info.saturation_ratio)
