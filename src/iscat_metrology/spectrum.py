"""Multi-frequency (broadband) fields on an explicit quadrature grid.

A SpectralField samples the arm amplitudes over dimensionless relative
frequencies.  Amplitudes are spectral densities: |alpha(omega)|^2 integrates
to a photon number over the band.  Integrals use the stored quadrature
weights, by default the composite trapezoid rule on the user grid; a
single-point grid uses weight 1 so it reduces exactly to the single-mode
case.

Because frequencies are uncorrelated, the information quantities are plain
integrals of their single-mode counterparts, whose densities come from
``fisher.information`` at every grid point:

    F_q  = 4 * integral |d(alpha_s)(omega)|^2 d(omega)
    F_pa = 4 * integral Re[(conj(alpha_d)/|alpha_d|) * d(alpha_s)]^2 d(omega)

For the mass target d(alpha_s) = s(omega)*exp(i*phi_s), so F_q = 4*I[s^2]
and F_pa = 4*I[s^2 * cos^2(psi-chi)], and the broadband photon-counting
bound on the relative mass error is

    (dm/m)*sqrt(n_s) >= (1/2)*sqrt(F_q / F_pa).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fisher
from .errors import NotEstimableError, VacuumPhaseError
from .field import EstimationTarget

SPECTRUM_CSV_COLUMNS = [
    "omega",
    "weight",
    "alpha_r_re",
    "alpha_r_im",
    "alpha_s_re",
    "alpha_s_im",
    "alpha_i_re",
    "alpha_i_im",
    "scale_s",
    "phi_s",
]


def trapezoid_weights(omega: np.ndarray) -> np.ndarray:
    """Composite-trapezoid quadrature weights; [1.0] for a single point."""
    if len(omega) == 1:
        return np.array([1.0])
    w = np.empty_like(omega)
    w[0] = 0.5 * (omega[1] - omega[0])
    w[-1] = 0.5 * (omega[-1] - omega[-2])
    w[1:-1] = 0.5 * (omega[2:] - omega[:-2])
    return w


@dataclass(frozen=True)
class SpectralField:
    """Frequency-sampled amplitude set with quadrature weights."""

    omega: np.ndarray
    alpha_r: np.ndarray
    alpha_s: np.ndarray
    alpha_i: np.ndarray
    scale_s: np.ndarray
    phi_s: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        object.__setattr__(self, "omega", omega)
        if len(omega) == 0:
            raise ValueError("empty frequency grid")
        if len(omega) > 1 and not np.all(np.diff(omega) > 0):
            raise ValueError("frequency grid must be strictly increasing")
        for name in ("alpha_r", "alpha_s", "alpha_i"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != omega.shape:
                raise ValueError(f"{name} length differs from the grid")
            object.__setattr__(self, name, arr)
        for name in ("scale_s", "phi_s"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != omega.shape:
                raise ValueError(f"{name} length differs from the grid")
            object.__setattr__(self, name, arr)
        if self.weights is None:
            object.__setattr__(self, "weights", trapezoid_weights(omega))
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != omega.shape:
                raise ValueError("weights length differs from the grid")
            if not np.all(w > 0):
                raise ValueError("quadrature weights must be positive")
            object.__setattr__(self, "weights", w)

    def detector(self) -> np.ndarray:
        return self.alpha_r + self.alpha_s + self.alpha_i

    def derivative(self, target: EstimationTarget) -> np.ndarray:
        """d(alpha_s)(omega)/d(mu) for the chosen target."""
        if target is EstimationTarget.MASS:
            return self.scale_s * np.exp(1j * self.phi_s)
        return 1j * self.alpha_s

    def integrate(self, values: np.ndarray) -> float:
        return float(np.sum(self.weights * values))


def flat_white_spectrum(
    omega_lo: float,
    omega_hi: float,
    points: int,
    total_scattered_photons: float,
    phi_s: float,
    mass_kda: float = 1.0,
    reflected_photons: float = 0.0,
    reference_photons: float = 0.0,
    phi_i: float = 0.0,
) -> SpectralField:
    """Broadband field with a flat scattered photon density.

    |alpha_s(omega)|^2 is constant over [omega_lo, omega_hi] and integrates
    to ``total_scattered_photons``.  Arms proportional to the source (the
    reflected and reference arms, populated via their photon numbers) follow
    the white-light envelope alpha ~ sqrt(1/omega).  ``mass_kda`` fixes the
    split alpha_s = m * s(omega) * exp(i*phi_s).
    """
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    if not (0.0 < omega_lo < omega_hi):
        raise ValueError(f"invalid band [{omega_lo}, {omega_hi}]")
    if total_scattered_photons < 0:
        raise ValueError("total_scattered_photons must be >= 0")
    if mass_kda <= 0:
        raise ValueError("mass_kda must be > 0")
    if points == 1:
        omega = np.array([0.5 * (omega_lo + omega_hi)])
        span = 1.0  # single mode carries all photons (weight-1 convention)
    else:
        omega = np.linspace(omega_lo, omega_hi, points)
        span = omega_hi - omega_lo
    density = total_scattered_photons / span
    alpha_s = np.full(points, math.sqrt(density)) * np.exp(1j * phi_s)
    log_ratio = math.log(omega_hi / omega_lo)

    def source_arm(photons: float, phase: float) -> np.ndarray:
        if photons == 0.0:
            return np.zeros(points, dtype=complex)
        if points == 1:
            return np.array([math.sqrt(photons) * np.exp(1j * phase)])
        # |alpha|^2 = c/omega with integral c*log(hi/lo) = photons
        c = photons / log_ratio
        return np.sqrt(c / omega) * np.exp(1j * phase)

    return SpectralField(
        omega=omega,
        alpha_r=source_arm(reflected_photons, 0.0),
        alpha_s=alpha_s,
        alpha_i=source_arm(reference_photons, phi_i),
        scale_s=np.abs(alpha_s) / mass_kda,
        phi_s=np.full(points, phi_s),
    )


def scattered_photons(f: SpectralField) -> float:
    """Total scattered photon number, integral of |alpha_s|^2."""
    return f.integrate(np.abs(f.alpha_s) ** 2)


def qfi_multifrequency(f: SpectralField, target: EstimationTarget) -> float:
    """Coherent-state QFI of the broadband field."""
    return f.integrate(fisher.information(f.detector(), f.derivative(target))[0])


def qfi_multifrequency_phase_averaged(
    f: SpectralField, target: EstimationTarget
) -> float:
    """QFI with every frequency phase-averaged independently.

    Equals the broadband photon-counting CFI.  Raises VacuumPhaseError if
    the detector field vanishes at a frequency whose integrand contributes.
    """
    dal = f.derivative(target)
    cfi = fisher.information(f.detector(), dal)[1]
    undefined = np.isnan(cfi)
    dead = undefined & (dal != 0)
    if np.any(dead):
        idx = int(np.argmax(dead))
        raise VacuumPhaseError(
            f"detector field is vacuum at grid point {idx} "
            f"(omega={f.omega[idx]!r}); the counting CFI is undefined there"
        )
    # a vacuum point with a vanishing derivative contributes nothing
    return f.integrate(np.where(undefined, 0.0, cfi))


def relative_mass_bound_multifrequency(f: SpectralField) -> float:
    """Broadband counting bound on (dm/m)*sqrt(total scattered photons)."""
    qfi = qfi_multifrequency(f, EstimationTarget.MASS)
    if not (qfi > 0.0):
        raise NotEstimableError("spectrum scatters no photons")
    cfi = qfi_multifrequency_phase_averaged(f, EstimationTarget.MASS)
    if not (cfi > 0.0):
        raise NotEstimableError(
            "every frequency is orthogonal; the mass cannot be estimated"
        )
    return 0.5 * math.sqrt(qfi / cfi)


# --- serialization ------------------------------------------------------------


def spectrum_rows(f: SpectralField):
    for k in range(len(f.omega)):
        yield (
            float(f.omega[k]),
            float(f.weights[k]),
            float(f.alpha_r[k].real),
            float(f.alpha_r[k].imag),
            float(f.alpha_s[k].real),
            float(f.alpha_s[k].imag),
            float(f.alpha_i[k].real),
            float(f.alpha_i[k].imag),
            float(f.scale_s[k]),
            float(f.phi_s[k]),
        )


def spectrum_to_csv(f: SpectralField, path) -> None:
    from .textio import write_csv

    write_csv(path, SPECTRUM_CSV_COLUMNS, spectrum_rows(f))


def spectrum_to_json_rows(f: SpectralField) -> list[dict]:
    return [dict(zip(SPECTRUM_CSV_COLUMNS, row)) for row in spectrum_rows(f)]


def spectrum_from_rows(rows: list[dict]) -> SpectralField:
    def col(name):
        return np.array([float(r[name]) for r in rows])

    return SpectralField(
        omega=col("omega"),
        alpha_r=col("alpha_r_re") + 1j * col("alpha_r_im"),
        alpha_s=col("alpha_s_re") + 1j * col("alpha_s_im"),
        alpha_i=col("alpha_i_re") + 1j * col("alpha_i_im"),
        scale_s=col("scale_s"),
        phi_s=col("phi_s"),
        weights=col("weight"),
    )


def spectrum_from_csv(path) -> SpectralField:
    import csv

    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(
            line for line in fh if not line.startswith("#")
        )
        rows = list(reader)
    if not rows:
        raise ValueError(f"no spectrum rows in {path}")
    missing = set(SPECTRUM_CSV_COLUMNS) - set(rows[0].keys())
    if missing:
        raise ValueError(f"spectrum CSV missing columns: {sorted(missing)}")
    return spectrum_from_rows(rows)
