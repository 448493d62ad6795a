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
        # checked per CSV column, so a bad file names the column at fault
        columns = {"omega": omega, "weight": self.weights}
        for name in ("alpha_r", "alpha_s", "alpha_i"):
            z = np.asarray(getattr(self, name))
            columns[f"{name}_re"], columns[f"{name}_im"] = z.real, z.imag
        columns.update(scale_s=self.scale_s, phi_s=self.phi_s)
        for column, values in columns.items():
            if values is not None and not np.all(np.isfinite(values)):
                raise ValueError(f"spectrum column {column} must be finite")
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
        """alpha_r + alpha_s + alpha_i (inf, with no warning, on overflow)."""
        with np.errstate(over="ignore"):
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
    """Total scattered photon number, integral of |alpha_s|^2 (inf, with no
    warning, when it overflows a double)."""
    with np.errstate(over="ignore"):
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
    _, cfi, _, chi, _ = fisher.information(f.detector(), dal)
    vacuum = np.isnan(chi)
    dead = vacuum & (dal != 0)
    if np.any(dead):
        idx = int(np.argmax(dead))
        raise VacuumPhaseError(
            f"detector field is vacuum at grid point {idx} "
            f"(omega={f.omega[idx]!r}); the counting CFI is undefined there"
        )
    # a vacuum point with a vanishing derivative contributes nothing
    return f.integrate(np.where(vacuum, 0.0, cfi))


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
    bound = 0.5 * math.sqrt(qfi / cfi)
    if not math.isfinite(bound):  # F_q/F_pa overflows a double
        raise ValueError(f"relative mass bound {bound!r} is not finite")
    return bound


# --- serialization ------------------------------------------------------------


def spectrum_columns(f: SpectralField) -> dict[str, np.ndarray]:
    """The columns of ``f`` under their SPECTRUM_CSV_COLUMNS names."""
    arrays = [f.omega, f.weights]
    for z in (f.alpha_r, f.alpha_s, f.alpha_i):
        arrays += [z.real, z.imag]
    return dict(zip(SPECTRUM_CSV_COLUMNS, arrays + [f.scale_s, f.phi_s]))


def spectrum_to_csv(f: SpectralField, path) -> None:
    from .textio import write_csv

    write_csv(path, spectrum_columns(f))


def spectrum_to_json_rows(f: SpectralField) -> list[dict]:
    columns = {name: col.tolist() for name, col in spectrum_columns(f).items()}
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def spectrum_from_rows(rows: list[dict]) -> SpectralField:
    def col(name):
        try:
            return np.array([float(r[name]) for r in rows])
        except (TypeError, ValueError):  # a missing (None) or non-numeric cell
            raise ValueError(
                f"spectrum column {name} holds a missing or non-numeric cell"
            ) from None

    def amplitude(name):
        # re + 1j*im would turn a signed zero in either part into +0.0
        z = col(f"{name}_re").astype(complex)
        z.imag = col(f"{name}_im")
        return z

    return SpectralField(
        omega=col("omega"),
        alpha_r=amplitude("alpha_r"),
        alpha_s=amplitude("alpha_s"),
        alpha_i=amplitude("alpha_i"),
        scale_s=col("scale_s"),
        phi_s=col("phi_s"),
        weights=col("weight"),
    )


def spectrum_from_csv(path) -> SpectralField:
    import csv

    with open(path, "r", encoding="utf-8") as fh:
        # comment and blank lines are skipped, before the header too
        reader = csv.DictReader(
            line for line in fh
            if line.rstrip("\r\n") and not line.startswith("#")
        )
        try:
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise ValueError(f"spectrum CSV {path} is not UTF-8: {exc}") from None
        except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
            raise ValueError(f"spectrum CSV {path}: {exc}") from None
    if not rows:
        raise ValueError(f"no spectrum rows in {path}")
    missing = set(SPECTRUM_CSV_COLUMNS) - set(rows[0].keys())
    if missing:
        raise ValueError(f"spectrum CSV missing columns: {sorted(missing)}")
    twice = [n for n in SPECTRUM_CSV_COLUMNS if reader.fieldnames.count(n) > 1]
    if twice:
        raise ValueError(f"spectrum CSV {path} names columns twice: {twice}")
    return spectrum_from_rows(rows)
