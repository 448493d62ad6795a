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

A band's CSV columns come from one map, column name to attribute and part:
the writer, the JSON rows, the finiteness check and the reader all use it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import fisher
from .errors import NotEstimableError, VacuumPhaseError
from .field import EstimationTarget
from .textio import write_csv

#: CSV column -> (SpectralField attribute, part of a complex arm or None).
_COLUMNS = {
    "omega": ("omega", None),
    "weight": ("weights", None),
    "alpha_r_re": ("alpha_r", "real"),
    "alpha_r_im": ("alpha_r", "imag"),
    "alpha_s_re": ("alpha_s", "real"),
    "alpha_s_im": ("alpha_s", "imag"),
    "alpha_i_re": ("alpha_i", "real"),
    "alpha_i_im": ("alpha_i", "imag"),
    "scale_s": ("scale_s", None),
    "phi_s": ("phi_s", None),
}
SPECTRUM_CSV_COLUMNS = list(_COLUMNS)


def trapezoid_weights(omega: np.ndarray) -> np.ndarray:
    """Composite-trapezoid quadrature weights; [1.0] for a single point."""
    if len(omega) == 1:
        return np.array([1.0])
    edged = np.concatenate([omega[:1], omega, omega[-1:]])
    return 0.5 * (edged[2:] - edged[:-2])


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
        for field in fields(self):
            values = getattr(self, field.name)
            if values is not None:
                dtype = complex if field.name.startswith("alpha") else float
                object.__setattr__(self, field.name, np.asarray(values, dtype))
        # checked per CSV column, so a bad file names the column at fault
        for column, values in spectrum_columns(self).items():
            if values is not None and not np.all(np.isfinite(values)):
                raise ValueError(f"spectrum column {column} must be finite")
        if len(self.omega) == 0:
            raise ValueError("empty frequency grid")
        if len(self.omega) > 1 and not np.all(np.diff(self.omega) > 0):
            raise ValueError("frequency grid must be strictly increasing")
        for field in fields(self)[1:]:
            values = getattr(self, field.name)
            if values is not None and values.shape != self.omega.shape:
                raise ValueError(f"{field.name} length differs from the grid")
        if self.weights is None:
            object.__setattr__(self, "weights", trapezoid_weights(self.omega))
        elif not np.all(self.weights > 0):
            raise ValueError("quadrature weights must be positive")

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


def spectrum_columns(f: SpectralField) -> dict[str, np.ndarray | None]:
    """The columns of ``f`` under their SPECTRUM_CSV_COLUMNS names."""
    return {
        column: getattr(getattr(f, name), part) if part else getattr(f, name)
        for column, (name, part) in _COLUMNS.items()
    }


def spectrum_to_csv(f: SpectralField, path) -> None:
    write_csv(path, spectrum_columns(f))


def spectrum_to_json_rows(f: SpectralField) -> list[dict]:
    columns = {name: col.tolist() for name, col in spectrum_columns(f).items()}
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def spectrum_from_csv(path) -> SpectralField:
    import csv

    with open(path, "r", encoding="utf-8") as fh:
        # comment and blank lines are skipped, before the header too
        reader = csv.reader(
            line for line in fh
            if line.rstrip("\r\n") and not line.startswith("#")
        )
        try:
            # one tuple per column, its header cell first; short rows read ""
            table = list(itertools.zip_longest(*reader, fillvalue=""))
        except UnicodeDecodeError as exc:
            raise ValueError(f"spectrum CSV {path} is not UTF-8: {exc}") from None
        except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
            raise ValueError(f"spectrum CSV {path}: {exc}") from None
    if len(table[0] if table else ()) < 2:
        raise ValueError(f"no spectrum rows in {path}")
    header = [column[0] for column in table]
    missing = set(SPECTRUM_CSV_COLUMNS) - set(header)
    if missing:
        raise ValueError(f"spectrum CSV missing columns: {sorted(missing)}")
    twice = [n for n in SPECTRUM_CSV_COLUMNS if header.count(n) > 1]
    if twice:
        raise ValueError(f"spectrum CSV {path} names columns twice: {twice}")
    # parsed in SpectralField's field order; the first bad column is named
    names = [field.name for field in fields(SpectralField)]
    values = {}
    for column in sorted(_COLUMNS, key=lambda c: names.index(_COLUMNS[c][0])):
        name, part = _COLUMNS[column]
        try:  # numpy parses a str cell as float() does; "" fails
            x = np.array(table[header.index(column)][1:], dtype=float)
        except ValueError:
            raise ValueError(
                f"spectrum column {column} holds a missing or non-numeric cell"
            ) from None
        if part is None:
            values[name] = x
        else:  # set part by part: re + 1j*im would turn -0.0 into +0.0
            setattr(values.setdefault(name, np.empty(len(x), complex)), part, x)
    return SpectralField(**values)
