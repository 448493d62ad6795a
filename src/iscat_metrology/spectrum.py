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
the writer, the finiteness check and the reader all use it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import fisher
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
        with np.errstate(over="ignore"):  # inf, with no warning, on overflow
            return float(np.sum(self.weights * values))


def scattered_photons(f: SpectralField) -> float:
    """Total scattered photon number, integral of |alpha_s|^2 (inf, with no
    warning, when it overflows a double)."""
    with np.errstate(over="ignore"):
        return f.integrate(np.abs(f.alpha_s) ** 2)


def qfi_multifrequency(f: SpectralField, target: EstimationTarget) -> float:
    """Coherent-state QFI of the broadband field."""
    info = fisher.information(f.detector(), f.derivative(target))
    return f.integrate(info.qfi_coherent)


def qfi_multifrequency_phase_averaged(
    f: SpectralField, target: EstimationTarget
) -> float:
    """QFI with every frequency phase-averaged independently.

    Equals the broadband photon-counting CFI.  Raises NotEstimableError if
    the detector field vanishes at a frequency whose integrand contributes.
    """
    dal = f.derivative(target)
    info = fisher.information(f.detector(), dal)
    vacuum = np.isnan(info.chi)
    dead = vacuum & (dal != 0)
    if np.any(dead):
        idx = int(np.argmax(dead))
        raise fisher.NotEstimableError(
            f"detector field is vacuum at grid point {idx} "
            f"(omega={float(f.omega[idx])!r}); the counting CFI is undefined there"
        )
    # a vacuum point with a vanishing derivative contributes nothing
    return f.integrate(np.where(vacuum, 0.0, info.cfi_photon_number))


def relative_mass_bound_multifrequency(f: SpectralField) -> float:
    """Broadband counting bound on (dm/m)*sqrt(total scattered photons)."""
    qfi = qfi_multifrequency(f, EstimationTarget.MASS)
    if not (qfi > 0.0):
        raise fisher.NotEstimableError("spectrum scatters no photons")
    cfi = qfi_multifrequency_phase_averaged(f, EstimationTarget.MASS)
    if not (cfi > 0.0):
        raise fisher.NotEstimableError(
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


def spectrum_from_csv(path) -> SpectralField:
    import csv

    with open(path, "r", encoding="utf-8") as fh:
        # comment and blank lines are skipped, before the header too
        reader = csv.reader(
            line for line in fh
            if line.rstrip("\r\n") and not line.startswith("#")
        )
        try:
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise ValueError(f"spectrum CSV {path} is not UTF-8: {exc}") from None
        except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
            raise ValueError(f"spectrum CSV {path}: {exc}") from None
    # one tuple per column, its header cell first; short rows read ""
    table = list(itertools.zip_longest(*rows, fillvalue=""))
    if len(table[0] if table else ()) < 2:
        raise ValueError(f"no spectrum rows in {path}")
    header = rows[0]
    missing = set(SPECTRUM_CSV_COLUMNS) - set(header)
    if missing:
        raise ValueError(f"spectrum CSV missing columns: {sorted(missing)}")
    twice = [n for n in SPECTRUM_CSV_COLUMNS if header.count(n) > 1]
    if twice:
        raise ValueError(f"spectrum CSV {path} names columns twice: {twice}")
    if len(table) > len(header):  # a row has a cell no header cell names
        k = next(k for k, row in enumerate(rows) if len(row) > len(header))
        raise ValueError(f"spectrum CSV {path}: data row {k} is longer than the header")
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
