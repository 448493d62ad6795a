"""Signal-to-noise analysis of the intensity measurement.

Real field amplitudes E_r (reflected), E_s (scattered) and E_i (reference)
live in their own unit system: intensity is the squared total amplitude and
the shot noise of the counting distribution is sqrt(intensity).  The signal
for a parameter is the intensity term it modulates.

Without the reference arm the intensity is

    I1 = E_r^2 + 2*E_r*E_s*cos(phi_s) + E_s^2

and with it

    I2 = E_i^2 + 2*E_i*E_r*cos(phi_i) + 2*E_i*E_s*cos(phi_i - phi_s)
       + E_r^2 + 2*E_r*E_s*cos(phi_s) + E_s^2.

Mass scales linearly with E_s, so its signal is the sum of the terms linear
in E_s, a projection evaluated with A = E_r + E_i*exp(i*phi_i) (E_i = 0 in
the one-arm setup) and alpha_s = E_s*exp(i*phi_s) as

    SNR_m = 2*Re[conj(A)*alpha_s] / |A + alpha_s|,

which, unlike the I1/I2 expansions, does not cancel near the dark fringe.
For a small scattering phase the one-arm setup only carries a quadratic
phi_s^2 signal while the two-arm setup keeps a linear one,
2*E_i*E_s*phi_s*sin(phi_i); the small-phase forms are evaluated as printed.

All functions accept floats or numpy arrays (broadcasting applies) and
raise DegenerateFieldError when a noise denominator vanishes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateFieldError
from .field import magnitude
from .fisher import real_projection
from .textio import write_csv


@dataclass(frozen=True)
class RealFieldTriple:
    """Real amplitudes and phases of the three detector-field components.

    Fields may be scalars or broadcastable numpy arrays; every entry must
    be finite and the amplitudes non-negative.
    """

    e_r: float
    e_s: float
    e_i: float
    phi_s: float
    phi_i: float = 0.0

    def __post_init__(self):
        for name in ("e_r", "e_s", "e_i", "phi_s", "phi_i"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        for name in ("e_r", "e_s", "e_i"):
            if np.any(np.asarray(getattr(self, name)) < 0):
                raise ValueError(f"{name} must be >= 0")


def _maybe_scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def _checked_sqrt(intensity, context: str):
    if np.any(np.asarray(intensity) <= 0):
        raise DegenerateFieldError(
            f"total destructive interference: zero intensity in {context}"
        )
    if not np.all(np.isfinite(intensity)):
        raise ValueError(f"noise intensity in {context} overflows a double")
    return np.sqrt(intensity)


def _fields(f: RealFieldTriple):
    """A = E_r + E_i*exp(i*phi_i) and alpha_s = E_s*exp(i*phi_s), built from
    real parts, and the detector amplitude |A + alpha_s|."""
    arms = f.e_r + f.e_i * np.cos(f.phi_i) + 1j * (f.e_i * np.sin(f.phi_i))
    alpha_s = f.e_s * np.cos(f.phi_s) + 1j * (f.e_s * np.sin(f.phi_s))
    return arms, alpha_s, magnitude(arms + alpha_s)


def intensity_iscat(f: RealFieldTriple):
    """One-arm detector intensity I1."""
    return intensity_miscat(replace(f, e_i=0.0))


def intensity_miscat(f: RealFieldTriple):
    """Two-arm detector intensity I2 = |A + alpha_s|^2."""
    return _maybe_scalar(_fields(f)[2] ** 2)


def snr_mass_iscat(f: RealFieldTriple):
    """Mass SNR of the one-arm setup: 2*E_r*E_s*cos(phi_s)/sqrt(I1), the
    two-arm SNR at E_i = 0."""
    return snr_mass_miscat(replace(f, e_i=0.0))


def snr_mass_miscat(f: RealFieldTriple):
    """Mass SNR of the two-arm setup, 2*Re[conj(A)*alpha_s]/|A + alpha_s|:
    both E_s-linear terms over sqrt(I2)."""
    arms, alpha_s, noise = _fields(f)
    if np.any(noise == 0):
        raise DegenerateFieldError(
            "total destructive interference: zero detector field"
        )
    return _maybe_scalar(2.0 * real_projection(arms, alpha_s) / noise)


def snr_phase_small_iscat(f: RealFieldTriple):
    """Small-phase SNR of the one-arm setup, quadratic in phi_s:
    2*phi_s^2*E_r*E_s / sqrt(E_r^2 + 2*E_r*E_s + E_s^2).  ValueError if
    the noise intensity overflows a double."""
    e_r, e_s, phi_s = (np.asarray(x, dtype=float) for x in (f.e_r, f.e_s, f.phi_s))
    with np.errstate(over="ignore", invalid="ignore"):  # reported, not warned
        signal = 2.0 * phi_s**2 * e_r * e_s
        noise = _checked_sqrt(
            e_r**2 + 2.0 * e_r * e_s + e_s**2,
            "snr_phase_small_iscat (E_r^2 + 2*E_r*E_s + E_s^2)",
        )
    return _maybe_scalar(signal / noise)


def snr_phase_small_miscat(f: RealFieldTriple):
    """Small-phase SNR of the two-arm setup, linear in phi_s:
    2*E_i*E_s*phi_s*sin(phi_i) / sqrt(E_i^2 + 2*E_i*E_r*cos(phi_i) + E_r^2).
    ValueError if the noise intensity overflows a double."""
    e_r, e_s, e_i = (np.asarray(x, dtype=float) for x in (f.e_r, f.e_s, f.e_i))
    with np.errstate(over="ignore", invalid="ignore"):  # reported, not warned
        signal = 2.0 * e_i * e_s * np.asarray(f.phi_s) * np.sin(f.phi_i)
        noise = _checked_sqrt(
            e_i**2 + 2.0 * e_i * e_r * np.cos(f.phi_i) + e_r**2,
            "snr_phase_small_miscat (E_i^2 + 2*E_i*E_r*cos(phi_i) + E_r^2)",
        )
    return _maybe_scalar(signal / noise)


# --- sweeps -------------------------------------------------------------------


def mass_snr_sweep(
    f: RealFieldTriple, phi_i_values: np.ndarray
) -> dict[str, np.ndarray]:
    """Mass SNR of both setups over a reference-phase sweep."""
    phi_i = np.asarray(phi_i_values, dtype=float)
    swept = RealFieldTriple(f.e_r, f.e_s, f.e_i, f.phi_s, phi_i)
    return {
        "phi_i": phi_i,
        "snr_iscat": np.asarray(snr_mass_iscat(swept), dtype=float),
        "snr_miscat": np.asarray(snr_mass_miscat(swept), dtype=float),
    }


def phase_snr_sweep(
    f: RealFieldTriple, phi_s_values: np.ndarray
) -> dict[str, np.ndarray]:
    """Small-phase SNR of both setups over a scattering-phase sweep."""
    phi_s = np.asarray(phi_s_values, dtype=float)
    swept = RealFieldTriple(f.e_r, f.e_s, f.e_i, phi_s, f.phi_i)
    return {
        "phi_s": phi_s,
        "snr_iscat": np.asarray(snr_phase_small_iscat(swept), dtype=float),
        "snr_miscat": np.asarray(snr_phase_small_miscat(swept), dtype=float),
    }


def write_sweep_csv(path, sweep: dict[str, np.ndarray], meta=()) -> None:
    write_csv(path, sweep, comments=meta)
