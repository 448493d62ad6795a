"""Test inputs built from closed forms: a flat broadband field and the
single-mode relative mass bound.

No subcommand runs either, so neither checks its arguments: each test
passes values it chose.
"""

import math

import numpy as np

from iscat_metrology.spectrum import SpectralField


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
    if points == 1:
        omega = np.array([0.5 * (omega_lo + omega_hi)])
        span = 1.0  # single mode carries all photons (weight-1 convention)
    else:
        omega = np.linspace(omega_lo, omega_hi, points)
        span = omega_hi - omega_lo
    density = total_scattered_photons / span
    alpha_s = np.full(points, math.sqrt(density)) * np.exp(1j * phi_s)

    def source_arm(photons: float, phase: float) -> np.ndarray:
        if photons == 0.0:
            return np.zeros(points, dtype=complex)
        if points == 1:
            return np.array([math.sqrt(photons) * np.exp(1j * phase)])
        # |alpha|^2 = c/omega with integral c*log(hi/lo) = photons
        c = photons / math.log(omega_hi / omega_lo)
        return np.sqrt(c / omega) * np.exp(1j * phase)

    return SpectralField(
        omega=omega,
        alpha_r=source_arm(reflected_photons, 0.0),
        alpha_s=alpha_s,
        alpha_i=source_arm(reference_photons, phi_i),
        scale_s=np.abs(alpha_s) / mass_kda,
        phi_s=np.full(points, phi_s),
    )


def relative_mass_bound(n_scattered: float, saturation: float = 1.0) -> float:
    """Lower bound on delta_m/m: 1/(2*sqrt(n_scattered * saturation)), for
    the mean scattered photon number |alpha_s|^2 and the cos^2(psi-chi)
    ratio of the measurement in use."""
    return 1.0 / (2.0 * math.sqrt(n_scattered * saturation))
