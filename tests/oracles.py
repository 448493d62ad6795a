"""Independent oracles for the closed-form information quantities.

Two checks back the claim that counting with a tuned reference arm reaches
the quantum limit:

* a truncated Fock-basis sum over the diagonal logarithmic-derivative
  spectrum of the phase-averaged state (acceptance criterion 3);
* a central finite-difference evaluation of sum_n (dP/dmu)^2 / P for the
  Poisson counting distribution (acceptance criterion 2).

Both weight Fock levels with :func:`poisson_pmf` up to a truncation no lower
than :func:`min_truncation`.  Nothing here imports the package: the
finite-difference oracle builds its counting means with ``cmath`` from the
config's own numbers, so a fault in the package's detector amplitude cannot
cancel out of the comparison.
"""

import cmath
import math

import numpy as np

#: Detector amplitudes at or below this (times alpha0_mag) count as vacuum.
VACUUM_TOL = 1e-12


class TruncationError(ValueError):
    """A Fock-space truncation lies below the tail-coverage rule."""


def poisson_pmf(mean: float, n) -> float | np.ndarray:
    """Poisson probability e^-mean * mean^n / n! at integer levels n >= 0.

    Log space with math.lgamma per level (a running sum of log(n) drifts);
    raises ValueError for a negative or non-finite mean.
    """
    if not 0.0 <= mean < math.inf:
        raise ValueError(f"mean must be finite and >= 0, got {mean}")
    k = np.asarray(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_log_mean = np.where(k == 0, 0.0, k * np.log(mean))
    lgamma = np.vectorize(math.lgamma, otypes=[float])
    out = np.exp(k_log_mean - lgamma(k + 1.0) - mean)
    return float(out) if np.isscalar(n) else out


def min_truncation(mean: float) -> int:
    """Smallest allowed Fock truncation n for a Poisson mean (tail rule).

    With t = n - mean >= 10*sqrt(mean) + 25, Bernstein's inequality gives
    P(N > n) <= exp(-t^2 / (2*(mean + t/3))) <= exp(-37.5) < 6e-17.
    """
    return math.ceil(mean + 10.0 * math.sqrt(mean) + 25.0)


def _check_truncation(mean: float, truncation_n: int) -> None:
    """Reject a truncation below the tail rule of :func:`min_truncation`."""
    if truncation_n < min_truncation(mean):
        raise TruncationError(
            f"truncation {truncation_n} below the tail-coverage rule "
            f"{min_truncation(mean)} for mean {mean!r}"
        )


def sld_diagonal(
    alpha: complex, dalpha: complex, truncation_n: int
) -> np.ndarray:
    """Eigenvalues L_n = -2*Re[conj(alpha)*dalpha]*(1 - n/|alpha|^2) of the
    logarithmic-derivative operator of the phase-averaged state, on Fock
    levels n = 0..truncation_n.

    The mean of L under the Poisson weights is zero, which makes the
    truncated sum of P_n*L_n^2 a direct QFI evaluation.
    """
    mean = abs(alpha) ** 2
    if mean == 0.0:
        raise ValueError("SLD diagonal is undefined for the vacuum")
    _check_truncation(mean, truncation_n)
    n = np.arange(truncation_n + 1, dtype=float)
    coeff = -2.0 * (alpha.conjugate() * dalpha).real
    return coeff * (1.0 - n / mean)


def qfi_phase_averaged_oracle(
    alpha: complex, dalpha: complex, truncation_n: int
) -> float:
    """Truncated Fock-basis sum sum_n P_n * L_n^2.

    Independent check of the closed-form phase-averaged QFI; agrees within
    1e-9 relative once the truncation covers the Poisson tail.
    """
    mean = abs(alpha) ** 2
    diagonal = sld_diagonal(alpha, dalpha, truncation_n)
    weights = poisson_pmf(mean, np.arange(truncation_n + 1))
    return float(np.sum(weights * diagonal**2))


def _detector_mean(cfg, mass_kda: float, phi_s: float) -> float:
    """|alpha_r + m*s*e^(i*phi_s) + |alpha_i|*e^(i*phi_i)|^2 from the
    config's numbers, with the given mass and scattering phase."""
    p, arm = cfg.particle, cfg.reference
    amp = cfg.alpha_r + mass_kda * p.scale_per_kda * cmath.exp(1j * phi_s)
    if arm is not None:
        amp += arm.mag * cmath.exp(1j * arm.phi_i)
    if abs(amp) <= VACUUM_TOL * cfg.alpha0_mag:
        raise ValueError(
            f"detector field is vacuum at mass {mass_kda!r}, phi_s {phi_s!r}; "
            "choose a different step"
        )
    return abs(amp) ** 2


def cfi_numeric_oracle(
    cfg, target, step: float = 1e-5, truncation_n: int | None = None
) -> float:
    """CFI from the definition sum_n (dP(n|mu)/dmu)^2 / P(n|mu).

    ``target.value`` is ``"mass"`` (mu is the mass in kDa) or ``"phase"``
    (mu is phi_s).  The derivative is a central finite difference with the
    given step (in target units) and P is the Poisson counting distribution
    with mean |alpha_d(mu)|^2.  Step and truncation violations raise.
    """
    if step <= 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    p = cfg.particle
    if target.value == "mass":
        means = [_detector_mean(cfg, p.mass_kda + d, p.phi_s)
                 for d in (-step, 0.0, step)]
    else:
        means = [_detector_mean(cfg, p.mass_kda, p.phi_s + d)
                 for d in (-step, 0.0, step)]
    lam_minus, lam0, lam_plus = means
    n_max = truncation_n if truncation_n is not None else min_truncation(
        max(means)
    )
    for lam in means:
        _check_truncation(lam, n_max)
    n = np.arange(n_max + 1)
    p0 = poisson_pmf(lam0, n)
    dp = (poisson_pmf(lam_plus, n) - poisson_pmf(lam_minus, n)) / (2.0 * step)
    mask = p0 > 1e-300  # deep-tail terms contribute nothing
    return float(np.sum(dp[mask] ** 2 / p0[mask]))
