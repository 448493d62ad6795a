"""Independent oracles for the closed-form information quantities.

Three checks back the claim that counting with a tuned reference arm reaches
the quantum limit:

* a truncated Fock-basis sum over the diagonal logarithmic-derivative
  spectrum of the phase-averaged state (acceptance criterion 3);
* a central finite-difference evaluation of sum_n (dP/dmu)^2 / P for the
  Poisson counting distribution (acceptance criterion 2);
* the exact law of the Monte Carlo estimator (criterion 7 without a seed):
  the fit reads a trial's N counts only through their sum S, which is
  Poisson(N*lam), so the estimator's mean and variance are sums over the
  pmf of S.

The first two weight Fock levels with :func:`poisson_pmf` up to a
truncation no lower than :func:`min_truncation`; the third weights S with it
over its mean +- 10 standard deviations.  Nothing here imports the package:
the oracles build their counting means from the config's own numbers, so a
fault in the package's detector amplitude cannot cancel out of the
comparison.
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


def _detector_means(cfg, mass_kda, phi_s) -> np.ndarray:
    """|alpha_r + m*s*e^(i*phi_s) + |alpha_i|*e^(i*phi_i)|^2 from the
    config's numbers, with the given masses and scattering phases (numbers
    or arrays, broadcast)."""
    p, arm = cfg.particle, cfg.reference
    amp = cfg.alpha_r + mass_kda * p.scale_per_kda * np.exp(1j * np.asarray(phi_s))
    if arm is not None:
        amp = amp + arm.mag * cmath.exp(1j * arm.phi_i)
    return np.abs(amp) ** 2


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
    steps = np.array([-step, 0.0, step])
    if target.value == "mass":
        means = _detector_means(cfg, p.mass_kda + steps, p.phi_s)
    else:
        means = _detector_means(cfg, p.mass_kda, p.phi_s + steps)
    if means.min() <= (VACUUM_TOL * cfg.alpha0_mag) ** 2:
        raise ValueError(
            f"detector field is vacuum within {step!r} of the configured "
            f"{target.value}; choose a different step"
        )
    lam_minus, lam0, lam_plus = means.tolist()
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


def total_count_law(cfg, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, P(S)) of a trial's count sum, Poisson(samples * lam), over
    mean +- 10 standard deviations: the tails beyond weigh below 1e-22."""
    p = cfg.particle
    mean = samples * float(_detector_means(cfg, p.mass_kda, p.phi_s))
    half = 10.0 * math.sqrt(mean)
    totals = np.arange(max(0, math.floor(mean - half)), math.ceil(mean + half) + 1)
    return totals, poisson_pmf(mean, totals)


def exact_estimator_moments(cfg, target, samples: int) -> tuple[float, float]:
    """(mean, variance) of the maximum-likelihood estimate from ``samples``
    counts, over the exact law of their sum.

    The estimate solves lam(mu) = S/samples inside the search window
    ([m/10, 10*m] in mass, phi_s +- pi/2 in phase), at least 1e-6 of its
    width from either edge, and of two roots the one nearest the configured
    value is taken.  Each root is found by a sign scan over 40 equal cells
    and 60 bisections, which reach the double next to it; a sum whose level
    no root reaches inside the window raises ValueError.
    """
    p = cfg.particle
    if target.value == "mass":
        mu0, lo, hi = p.mass_kda, 0.1 * p.mass_kda, 10.0 * p.mass_kda
        lam = lambda mu: _detector_means(cfg, mu, p.phi_s)
    else:
        mu0, lo, hi = p.phi_s, p.phi_s - 0.5 * math.pi, p.phi_s + 0.5 * math.pi
        lam = lambda mu: _detector_means(cfg, p.mass_kda, mu)
    totals, weights = total_count_law(cfg, samples)
    levels = totals / samples
    grid = np.linspace(lo, hi, 41)
    above = lam(grid)[None, :] >= levels[:, None]
    rows, cols = np.nonzero(above[:, :-1] != above[:, 1:])
    a, b = grid[cols], grid[cols + 1]
    a_above = above[rows, cols]
    for _ in range(60):
        mid = 0.5 * (a + b)
        same = (lam(mid) >= levels[rows]) == a_above
        a, b = np.where(same, mid, a), np.where(same, b, mid)
    edge = 1e-6 * (hi - lo)
    estimates = np.full(len(totals), np.nan)
    for row, root in zip(rows, 0.5 * (a + b)):
        nearer = np.isnan(estimates[row]) or abs(root - mu0) < abs(estimates[row] - mu0)
        if lo + edge < root < hi - edge and nearer:
            estimates[row] = root
    if np.isnan(estimates).any():
        missed = totals[np.isnan(estimates)]
        raise ValueError(f"no root inside the window for S = {missed[0]}")
    mean = float(np.sum(weights * estimates) / np.sum(weights))
    variance = float(np.sum(weights * (estimates - mean) ** 2) / np.sum(weights))
    return mean, variance
