"""Photon-counting statistics: Poisson model, seeded sampling, maximum
likelihood, and Monte Carlo validation of the Cramer-Rao bound.

Counting a coherent field gives i.i.d. Poisson draws with mean
lam(mu) = |alpha_d(mu)|^2, so the log-likelihood of counts n_1..n_N is

    ll(mu) = S*log(lam(mu)) - N*lam(mu) + const,   S = sum(n_i).

The MLE is bracketed on a coarse grid and refined by golden-section search;
its variance across trials is compared against 1/(N*F) with F the counting
CFI.  Sampling uses numpy's PCG64 generator with explicit 64-bit seeds, and
trial k draws from its own stream seeded with seed + k, so a trial's counts
do not depend on the trials run before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

from . import fisher, tuner
from .errors import BracketError, NotEstimableError
from .field import (
    EstimationTarget,
    FieldConfig,
    ReferenceArm,
    detector_amplitude,
    first_arm_amplitude,
    reference_amplitude,
    target_value,
    with_target_value,
)


def poisson_pmf(mean: float, n) -> float | np.ndarray:
    """Poisson probability e^-mean * mean^n / n!, evaluated in log space."""
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    out = np.exp(stats.poisson.logpmf(n, mean))
    return float(out) if np.isscalar(n) else out


def gaussian_approx_pmf(mean: float, n) -> float | np.ndarray:
    """Stirling/Gaussian approximation of the counting distribution.

    exp(-(n - (mean - 1/2))^2 / (2*mean)) / (sqrt(mean) * sqrt(2*pi)),
    with the half-photon mean shift kept as printed.  Accurate only for
    large means (percent level near the peak at mean ~ 1e4, poor at
    mean ~ 1).
    """
    if not (mean > 0):
        raise ValueError(f"mean must be > 0, got {mean}")
    x = np.asarray(n, dtype=float) - (mean - 0.5)
    out = np.exp(-(x * x) / (2.0 * mean)) / math.sqrt(2.0 * math.pi * mean)
    return float(out) if np.isscalar(n) else out


@dataclass(frozen=True)
class CountSample:
    """Reproducible vector of photon counts."""

    counts: np.ndarray
    mean_used: float
    seed: int


def sample_counts(mean: float, length: int, seed: int) -> CountSample:
    """i.i.d. Poisson draws from a PCG64 stream with the given seed."""
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = rng.poisson(mean, size=length)
    return CountSample(counts=counts, mean_used=mean, seed=seed)


# --- Maximum likelihood -------------------------------------------------------

DEFAULT_COARSE_POINTS = 65
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def default_bracket(
    cfg: FieldConfig, target: EstimationTarget
) -> tuple[float, float]:
    """Unimodal search window around the configured parameter value."""
    mu = target_value(cfg, target)
    if target is EstimationTarget.MASS:
        return 0.1 * mu, 10.0 * mu
    return mu - 0.5 * math.pi, mu + 0.5 * math.pi


def _golden_max(f, lo: float, hi: float, xatol: float) -> float:
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > xatol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def model_mean(cfg: FieldConfig, target: EstimationTarget, mu: float) -> float:
    """Counting mean |alpha_d(mu)|^2 of the likelihood model.

    Evaluated without the photon-budget check: hypothetical parameter values
    explored by an estimator need not correspond to realizable setups.
    """
    trial = with_target_value(cfg, target, mu)
    amp = first_arm_amplitude(trial) + reference_amplitude(trial)
    return abs(amp) ** 2


def mle_estimate(
    sample: CountSample,
    cfg: FieldConfig,
    target: EstimationTarget,
    search_bracket: tuple[float, float] | None = None,
) -> float:
    """Maximum-likelihood value of the target parameter.

    The bracket (default: the unimodal window around the configured value)
    is scanned on a coarse grid and the best cell refined by golden-section
    search to 1e-10 of the bracket width.  If the maximum sits at a bracket
    edge the parameter is not identifiable from these counts and a
    BracketError with edge diagnostics is raised.
    """
    lo, hi = search_bracket if search_bracket is not None else default_bracket(
        cfg, target
    )
    if not (lo < hi):
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    counts = np.asarray(sample.counts)
    total = float(counts.sum())
    n_obs = len(counts)

    def loglike(mu: float) -> float:
        lam = model_mean(cfg, target, mu)
        if lam <= 0.0:
            return -math.inf  # vacuum: zero likelihood unless all counts are 0
        return total * math.log(lam) - n_obs * lam

    grid = np.linspace(lo, hi, DEFAULT_COARSE_POINTS)
    values = [loglike(mu) for mu in grid]
    k = int(np.argmax(values))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, len(grid) - 1)]
    xatol = 1e-10 * (hi - lo)
    estimate = _golden_max(loglike, a, b, xatol)
    edge = 1e-6 * (hi - lo)
    if estimate - lo <= edge or hi - estimate <= edge:
        mean_count = total / n_obs if n_obs else math.nan
        raise BracketError(
            "likelihood maximum at the bracket edge; parameter not "
            f"identifiable. bracket=[{lo!r}, {hi!r}], estimate={estimate!r}, "
            f"ll(lo)={loglike(lo)!r}, ll(hi)={loglike(hi)!r}, "
            f"mean count={mean_count!r}"
        )
    return estimate


# --- Monte Carlo CRB validation -------------------------------------------------


@dataclass(frozen=True)
class CrbValidationReport:
    """Empirical MLE variance against the Cramer-Rao bound."""

    target: EstimationTarget
    true_value: float
    n_trials: int
    samples_per_trial: int
    empirical_variance: float
    crb: float
    ratio_var_over_crb: float
    ratio_standard_error: float
    bias: float
    seed: int
    estimates: np.ndarray

    def to_dict(self) -> dict:
        return {
            "target": self.target.value,
            "true_value": self.true_value,
            "n_trials": self.n_trials,
            "samples_per_trial": self.samples_per_trial,
            "empirical_variance": self.empirical_variance,
            "crb": self.crb,
            "ratio_var_over_crb": self.ratio_var_over_crb,
            "ratio_standard_error": self.ratio_standard_error,
            "bias": self.bias,
            "seed": self.seed,
        }


def crb_validation(
    cfg: FieldConfig,
    target: EstimationTarget,
    samples_per_trial: int,
    n_trials: int,
    seed: int,
    search_bracket: tuple[float, float] | None = None,
) -> CrbValidationReport:
    """Repeatedly sample counts, fit the MLE, and compare var against CRB.

    Trial k uses the derived seed ``seed + k``.  Non-estimable
    configurations raise before any sampling.
    """
    if samples_per_trial < 2 or n_trials < 2:
        raise ValueError("need at least 2 samples per trial and 2 trials")
    report = fisher.fisher_report(cfg, target)  # raises if not estimable
    if not (report.cfi_photon_number > 0.0):
        raise NotEstimableError(
            "counting CFI is zero; the bound is infinite"
        )
    lam = abs(detector_amplitude(cfg)) ** 2
    true_value = target_value(cfg, target)

    estimates = np.empty(n_trials)
    for k in range(n_trials):
        sample = sample_counts(lam, samples_per_trial, seed + k)
        estimates[k] = mle_estimate(sample, cfg, target, search_bracket)
    variance = float(np.var(estimates, ddof=1))
    crb = 1.0 / (samples_per_trial * report.cfi_photon_number)
    ratio = variance / crb
    return CrbValidationReport(
        target=target,
        true_value=true_value,
        n_trials=n_trials,
        samples_per_trial=samples_per_trial,
        empirical_variance=variance,
        crb=crb,
        ratio_var_over_crb=ratio,
        ratio_standard_error=ratio * math.sqrt(2.0 / (n_trials - 1)),
        bias=float(np.mean(estimates) - true_value),
        seed=seed,
        estimates=estimates,
    )


def write_trials_csv(path, report: CrbValidationReport) -> None:
    from .textio import write_csv

    write_csv(
        path,
        ["trial", "seed", "estimate"],
        (
            (str(k), str(report.seed + k), float(report.estimates[k]))
            for k in range(report.n_trials)
        ),
        header_comments=[f"seed: {report.seed}"],
    )


# --- Detector-mean sensitivity ---------------------------------------------------


@dataclass(frozen=True)
class MeanSensitivityRow:
    """Detector mean and its derivatives at one scattered power."""

    alpha_s_sq: float
    detector_mean: float
    dmean_dm: float
    dmean_dpower: float


def _optimal_reference(
    cfg: FieldConfig, mag: float
) -> ReferenceArm:
    """Reference arm of the given magnitude closest to saturating mass
    estimation (exact when reachable, best effort otherwise)."""
    sol = tuner.saturating_reference_set(cfg, EstimationTarget.MASS)
    phases = sol.solutions_at(mag)
    if phases:
        return ReferenceArm(mag, phases[0])
    # line unreachable at this magnitude: point the arm at the projection
    rotated = sol.alpha_first * np.exp(-1j * sol.psi)
    closest = rotated.real * np.exp(1j * sol.psi) - sol.alpha_first
    return ReferenceArm(mag, math.atan2(closest.imag, closest.real))


def mean_sensitivity_scan(
    cfg_base: FieldConfig,
    scattered_power_grid,
    optimize_reference: bool,
) -> list[MeanSensitivityRow]:
    """Detector mean versus scattered power |alpha_s|^2.

    With ``optimize_reference`` the reference arm is re-tuned for mass
    estimation at every grid point (magnitude from the baseline arm, or
    |alpha_r| if absent); without it the baseline arms are kept as they
    are.  Both the mass derivative d(mean)/dm and the power derivative
    d(mean)/d|alpha_s|^2 are reported; the latter diverges at zero power
    when the interference term survives.
    """
    grid = np.asarray(scattered_power_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty scattered-power grid")
    p = cfg_base.particle
    s = p.scale_per_kda
    rows = []
    for power in grid:
        if power < 0:
            raise ValueError(f"negative scattered power {power!r}")
        mass = math.sqrt(power) / s
        cfg = replace(cfg_base, particle=replace(p, mass_kda=mass))
        if optimize_reference:
            mag = (
                cfg_base.reference.mag
                if cfg_base.reference is not None
                else abs(cfg_base.alpha_r)
            )
            cfg = replace(cfg, reference=_optimal_reference(cfg, mag))
        alpha_d = detector_amplitude(cfg)
        direction = complex(np.exp(1j * p.phi_s))
        mean = abs(alpha_d) ** 2
        dmean_dm = 2.0 * (alpha_d.conjugate() * s * direction).real
        # mean(P) = |A|^2 + 2*sqrt(P)*Re[conj(A)*e^(i*phi_s)] + P,
        # with A the mass-independent arms alpha_r + alpha_i
        other_arms = cfg.alpha_r + reference_amplitude(cfg)
        cross = (other_arms.conjugate() * direction).real
        if power > 0:
            dmean_dpower = cross / math.sqrt(power) + 1.0
        elif abs(cross) <= 1e-12 * abs(other_arms):
            dmean_dpower = 1.0  # interference term absent up to round-off
        else:
            dmean_dpower = math.copysign(math.inf, cross)
        rows.append(
            MeanSensitivityRow(float(power), mean, dmean_dm, dmean_dpower)
        )
    return rows


def write_sensitivity_csv(path, rows: list[MeanSensitivityRow]) -> None:
    from .textio import write_csv

    write_csv(
        path,
        ["alpha_s_sq", "detector_mean", "dmean_dm", "dmean_dpower"],
        (
            (r.alpha_s_sq, r.detector_mean, r.dmean_dm, r.dmean_dpower)
            for r in rows
        ),
    )


def sensitivity_to_json(rows: list[MeanSensitivityRow]) -> list[dict]:
    return [
        {
            "alpha_s_sq": r.alpha_s_sq,
            "detector_mean": r.detector_mean,
            "dmean_dm": r.dmean_dm,
            "dmean_dpower": r.dmean_dpower,
        }
        for r in rows
    ]
