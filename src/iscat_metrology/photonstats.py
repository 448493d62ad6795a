"""Photon-counting statistics: Poisson model, seeded sampling, maximum
likelihood, and Monte Carlo validation of the Cramer-Rao bound.

Counting a coherent field gives i.i.d. Poisson draws with mean
lam(mu) = |alpha_d(mu)|^2, so the log-likelihood of counts n_1..n_N is

    ll(mu) = S*log(lam(mu)) - N*lam(mu) + const,   S = sum(n_i).

It is largest where lam(mu) = S/N, so the MLE inverts the counting mean in
closed form (:func:`mle_candidates`: roots of a quadratic in mass, of a
cosine in phase); of two roots inside the search bracket, equally likely,
the one nearest the configured value is taken.  The MLE variance across trials is compared
against 1/(N*F) with F the counting CFI.  Sampling uses numpy's PCG64
generator with explicit 64-bit seeds, and trial k draws from its own stream
seeded with seed + k, so a trial's counts do not depend on earlier trials.
The validation splits its trials into contiguous chunks, each sampled and
fitted trial by trial on a thread of a standard pool (numpy's Poisson
sampler runs without the GIL).  The chunks are read back in trial order, so
the chunking cannot change a result or a count, and the error raised is
that of the first failing trial, as in a serial run.
"""

from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import fisher
from .field import (
    TAU,
    VACUUM_TOL,
    EstimationTarget,
    FieldConfig,
    check_budget,
    detector_amplitude,
    magnitude,
    reference_amplitude,
    target_derivative,
    target_value,
    with_target_value,
)
from .textio import write_csv


#: Largest mean numpy's Poisson sampler accepts (its own bound on lam).
POISSON_LAM_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)

#: Most Poisson draws (trials x samples per trial) one validation makes, a
#: hundred times the 1000 x 1000 default.  Checked before any sampling.
MAX_DRAWS = 10**8


def available_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one, else the machine's core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


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


def sample_counts(mean: float, length: int, seed: int) -> np.ndarray:
    """i.i.d. Poisson draws from a PCG64 stream with the given seed."""
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    return np.random.Generator(np.random.PCG64(seed)).poisson(mean, size=length)


# --- Maximum likelihood -------------------------------------------------------


def default_bracket(
    cfg: FieldConfig, target: EstimationTarget
) -> tuple[float, float]:
    """Search window around the configured value mu: [mu/10, 10*mu] for the
    mass (NotEstimableError at mass 0, where it is empty), mu +- pi/2 for
    phase."""
    mu = target_value(cfg, target)
    if target is EstimationTarget.MASS:
        if mu == 0.0:
            raise fisher.NotEstimableError("mass 0: the mass search bracket is empty")
        return 0.1 * mu, 10.0 * mu
    return mu - 0.5 * math.pi, mu + 0.5 * math.pi


def mle_candidates(
    mean_count: float,
    cfg: FieldConfig,
    target: EstimationTarget,
    bracket: tuple[float, float],
) -> list[float]:
    """Closed-form maximizers of the likelihood inside ``bracket``.

    They solve lam(mu) = ``mean_count``.  In mass, lam = |A + m*d|^2 with
    A = alpha_r + alpha_i and d = s*e^(i*phi_s) is a quadratic; in phase,
    lam = |A|^2 + c^2 + 2|A|c*cos(phi - arg A) with c = m*s, and the roots
    are shifted by multiples of 2*pi into the bracket.  Out of reach, the
    maximizer is the mass vertex or the phase extremum.  Values within 1e-6
    of the bracket width of an edge do not count (NotEstimableError if none
    is left); the rest come nearest the configured value first.
    """
    lo, hi = bracket
    base = cfg.alpha_r + reference_amplitude(cfg)
    p = cfg.particle
    if target is EstimationTarget.MASS:
        d = target_derivative(cfg, target)
        b, dd = fisher.real_projection(base, d), p.scale_per_kda**2
        gap = abs(base) ** 2 - mean_count
        disc = b * b - dd * gap
        # q has no cancellation between b and sqrt(disc)
        q = -(b + math.copysign(math.sqrt(max(disc, 0.0)), b))
        roots = [q / dd, gap / q] if disc > 0.0 else [-b / dd]
    else:
        c = p.mass_kda * p.scale_per_kda
        if abs(base) * c == 0.0:
            raise fisher.NotEstimableError("the counting mean does not depend on phi_s")
        cosine = (mean_count - abs(base) ** 2 - c * c) / (2.0 * abs(base) * c)
        delta = math.acos(max(-1.0, min(1.0, cosine)))
        arg = math.atan2(base.imag, base.real)
        roots = [arg - delta, arg + delta] if 0.0 < delta < math.pi else [arg + delta]
        roots = [
            r + k * TAU
            for r in roots
            for k in range(math.ceil((lo - r) / TAU), math.floor((hi - r) / TAU) + 1)
        ]
    edge = 1e-6 * (hi - lo)
    inside = [r for r in roots if lo + edge < r < hi - edge]
    if not inside:
        raise fisher.NotEstimableError(
            "likelihood maximum at the bracket edge; parameter not identifiable."
            f" bracket=[{lo!r}, {hi!r}], mean count={mean_count!r}"
        )
    mu = target_value(cfg, target)
    return sorted(inside, key=lambda r: abs(r - mu))


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
    ambiguous_trials: int
    seed: int
    estimates: np.ndarray

    def to_dict(self) -> dict:
        """Scalar fields in declaration order (``estimates`` left out)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        del out["estimates"]
        return {**out, "target": self.target.value}


def crb_validation(
    cfg: FieldConfig,
    target: EstimationTarget,
    samples_per_trial: int,
    n_trials: int,
    seed: int,
    threads: int | None = None,
) -> CrbValidationReport:
    """Repeatedly sample counts, fit the MLE, and compare var against CRB.

    Trial k uses the derived seed ``seed + k`` and is fitted to the root of
    :func:`mle_candidates` nearest the configured value, inside
    :func:`default_bracket`; ``ambiguous_trials`` counts the trials with two
    roots inside the bracket.  The trials run in contiguous chunks on
    ``threads`` threads (default: every available core), clamped to the
    available cores and to the trials; the result does not depend on how
    many, and the first failing trial in trial order is the one raised.
    Non-estimable configurations, a mass target at zero mass, a detector
    mean above :data:`POISSON_LAM_MAX`, more than :data:`MAX_DRAWS` draws
    in all, a negative seed and ``threads`` below 1 raise before any
    sampling.
    """
    if samples_per_trial < 2:
        raise ValueError(f"need at least 2 samples per trial, got {samples_per_trial}")
    if n_trials < 2:
        raise ValueError(f"need at least 2 trials, got {n_trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n_trials * samples_per_trial > MAX_DRAWS:
        raise ValueError(
            f"trials x samples = {n_trials} x {samples_per_trial} exceeds "
            f"the cap of {MAX_DRAWS} Poisson draws"
        )
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    report = fisher.fisher_report(cfg, target)  # raises if not estimable
    if not (report.cfi_photon_number > 0.0):
        raise fisher.NotEstimableError("counting CFI is zero; the bound is infinite")
    try:
        lam = abs(detector_amplitude(cfg)) ** 2
    except OverflowError:
        raise ValueError("detector mean |alpha_d|^2 overflows a double") from None
    if lam > POISSON_LAM_MAX:
        raise ValueError(
            f"detector mean |alpha_d|^2 = {lam!r} exceeds numpy's Poisson limit"
        )
    true_value = target_value(cfg, target)
    bracket = default_bracket(cfg, target)

    cores = available_cores()
    workers = min(cores if threads is None else threads, cores, n_trials)
    estimates = np.empty(n_trials)

    def fit_chunk(w: int) -> int:
        """Sample and fit chunk ``w``'s trials; return how many were ambiguous."""
        ambiguous = 0
        for k in range(n_trials * w // workers, n_trials * (w + 1) // workers):
            total = float(sample_counts(lam, samples_per_trial, seed + k).sum())
            found = mle_candidates(total / samples_per_trial, cfg, target, bracket)
            estimates[k] = found[0]
            ambiguous += len(found) > 1
        return ambiguous

    # map reads the chunks in order, so the earliest chunk's failure is raised;
    # leaving the block joins every thread
    with ThreadPoolExecutor(workers) as pool:
        ambiguous = sum(pool.map(fit_chunk, range(workers)))
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
        ambiguous_trials=ambiguous,
        seed=seed,
        estimates=estimates,
    )


def write_trials_csv(path, report: CrbValidationReport) -> None:
    write_csv(
        path,
        {
            "trial": range(report.n_trials),
            "seed": range(report.seed, report.seed + report.n_trials),
            "estimate": report.estimates,
        },
        comments=[f"seed: {report.seed}"],
    )


# --- Detector-mean sensitivity ---------------------------------------------------


def mean_sensitivity_scan(
    cfg_base: FieldConfig,
    scattered_power_grid,
    optimize_reference: bool,
) -> dict[str, np.ndarray]:
    """Detector mean versus scattered power |alpha_s|^2, as float columns
    ``alpha_s_sq`` (the grid), ``detector_mean``, ``dmean_dm`` and
    ``dmean_dpower``.

    With ``optimize_reference`` the reference arm is re-tuned for mass
    estimation at every grid point (magnitude from the baseline arm, or
    |alpha_r| if absent); without it the baseline arms are kept as they
    are.  Both the mass derivative d(mean)/dm and the power derivative
    d(mean)/d|alpha_s|^2 are reported; the latter diverges at zero power
    when the interference term survives.  The photon budget is checked over
    the whole grid.
    """
    grid = np.asarray(scattered_power_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty scattered-power grid")
    bad = grid[~(np.isfinite(grid) & (grid >= 0))]
    if bad.size:
        raise ValueError(f"scattered power must be finite and >= 0, got {bad[0]}")
    p, ref = cfg_base.particle, cfg_base.reference
    s = p.scale_per_kda
    root = np.sqrt(grid)
    direction = cmath.rect(1.0, p.phi_s)
    alpha_s = root * direction
    first_mag = magnitude(cfg_base.alpha_r + alpha_s)
    check_budget(first_mag, cfg_base.arm.mag, cfg_base.alpha0_mag)
    arm = reference_amplitude(cfg_base)
    if optimize_reference:
        from . import tuner  # here only, so `montecarlo` never loads it

        # dalpha points along exp(i*phi_s) at every power, so all points share
        # the first one's saturating line and phases; a power moves alpha_d =
        # t*exp(i*psi) along it.  The lower phase is taken unless t = 0 there.
        mag = ref.mag if ref else abs(cfg_base.alpha_r)
        cfg0 = with_target_value(cfg_base, EstimationTarget.MASS, root[0] / s)
        sol = tuner.saturating_reference_set(cfg0, EstimationTarget.MASS)
        points = sol.line_points(mag)
        (low, t_low), (high, _) = points[0], points[-1]
        vacuum = np.abs(t_low + root - root[0]) <= VACUUM_TOL * cfg_base.alpha0_mag
        arm = np.where(vacuum, cmath.rect(mag, high), cmath.rect(mag, low))
    # mean(P) = |A|^2 + 2*sqrt(P)*Re[conj(A)*e^(i*phi_s)] + P,
    # with A the mass-independent arms alpha_r + alpha_i
    other_arms = cfg_base.alpha_r + arm
    alpha_d = other_arms + alpha_s
    mean = magnitude(alpha_d) ** 2
    dmean_dm = 2.0 * s * fisher.real_projection(alpha_d, direction)
    cross = fisher.real_projection(other_arms, direction)
    # at zero power: 1 if the interference term is absent up to round-off
    absent = np.abs(cross) <= 1e-12 * magnitude(other_arms)
    at_zero = np.where(absent, 1.0, np.copysign(math.inf, cross))
    with np.errstate(divide="ignore", invalid="ignore"):
        dmean_dpower = np.where(grid > 0, cross / root + 1.0, at_zero)
    return {
        "alpha_s_sq": grid,
        "detector_mean": mean,
        "dmean_dm": dmean_dm,
        "dmean_dpower": dmean_dpower,
    }
