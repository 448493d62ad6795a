"""Fisher information and Cramer-Rao bounds for single-mode coherent fields.

Three information quantities are computed for a detector label ``alpha_d``
and a target derivative ``dalpha = d(alpha_s)/d(mu)``:

* coherent-state QFI          F_q  = 4*|dalpha|**2
* phase-averaged-state QFI    F_pa = 4*Re[(conj(alpha_d)/|alpha_d|)*dalpha]**2
* photon-counting CFI         F_pn = F_pa

With psi = arg(dalpha) and chi = arg(alpha_d) the ratio F_pn/F_q equals
cos^2(psi - chi): photon counting is quantum-optimal exactly when the
detector phase is aligned with the derivative phase (mod pi).

One array kernel, :func:`information`, evaluates them for the report below,
the ratio scans of ``tuner`` and the broadband integrals of ``spectrum``.
Its result type is :class:`FisherReport`: arrays on a grid, and floats for
one configuration (:func:`fisher_report`).  The angles psi and chi come from
``field.phase``, the one rule for reported angles, which ``tuner`` also
uses, so a report and the saturating reference set agree on psi exactly.

Two independent oracles back the closed forms: a truncated Fock-basis sum
over the diagonal logarithmic-derivative spectrum, and a central
finite-difference evaluation of sum_n (dP/dmu)^2 / P for the Poisson counting
distribution.  Both weight Fock levels with :func:`poisson_pmf` up to a
truncation no lower than :func:`min_truncation`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NotEstimableError, TruncationError, VacuumPhaseError
from .field import (
    VACUUM_TOL,
    EstimationTarget,
    FieldConfig,
    detector_amplitude,
    magnitude,
    phase,
    target_derivative,
    target_value,
    with_target_value,
)
from .textio import write_csv


def real_projection(a, b):
    """Re[conj(a)*b] from real parts: numpy's complex product rounds
    differently from Python's, and exact zeros must stay zero."""
    return a.real * b.real + a.imag * b.imag


def qfi_coherent(dalpha):
    """QFI of the pure coherent state: 4*|dalpha|^2 (scalar or array).

    Independent of the reflected and reference arms by construction.
    """
    return 4.0 * real_projection(dalpha, dalpha)


class FisherReport(NamedTuple):
    """The information quantities of :func:`information`: arrays of the
    broadcast shape on a grid, floats at one point."""

    qfi_coherent: float
    cfi_photon_number: float
    psi: float
    chi: float
    saturation_ratio: float
    #: equal to the counting CFI by construction
    qfi_phase_averaged = property(lambda self: self.cfi_photon_number)

    def to_dict(self) -> dict:
        return {
            "qfi_coherent": self.qfi_coherent,
            "qfi_phase_averaged": self.qfi_phase_averaged,
            "cfi_photon_number": self.cfi_photon_number,
            "psi": self.psi,
            "chi": self.chi,
            "saturation_ratio": self.saturation_ratio,
        }


def information(alpha_d, dalpha, vacuum_tol: float = 0.0) -> FisherReport:
    """Information quantities of broadcast detector labels and derivatives.

    Returns a :class:`FisherReport` of float arrays of the broadcast shape:
    F_q, F_pn (= F_pa), psi = arg(dalpha) and chi = arg(alpha_d) from
    :func:`field.phase`, and the ratio cos^2(psi - chi).  A value is NaN
    where it is undefined: cfi and chi where the detector field is vacuum
    (|alpha_d| <= vacuum_tol), psi where dalpha vanishes, and the ratio at
    either.
    """
    ad = np.asarray(alpha_d, dtype=complex)
    ad, dal = np.broadcast_arrays(ad, np.asarray(dalpha, dtype=complex))
    mag = magnitude(ad)
    vacuum = mag <= vacuum_tol
    with np.errstate(all="ignore"):  # overflow is the callers' to report
        proj = real_projection(ad, dal) / mag
        cfi = np.where(vacuum, np.nan, 4.0 * proj * proj)
        qfi = qfi_coherent(dal)
    psi = np.where(dal == 0, np.nan, phase(dal))
    chi = np.where(vacuum, np.nan, phase(ad))
    c = np.cos(psi - chi)
    return FisherReport(qfi, cfi, psi, chi, c * c)


def _single_information(alpha_d, dalpha, vacuum_tol: float = 0.0) -> FisherReport:
    """:func:`information` of one pair, as floats.

    Raises VacuumPhaseError at the vacuum (NaN chi), and ValueError naming
    the quantity when F_q or F_pn is not finite (the inputs overflow doubles).
    """
    report = FisherReport._make(
        float(v) for v in information(alpha_d, dalpha, vacuum_tol)
    )
    if math.isnan(report.chi):
        raise VacuumPhaseError(
            "detector field is vacuum; chi = arg(alpha_d) and the counting "
            "CFI are undefined"
        )
    for name in ("qfi_coherent", "cfi_photon_number"):
        value = getattr(report, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} = {value!r} is not finite")
    return report


def mismatch_angles(alpha_d: complex, dalpha: complex) -> tuple[float, float]:
    """Phases (psi, chi) of the derivative and of the detector field, in
    [0, 2*pi).

    Raises VacuumPhaseError when either amplitude vanishes (the vacuum has
    no defined phase).
    """
    report = _single_information(alpha_d, dalpha)
    if math.isnan(report.psi):
        raise VacuumPhaseError(
            "target derivative vanishes; psi = arg(dalpha) is undefined"
        )
    return report.psi, report.chi


def qfi_phase_averaged(alpha_d: complex, dalpha: complex) -> float:
    """QFI of the phase-averaged (Poisson-diagonal) state; the counting CFI.

    4*Re[(conj(alpha_d)/|alpha_d|)*dalpha]^2, undefined at the vacuum.
    """
    return _single_information(alpha_d, dalpha).cfi_photon_number


def fisher_report(cfg: FieldConfig, target: EstimationTarget) -> FisherReport:
    """Evaluate all Fisher quantities for a validated configuration.

    Raises VacuumPhaseError for a vacuum detector field (|alpha_d| below
    VACUUM_TOL * alpha0_mag) and NotEstimableError when the target derivative
    vanishes (e.g. scattering-phase target at zero mass).
    """
    alpha_d = detector_amplitude(cfg)
    dalpha = target_derivative(cfg, target)
    if dalpha == 0:
        raise NotEstimableError(
            "target derivative vanishes; the parameter leaves no imprint"
        )
    return _single_information(alpha_d, dalpha, VACUUM_TOL * cfg.alpha0_mag)


# --- Fock-truncated oracle ---------------------------------------------------


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
        raise VacuumPhaseError("SLD diagonal is undefined for the vacuum")
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


# --- Finite-difference CFI oracle --------------------------------------------


def cfi_numeric_oracle(
    cfg: FieldConfig,
    target: EstimationTarget,
    step: float = 1e-5,
    truncation_n: int | None = None,
) -> float:
    """CFI from the definition sum_n (dP(n|mu)/dmu)^2 / P(n|mu).

    The derivative is a central finite difference with the given step (in
    target units) and P is the Poisson counting distribution with mean
    |alpha_d(mu)|^2.  Step and truncation violations raise explicitly.
    """
    if step <= 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    mu0 = target_value(cfg, target)
    tol = VACUUM_TOL * cfg.alpha0_mag
    means = []
    for mu in (mu0 - step, mu0, mu0 + step):
        amp = detector_amplitude(with_target_value(cfg, target, mu))
        if abs(amp) <= tol:
            raise VacuumPhaseError(
                f"detector field is vacuum at target value {mu!r}; "
                "choose a different step"
            )
        means.append(abs(amp) ** 2)
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


# --- Cramer-Rao bounds --------------------------------------------------------


def qcrb(fisher_value: float) -> float:
    """Cramer-Rao lower bound 1/sqrt(fisher_value) of one measurement."""
    if not (fisher_value > 0.0):
        raise NotEstimableError(
            f"Fisher information {fisher_value!r} admits no finite bound"
        )
    return 1.0 / math.sqrt(fisher_value)


def relative_mass_bound(
    n_scattered: float, saturation: float = 1.0
) -> float:
    """Lower bound on delta_m/m: 1/(2*sqrt(n_scattered * saturation)).

    ``n_scattered`` is the mean scattered photon number |alpha_s|^2 and
    ``saturation`` the cos^2(psi-chi) ratio of the measurement in use.
    """
    if not (n_scattered > 0.0):
        raise ValueError(
            f"scattered photon number must be > 0, got {n_scattered}"
        )
    if saturation > 1.0 + 1e-12:
        raise ValueError(f"saturation ratio must be <= 1, got {saturation}")
    if not (saturation > 0.0):
        raise NotEstimableError(
            "zero saturation ratio: the mass cannot be estimated from "
            "photon counting in this configuration"
        )
    return 1.0 / (2.0 * math.sqrt(n_scattered * saturation))


# --- CSV emission -------------------------------------------------------------

REPORT_CSV_COLUMNS = (
    "target,alpha_r_re,alpha_r_im,mass_kda,scale_per_kda,phi_s,"
    "mag_i,phi_i,qfi_coherent,cfi,psi,chi,ratio"
)


def write_report_csv(
    path, cfg: FieldConfig, target: EstimationTarget, report: FisherReport
) -> None:
    """Write one config's report as a one-row CSV.

    ``mag_i`` and ``phi_i`` are blank without a reference arm (an absent
    arm, not a zero-magnitude one).
    """
    p, arm = cfg.particle, cfg.reference
    row = [
        target.value, cfg.alpha_r.real, cfg.alpha_r.imag,
        p.mass_kda, p.scale_per_kda, p.phi_s,
        "" if arm is None else arm.mag, "" if arm is None else arm.phi_i,
        report.qfi_coherent, report.cfi_photon_number, report.psi, report.chi,
        report.saturation_ratio,
    ]
    write_csv(path, {n: [c] for n, c in zip(REPORT_CSV_COLUMNS.split(","), row)})
