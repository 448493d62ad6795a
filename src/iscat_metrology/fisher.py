"""Fisher information and Cramer-Rao bounds for single-mode coherent fields.

Three information quantities are computed for a detector label ``alpha_d``
and a target derivative ``dalpha = d(alpha_s)/d(mu)``:

* coherent-state QFI          F_q  = 4*|dalpha|**2
* phase-averaged-state QFI    F_pa = 4*Re[(conj(alpha_d)/|alpha_d|)*dalpha]**2
* photon-counting CFI         F_pn = F_pa

F_pa is not computed apart: :class:`FisherReport` holds F_pn, and its
``to_dict`` writes that value under the ``qfi_phase_averaged`` key too.

With psi = arg(dalpha) and chi = arg(alpha_d) the ratio F_pn/F_q equals
cos^2(psi - chi): photon counting is quantum-optimal exactly when the
detector phase is aligned with the derivative phase (mod pi).

One array kernel, :func:`information`, evaluates them for the report below,
the ratio scans of ``tuner`` and the broadband integrals of ``spectrum``.
Its result type is :class:`FisherReport`: arrays on a grid, and floats for
one configuration (:func:`fisher_report`).  The angles psi and chi come from
``field.phase``, the one rule for reported angles, which ``tuner`` also
uses, so a report and the saturating reference set agree on psi exactly.

Two independent oracles back the closed forms, in ``tests/oracles.py``: a
truncated Fock-basis sum over the diagonal logarithmic-derivative spectrum,
and a central finite-difference evaluation of sum_n (dP/dmu)^2 / P for the
Poisson counting distribution.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .field import (
    VACUUM_TOL,
    EstimationTarget,
    FieldConfig,
    detector_amplitude,
    magnitude,
    phase,
    target_derivative,
)
from .textio import write_csv


class NotEstimableError(ValueError):
    """The configuration carries no information about the requested
    parameter: a vacuum detector field, a vanishing target derivative, zero
    information, or a fit at the bracket edge.  The CLI exits 3 on it and 2
    on any other ValueError."""


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

    def to_dict(self) -> dict:
        return {
            "qfi_coherent": self.qfi_coherent,
            "qfi_phase_averaged": self.cfi_photon_number,  # F_pa = F_pn
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
    either; F_q, psi and chi are computed on their input's shape.
    """
    ad = np.asarray(alpha_d, dtype=complex)
    dal = np.asarray(dalpha, dtype=complex)
    mag = magnitude(ad)
    vacuum = mag <= vacuum_tol
    with np.errstate(all="ignore"):  # overflow is the callers' to report
        proj = real_projection(ad, dal) / mag
        cfi = np.where(vacuum, np.nan, 4.0 * proj * proj)
        qfi = qfi_coherent(dal)
    psi = np.where(dal == 0, np.nan, phase(dal))
    chi = np.where(vacuum, np.nan, phase(ad))
    c = np.cos(psi - chi)
    qfi, psi, chi = (np.broadcast_to(v, cfi.shape) for v in (qfi, psi, chi))
    return FisherReport(qfi, cfi, psi, chi, c * c)


def estimable_derivative(cfg: FieldConfig, target: EstimationTarget) -> complex:
    """``field.target_derivative``, or NotEstimableError where it vanishes
    (e.g. scattering-phase target at zero mass)."""
    dalpha = target_derivative(cfg, target)
    if dalpha == 0:
        raise NotEstimableError(
            "target derivative vanishes; the parameter leaves no imprint"
        )
    return dalpha


def fisher_report(cfg: FieldConfig, target: EstimationTarget) -> FisherReport:
    """Evaluate all Fisher quantities for a validated configuration, as floats.

    Raises NotEstimableError for a vacuum detector field (|alpha_d| below
    VACUUM_TOL * alpha0_mag) or a vanishing target derivative
    (:func:`estimable_derivative`), and ValueError naming the quantity when
    F_q or F_pn is not finite (the inputs overflow doubles).
    """
    alpha_d = detector_amplitude(cfg)
    dalpha = estimable_derivative(cfg, target)
    values = information(alpha_d, dalpha, VACUUM_TOL * cfg.alpha0_mag)
    report = FisherReport._make(float(v) for v in values)
    if math.isnan(report.chi):
        raise NotEstimableError(
            "detector field is vacuum; chi = arg(alpha_d) and the counting "
            "CFI are undefined"
        )
    for name in ("qfi_coherent", "cfi_photon_number"):
        value = getattr(report, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} = {value!r} is not finite")
    return report


# --- Cramer-Rao bounds --------------------------------------------------------


def qcrb(fisher_value: float) -> float:
    """Cramer-Rao lower bound 1/sqrt(fisher_value) of one measurement."""
    if not (fisher_value > 0.0):
        raise NotEstimableError(
            f"Fisher information {fisher_value!r} admits no finite bound"
        )
    return 1.0 / math.sqrt(fisher_value)


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
