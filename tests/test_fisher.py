import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import EXTREME_FLOATS, same_bits
from iscat_metrology import fisher
from iscat_metrology.errors import (
    NotEstimableError,
    TruncationError,
    VacuumPhaseError,
)
from iscat_metrology.field import (
    EstimationTarget,
    FieldConfig,
    ParticleModel,
    ReferenceArm,
    detector_amplitude,
)

PI = math.pi


class TestQfiCoherent:
    def test_zero_derivative(self):
        assert fisher.qfi_coherent(0j) == 0.0

    def test_mass_target_value(self):
        assert fisher.qfi_coherent(0.22 + 0j) == pytest.approx(0.1936)

    def test_phase_target_value(self):
        # derivative magnitude m*s = 14.52, so 4 * 14.52**2 = 4 * n_s
        assert fisher.qfi_coherent(14.52j) == pytest.approx(843.3, abs=0.1)

    def test_overflow_raises_no_warning(self):
        # an overflowing config is reported by the finite-value check alone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qfi, cfi, *_ = fisher.information(1e300 + 0j, 1e300 + 0j)
        assert qfi == cfi == math.inf


class TestMismatchAngles:
    def test_orthogonal_pair(self):
        psi, chi = fisher.mismatch_angles(1 + 0j, 1j)
        assert (psi, chi) == (PI / 2, 0.0)

    def test_fig2_angles(self):
        alpha_d = (0.5679491924311223 + 1.0j) * 1e-5
        psi, chi = fisher.mismatch_angles(alpha_d, cmath.exp(1j * 5 * PI / 6))
        assert chi == pytest.approx(math.atan2(1.0, 0.568), abs=1e-3)
        assert psi == pytest.approx(5 * PI / 6)

    def test_vacuum_raises(self):
        with pytest.raises(VacuumPhaseError):
            fisher.mismatch_angles(0j, 1 + 0j)
        with pytest.raises(VacuumPhaseError):
            fisher.mismatch_angles(1 + 0j, 0j)


class TestQfiPhaseAveraged:
    def test_aligned_saturates(self):
        assert fisher.qfi_phase_averaged(2 + 0j, 0.5 + 0j) == pytest.approx(1.0)

    def test_orthogonal_vanishes(self):
        assert fisher.qfi_phase_averaged(1 + 0j, 1j) == 0.0

    def test_diagonal_case(self):
        assert fisher.qfi_phase_averaged(1 + 1j, 1 + 0j) == pytest.approx(2.0)

    def test_cfi_same_formula_path(self):
        args = (0.3 - 0.7j, 1.1 + 0.2j)
        assert fisher.cfi_photon_number(*args) == fisher.qfi_phase_averaged(*args)


class TestCfiLimits:
    def test_large_reflected_field_limit(self):
        # alpha_r >> |alpha_s| drives chi -> 0, so the ratio -> cos^2(phi_s)
        cfg = FieldConfig(
            alpha_r=1e-3,
            particle=ParticleModel(1.0, 1e-8, 2 * PI / 3),
        )
        rep = fisher.fisher_report(cfg, EstimationTarget.MASS)
        ratio = rep.cfi_photon_number / rep.qfi_coherent
        assert ratio == pytest.approx(0.25, abs=1e-4)

    def test_dark_field_saturates_exactly(self):
        cfg = FieldConfig(alpha_r=0j, particle=ParticleModel(1.0, 2e-5, 1.1))
        rep = fisher.fisher_report(cfg, EstimationTarget.MASS)
        assert rep.saturation_ratio == 1.0
        assert rep.cfi_photon_number == rep.qfi_coherent


class TestPoissonPmf:
    """The Fock weights of both oracles, checked against scipy."""

    @pytest.mark.parametrize("mean", [0.0, 1e-6, 0.5, 1.0, 7.3, 100.0, 1e4])
    def test_matches_scipy(self, mean):
        from scipy import stats

        n = np.arange(fisher.min_truncation(mean) + 1)
        ours = fisher.poisson_pmf(mean, n)
        assert np.max(np.abs(ours - stats.poisson.pmf(n, mean))) <= 1e-11

    def test_truncation_rule_bounds_tail(self):
        from scipy import stats

        for mean in np.logspace(-12, 12, 241):
            n_max = fisher.min_truncation(mean)
            assert stats.poisson.sf(n_max, mean) <= 1e-12

    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(ValueError, match="mean must be"):
            fisher.poisson_pmf(mean, 0)


class TestSldDiagonal:
    def test_level_at_mean_vanishes(self):
        spec = fisher.sld_diagonal(2 + 0j, 1 + 0j, 100)
        assert spec.diagonal[4] == 0.0  # n = |alpha|^2 = 4

    def test_orthogonal_derivative_zeroes_spectrum(self):
        spec = fisher.sld_diagonal(3 + 0j, 1j, 200)
        assert np.all(spec.diagonal == 0.0)

    def test_ground_level_value(self):
        spec = fisher.sld_diagonal(2 + 0j, 1 + 0j, 100)
        assert spec.diagonal[0] == pytest.approx(-4.0)

    def test_zero_mean_under_state(self):
        alpha, dalpha = 1.3 - 0.4j, 0.7 + 0.2j
        n_max = fisher.min_truncation(abs(alpha) ** 2)
        spec = fisher.sld_diagonal(alpha, dalpha, n_max)
        from scipy import stats

        weights = stats.poisson.pmf(np.arange(n_max + 1), abs(alpha) ** 2)
        assert abs(np.sum(weights * spec.diagonal)) < 1e-9

    def test_small_truncation_rejected(self):
        with pytest.raises(TruncationError):
            fisher.sld_diagonal(3 + 0j, 1 + 0j, 10)


class TestPhaseAveragedOracle:
    def test_diagonal_case_matches(self):
        oracle = fisher.qfi_phase_averaged_oracle(1 + 1j, 1 + 0j, 200)
        assert oracle == pytest.approx(2.0, rel=1e-9)

    def test_zero_derivative(self):
        assert fisher.qfi_phase_averaged_oracle(1 + 1j, 0j, 200) == 0.0

    def test_orthogonal_phases(self):
        assert abs(fisher.qfi_phase_averaged_oracle(3 + 0j, 1j, 200)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        mag=st.floats(0.1, 7.0),
        theta=st.floats(0.0, 2 * PI, exclude_max=True),
        dmag=st.floats(0.01, 3.0),
        dtheta=st.floats(0.0, 2 * PI, exclude_max=True),
    )
    # |rect(5, 0.045)|^2 rounds to 25.00000000000001, whose rule is 101
    @example(mag=5.0, theta=0.045, dmag=1.0, dtheta=0.0)
    def test_matches_analytic(self, mag, theta, dmag, dtheta):
        alpha = cmath.rect(mag, theta)
        dalpha = cmath.rect(dmag, dtheta)
        analytic = fisher.qfi_phase_averaged(alpha, dalpha)
        oracle = fisher.qfi_phase_averaged_oracle(
            alpha, dalpha, fisher.min_truncation(abs(alpha) ** 2)
        )
        assert oracle == pytest.approx(analytic, rel=1e-9, abs=1e-15)


class TestCfiNumericOracle:
    def test_saturated_matches_qfi(self):
        cfg = FieldConfig(
            alpha_r=0j, particle=ParticleModel(10.0, 0.3, 0.7), alpha0_mag=10.0
        )
        oracle = fisher.cfi_numeric_oracle(cfg, EstimationTarget.MASS)
        assert oracle == pytest.approx(4 * 0.3**2, rel=1e-6)

    def test_orthogonal_configuration_near_zero(self):
        # dark field, phase target: the counting mean is phase-independent
        cfg = FieldConfig(
            alpha_r=0j, particle=ParticleModel(10.0, 0.3, 0.7), alpha0_mag=10.0
        )
        oracle = fisher.cfi_numeric_oracle(cfg, EstimationTarget.SCATTER_PHASE)
        assert abs(oracle) < 1e-10

    def test_iscat_large_reflected_ratio(self):
        cfg = FieldConfig(
            alpha_r=1e-3, particle=ParticleModel(1.0, 1e-8, 2 * PI / 3)
        )
        oracle = fisher.cfi_numeric_oracle(cfg, EstimationTarget.MASS, step=0.5)
        qfi = fisher.qfi_coherent(
            cmath.rect(1e-8, 2 * PI / 3)
        )
        assert oracle / qfi == pytest.approx(0.25, abs=1e-4)

    def test_bad_step_rejected(self):
        cfg = FieldConfig(alpha_r=0j, particle=ParticleModel(1.0, 0.3, 0.0))
        with pytest.raises(ValueError):
            fisher.cfi_numeric_oracle(cfg, EstimationTarget.MASS, step=0.0)


class TestBounds:
    def test_qcrb_simple(self):
        assert fisher.qcrb(4.0, 1) == 0.5

    def test_qcrb_mass_example(self):
        assert fisher.qcrb(0.1936) == pytest.approx(2.273, abs=1e-3)

    def test_qcrb_rejects_nonpositive(self):
        with pytest.raises(NotEstimableError):
            fisher.qcrb(0.0)
        with pytest.raises(ValueError):
            fisher.qcrb(1.0, repetitions=0)

    def test_relative_bound_worked_example(self):
        rel = fisher.relative_mass_bound(220.0)
        assert rel == pytest.approx(0.03371, abs=5e-6)
        assert 66.0 * rel == pytest.approx(2.2249, abs=1e-4)

    def test_relative_bound_small_numbers(self):
        assert fisher.relative_mass_bound(4.0) == 0.25

    def test_relative_bound_with_mismatch(self):
        assert fisher.relative_mass_bound(220.0, 0.25) == pytest.approx(
            0.06742, abs=5e-6
        )

    def test_relative_bound_errors(self):
        with pytest.raises(NotEstimableError):
            fisher.relative_mass_bound(220.0, 0.0)
        with pytest.raises(ValueError):
            fisher.relative_mass_bound(0.0)


def random_config(rng) -> FieldConfig:
    mag_r = rng.uniform(0, 3.0)
    ms = rng.uniform(0.05, 2.0)
    m = rng.uniform(0.5, 50.0)
    reference = None
    if rng.random() < 0.5:
        reference = ReferenceArm(rng.uniform(0, 3.0), rng.uniform(0, 2 * PI))
    return FieldConfig(
        alpha_r=cmath.rect(mag_r, rng.uniform(0, 2 * PI)),
        particle=ParticleModel(m, ms / m, rng.uniform(0, 2 * PI)),
        reference=reference,
        alpha0_mag=10.0,
    )


class TestReportInvariants:
    def test_report_consistency_randomized(self):
        rng = np.random.default_rng(123)
        seen = 0
        while seen < 300:
            cfg = random_config(rng)
            if abs(detector_amplitude(cfg)) < 0.05:
                continue
            for target in EstimationTarget:
                rep = fisher.fisher_report(cfg, target)
                assert rep.cfi_photon_number == rep.qfi_phase_averaged
                assert 0.0 <= rep.saturation_ratio <= 1.0
                assert rep.cfi_photon_number <= rep.qfi_coherent * (1 + 1e-12)
                assert rep.saturation_ratio == pytest.approx(
                    rep.cfi_photon_number / rep.qfi_coherent, rel=1e-9, abs=1e-12
                )
                c = math.cos(rep.psi - rep.chi)
                assert rep.saturation_ratio == c * c
            seen += 1

    def test_qfi_coherent_ignores_other_arms(self):
        rng = np.random.default_rng(7)
        particle = ParticleModel(4.0, 0.11, 1.9)
        values = set()
        for _ in range(50):
            cfg = FieldConfig(
                alpha_r=cmath.rect(rng.uniform(0, 3), rng.uniform(0, 2 * PI)),
                particle=particle,
                reference=ReferenceArm(rng.uniform(0, 3), rng.uniform(0, 2 * PI)),
                alpha0_mag=10.0,
            )
            if abs(detector_amplitude(cfg)) < 1e-6:
                continue
            values.add(fisher.fisher_report(cfg, EstimationTarget.MASS).qfi_coherent)
        assert len(values) == 1  # bit-for-bit identical

    def test_mass_qfi_independent_of_mass_and_phase(self):
        rng = np.random.default_rng(11)
        s = 0.22

        def qfi(m, phi):
            return fisher.fisher_report(
                FieldConfig(
                    alpha_r=0.5,
                    particle=ParticleModel(m, s, phi),
                    alpha0_mag=20.0,
                ),
                EstimationTarget.MASS,
            ).qfi_coherent

        # bit-identical across masses (the derivative never sees m)
        assert len({qfi(rng.uniform(0.1, 20), 1.234) for _ in range(25)}) == 1
        # constant across phi_s up to the rounding of the unit rotation
        for _ in range(25):
            assert qfi(5.0, rng.uniform(0, 2 * PI)) == pytest.approx(
                4 * s * s, rel=1e-14
            )

    @settings(max_examples=80, deadline=None)
    @given(
        theta=st.floats(0.0, 2 * PI, exclude_max=True),
        a_re=st.floats(-3.0, 3.0),
        a_im=st.floats(-3.0, 3.0),
        d_re=st.floats(-2.0, 2.0),
        d_im=st.floats(-2.0, 2.0),
    )
    def test_global_phase_invariance(self, theta, a_re, a_im, d_re, d_im):
        alpha_d = complex(a_re, a_im)
        dalpha = complex(d_re, d_im)
        if abs(alpha_d) < 1e-3 or abs(dalpha) < 1e-3:
            return
        rot = cmath.exp(1j * theta)
        before = fisher.cfi_photon_number(alpha_d, dalpha)
        after = fisher.cfi_photon_number(alpha_d * rot, dalpha * rot)
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)

    def test_vacuum_report_raises(self, fig2_cfg):
        from conftest import vacuum_config

        with pytest.raises(VacuumPhaseError):
            fisher.fisher_report(vacuum_config(), EstimationTarget.MASS)

    def test_zero_derivative_report_raises(self):
        cfg = FieldConfig(alpha_r=0.1, particle=ParticleModel(0.0, 1.0, 0.0))
        with pytest.raises(NotEstimableError):
            fisher.fisher_report(cfg, EstimationTarget.SCATTER_PHASE)


class TestReportCsv:
    def test_columns_and_values(self, tmp_path, fig2_cfg):
        rep = fisher.fisher_report(fig2_cfg, EstimationTarget.MASS)
        path = tmp_path / "report.csv"
        fisher.write_report_csv(path, fig2_cfg, EstimationTarget.MASS, rep)
        header, row = path.read_text().strip().split("\n")
        assert header == fisher.REPORT_CSV_COLUMNS
        cells = row.split(",")
        assert cells[0] == "mass"
        assert cells[6] == "" and cells[7] == ""  # no reference arm
        assert float(cells[12]) == rep.saturation_ratio
        # extreme values in every numeric column read back bit for bit
        lo, tiny, top = EXTREME_FLOATS
        cfg = FieldConfig(
            alpha_r=complex(lo, tiny),
            particle=ParticleModel(tiny, top, lo),
            reference=ReferenceArm(lo, tiny),
            alpha0_mag=top,
        )
        extreme = fisher.FisherReport(lo, top, lo, tiny, top)
        fisher.write_report_csv(path, cfg, EstimationTarget.MASS, extreme)
        cells = path.read_text().strip().split("\n")[1].split(",")
        expected = [lo, tiny, tiny, top, lo, lo, tiny, lo, top, lo, tiny, top]
        assert same_bits(cells[1:], expected)
