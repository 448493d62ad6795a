"""The two independent oracles of ``oracles``: their Poisson weights, the
Fock-basis SLD sum and the finite-difference counting CFI, each checked
against closed forms, scipy, and the package's own kernel."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import quarter_ratio_mc_config, saturated_mc_config
from iscat_metrology import fisher, photonstats
from iscat_metrology.field import (
    EstimationTarget,
    FieldConfig,
    ParticleModel,
    ReferenceArm,
    first_arm_amplitude,
    reference_amplitude,
)
from oracles import (
    TruncationError,
    cfi_numeric_oracle,
    exact_estimator_moments,
    min_truncation,
    poisson_pmf,
    qfi_phase_averaged_oracle,
    sld_diagonal,
    total_count_law,
)

PI = math.pi


class TestPoissonPmf:
    """The Fock weights of both oracles, checked against closed forms and
    scipy."""

    def test_analytic_point(self):
        assert poisson_pmf(1.0, 0) == pytest.approx(math.exp(-1.0))

    def test_zero_mean(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

    def test_mode_at_mean_100(self):
        n = np.arange(0, 300)
        pmf = poisson_pmf(100.0, n)
        top = set(np.argsort(pmf)[-2:])
        assert top == {99, 100}  # both are modes, pmf(99) == pmf(100)
        assert pmf[99] == pytest.approx(pmf[100], rel=1e-12)

    def test_normalization(self):
        for mean in (0.5, 7.0, 100.0, 500.0):
            n_max = min_truncation(mean)
            total = poisson_pmf(mean, np.arange(n_max + 1)).sum()
            assert 1.0 - 1e-12 <= total <= 1.0 + 1e-13
        # at mean 1e4 the log-space route loses ~1e-11 to gammaln rounding
        n_max = min_truncation(1e4)
        total = poisson_pmf(1e4, np.arange(n_max + 1)).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_pmf(-1.0, 0)

    @pytest.mark.parametrize("mean", [0.0, 1e-6, 0.5, 1.0, 7.3, 100.0, 1e4])
    def test_matches_scipy(self, mean):
        from scipy import stats

        n = np.arange(min_truncation(mean) + 1)
        ours = poisson_pmf(mean, n)
        assert np.max(np.abs(ours - stats.poisson.pmf(n, mean))) <= 1e-11

    def test_truncation_rule_bounds_tail(self):
        from scipy import stats

        for mean in np.logspace(-12, 12, 241):
            n_max = min_truncation(mean)
            assert stats.poisson.sf(n_max, mean) <= 1e-12

    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, mean):
        with pytest.raises(ValueError, match="mean must be"):
            poisson_pmf(mean, 0)


class TestSldDiagonal:
    def test_level_at_mean_vanishes(self):
        diagonal = sld_diagonal(2 + 0j, 1 + 0j, 100)
        assert diagonal[4] == 0.0  # n = |alpha|^2 = 4

    def test_orthogonal_derivative_zeroes_spectrum(self):
        diagonal = sld_diagonal(3 + 0j, 1j, 200)
        assert np.all(diagonal == 0.0)

    def test_ground_level_value(self):
        diagonal = sld_diagonal(2 + 0j, 1 + 0j, 100)
        assert diagonal[0] == pytest.approx(-4.0)

    def test_zero_mean_under_state(self):
        alpha, dalpha = 1.3 - 0.4j, 0.7 + 0.2j
        n_max = min_truncation(abs(alpha) ** 2)
        diagonal = sld_diagonal(alpha, dalpha, n_max)
        from scipy import stats

        weights = stats.poisson.pmf(np.arange(n_max + 1), abs(alpha) ** 2)
        assert abs(np.sum(weights * diagonal)) < 1e-9

    def test_small_truncation_rejected(self):
        with pytest.raises(TruncationError):
            sld_diagonal(3 + 0j, 1 + 0j, 10)


class TestPhaseAveragedOracle:
    def test_diagonal_case_matches(self):
        oracle = qfi_phase_averaged_oracle(1 + 1j, 1 + 0j, 200)
        assert oracle == pytest.approx(2.0, rel=1e-9)

    def test_zero_derivative(self):
        assert qfi_phase_averaged_oracle(1 + 1j, 0j, 200) == 0.0

    def test_orthogonal_phases(self):
        assert abs(qfi_phase_averaged_oracle(3 + 0j, 1j, 200)) < 1e-9

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
        analytic = float(fisher.information(alpha, dalpha).cfi_photon_number)
        oracle = qfi_phase_averaged_oracle(
            alpha, dalpha, min_truncation(abs(alpha) ** 2)
        )
        assert oracle == pytest.approx(analytic, rel=1e-9, abs=1e-15)


class TestCfiNumericOracle:
    def test_saturated_matches_qfi(self):
        cfg = FieldConfig(
            alpha_r=0j, particle=ParticleModel(10.0, 0.3, 0.7), alpha0_mag=10.0
        )
        oracle = cfi_numeric_oracle(cfg, EstimationTarget.MASS)
        assert oracle == pytest.approx(4 * 0.3**2, rel=1e-6)

    def test_orthogonal_configuration_near_zero(self):
        # dark field, phase target: the counting mean is phase-independent
        cfg = FieldConfig(
            alpha_r=0j, particle=ParticleModel(10.0, 0.3, 0.7), alpha0_mag=10.0
        )
        oracle = cfi_numeric_oracle(cfg, EstimationTarget.SCATTER_PHASE)
        assert abs(oracle) < 1e-10

    def test_iscat_large_reflected_ratio(self):
        cfg = FieldConfig(
            alpha_r=1e-3, particle=ParticleModel(1.0, 1e-8, 2 * PI / 3)
        )
        oracle = cfi_numeric_oracle(cfg, EstimationTarget.MASS, step=0.5)
        qfi = fisher.qfi_coherent(
            cmath.rect(1e-8, 2 * PI / 3)
        )
        assert oracle / qfi == pytest.approx(0.25, abs=1e-4)

    def test_bad_step_rejected(self):
        cfg = FieldConfig(alpha_r=0j, particle=ParticleModel(1.0, 0.3, 0.0))
        with pytest.raises(ValueError):
            cfi_numeric_oracle(cfg, EstimationTarget.MASS, step=0.0)

    @pytest.mark.parametrize("target", list(EstimationTarget), ids=lambda t: t.value)
    def test_disagrees_with_a_faulty_detector_amplitude(self, monkeypatch, target):
        # a kernel that conjugates the reference arm must not pass: the
        # oracle builds its means without the package's detector amplitude
        cfg = FieldConfig(
            alpha_r=0.3 + 0.1j,
            particle=ParticleModel(10.0, 0.05, 1.0),
            reference=ReferenceArm(0.4, 2.0),
            alpha0_mag=10.0,
        )
        oracle = cfi_numeric_oracle(cfg, target)
        sound = fisher.fisher_report(cfg, target).cfi_photon_number
        assert abs(oracle - sound) <= 1e-6 * sound
        monkeypatch.setattr(
            fisher,
            "detector_amplitude",
            lambda c: first_arm_amplitude(c) + reference_amplitude(c).conjugate(),
        )
        faulty = fisher.fisher_report(cfg, target).cfi_photon_number
        assert abs(cfi_numeric_oracle(cfg, target) - faulty) > 0.1 * faulty


MC_CASES = [
    (saturated_mc_config, EstimationTarget.MASS),
    (quarter_ratio_mc_config, EstimationTarget.MASS),
    (quarter_ratio_mc_config, EstimationTarget.SCATTER_PHASE),
]
MC_IDS = ["saturated-mass", "quarter-mass", "quarter-phase"]


def counting_crb(cfg, target, samples):
    return 1.0 / (samples * fisher.fisher_report(cfg, target).cfi_photon_number)


class TestExactEstimatorLaw:
    """Criterion 7 without sampling: the Monte Carlo estimator's exact mean
    and variance at N = 1000 counts per trial."""

    @pytest.mark.parametrize("make_cfg, target", MC_CASES, ids=MC_IDS)
    def test_counting_reaches_the_bound(self, make_cfg, target):
        cfg = make_cfg()
        _, variance = exact_estimator_moments(cfg, target, 1000)
        assert abs(variance / counting_crb(cfg, target, 1000) - 1.0) <= 1e-3

    @pytest.mark.parametrize("make_cfg, target", MC_CASES, ids=MC_IDS)
    def test_package_fit_has_the_exact_law(self, make_cfg, target):
        cfg = make_cfg()
        totals, weights = total_count_law(cfg, 1000)
        bracket = photonstats.default_bracket(cfg, target)
        estimates = np.array([
            photonstats.mle_candidates(s / 1000, cfg, target, bracket)[0]
            for s in totals
        ])
        mean = np.sum(weights * estimates) / np.sum(weights)
        variance = np.sum(weights * (estimates - mean) ** 2) / np.sum(weights)
        exact_mean, exact_variance = exact_estimator_moments(cfg, target, 1000)
        assert mean == pytest.approx(exact_mean, rel=1e-9)
        assert variance == pytest.approx(exact_variance, rel=1e-9)

    @pytest.mark.parametrize(
        "make_cfg, seed",
        [(saturated_mc_config, 42), (quarter_ratio_mc_config, 500042)],
        ids=["saturated", "quarter"],
    )
    def test_criterion_7_runs_lie_within_4_se(self, make_cfg, seed):
        cfg, target = make_cfg(), EstimationTarget.MASS
        report = photonstats.crb_validation(
            cfg, target, samples_per_trial=1000, n_trials=1000, seed=seed
        )
        mean, variance = exact_estimator_moments(cfg, target, 1000)
        ratio = variance / report.crb
        se = report.ratio_standard_error
        assert abs(report.ratio_var_over_crb - ratio) <= 4.0 * se
        bias_se = math.sqrt(variance / report.n_trials)
        assert abs(report.bias - (mean - report.true_value)) <= 4.0 * bias_se
