import math

import numpy as np
import pytest

from iscat_metrology import fisher, photonstats as ps
from iscat_metrology.errors import BracketError, NotEstimableError
from iscat_metrology.field import (
    EstimationTarget,
    FieldConfig,
    ParticleModel,
    ReferenceArm,
    detector_amplitude,
)

PI = math.pi
MASS = EstimationTarget.MASS
PHASE = EstimationTarget.SCATTER_PHASE


class TestPoissonPmf:
    def test_analytic_point(self):
        assert ps.poisson_pmf(1.0, 0) == pytest.approx(math.exp(-1.0))

    def test_zero_mean(self):
        assert ps.poisson_pmf(0.0, 0) == 1.0
        assert ps.poisson_pmf(0.0, 3) == 0.0

    def test_mode_at_mean_100(self):
        n = np.arange(0, 300)
        pmf = ps.poisson_pmf(100.0, n)
        top = set(np.argsort(pmf)[-2:])
        assert top == {99, 100}  # both are modes, pmf(99) == pmf(100)
        assert pmf[99] == pytest.approx(pmf[100], rel=1e-12)

    def test_normalization(self):
        for mean in (0.5, 7.0, 100.0, 500.0):
            n_max = fisher.min_truncation(mean)
            total = ps.poisson_pmf(mean, np.arange(n_max + 1)).sum()
            assert 1.0 - 1e-12 <= total <= 1.0 + 1e-13
        # at mean 1e4 the log-space route loses ~1e-11 to gammaln rounding
        n_max = fisher.min_truncation(1e4)
        total = ps.poisson_pmf(1e4, np.arange(n_max + 1)).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            ps.poisson_pmf(-1.0, 0)


class TestGaussianApprox:
    def test_peak_value(self):
        mean = 100.0
        assert ps.gaussian_approx_pmf(mean, mean - 0.5) == pytest.approx(
            1.0 / (math.sqrt(mean) * math.sqrt(2 * PI))
        )

    def test_large_mean_accuracy(self):
        # the half-photon mean shift kills the linear error term; the cubic
        # term x^3/(6*mean^2) remains: ~0.2% within one sigma, ~4.6% at the
        # three-sigma edges (measured)
        mean = 1e4
        sigma = math.sqrt(mean)
        n = np.arange(int(mean - 3 * sigma), int(mean + 3 * sigma) + 1)
        rel = np.abs(ps.gaussian_approx_pmf(mean, n) / ps.poisson_pmf(mean, n) - 1)
        assert rel.max() < 0.05
        inner = np.abs(n - mean) <= sigma
        assert rel[inner].max() < 0.01

    def test_small_mean_is_poor(self):
        # documented: the approximation is invalid at mean ~ 1
        n = np.arange(0, 6)
        rel = np.abs(ps.gaussian_approx_pmf(1.0, n) / ps.poisson_pmf(1.0, n) - 1)
        assert rel.max() > 0.2

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(ValueError):
            ps.gaussian_approx_pmf(0.0, 0)


class TestSampling:
    def test_zero_mean_all_zero(self):
        assert np.all(ps.sample_counts(0.0, 100, 1).counts == 0)

    def test_determinism(self):
        a = ps.sample_counts(50.0, 1000, 12345)
        b = ps.sample_counts(50.0, 1000, 12345)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.seed == 12345 and a.mean_used == 50.0

    def test_law_of_large_numbers(self):
        mean, length = 50.0, 10**5
        sample = ps.sample_counts(mean, length, 2718)
        tol = 5.0 * math.sqrt(mean / length)
        assert abs(sample.counts.mean() - mean) < tol

    def test_dispersion_index_near_one(self):
        sample = ps.sample_counts(20.0, 10**5, 314159)
        index = sample.counts.var(ddof=1) / sample.counts.mean()
        assert abs(index - 1.0) < 5.0 * math.sqrt(2.0 / (10**5 - 1))


def saturated_config():
    from conftest import saturated_mc_config

    return saturated_mc_config()


class TestMleEstimate:
    def test_noiseless_surrogate_recovers_truth(self):
        cfg = saturated_config()
        lam = abs(detector_amplitude(cfg)) ** 2
        n = 1000
        total = round(lam * n)
        base, extra = divmod(total, n)
        counts = np.full(n, base, dtype=np.int64)
        counts[:extra] += 1  # sample mean == round(lam*n)/n
        sample = ps.CountSample(counts=counts, mean_used=lam, seed=0)
        est = ps.mle_estimate(sample, cfg, MASS)
        assert est == pytest.approx(66.0, abs=0.01)

    def test_monte_carlo_bias_small(self):
        cfg = saturated_config()
        lam = abs(detector_amplitude(cfg)) ** 2
        estimates = [
            ps.mle_estimate(ps.sample_counts(lam, 10**4, 600 + k), cfg, MASS)
            for k in range(200)
        ]
        bias = np.mean(estimates) - 66.0
        assert abs(bias) < 0.005 * 66.0

    def test_iscat_quarter_phase_not_identifiable(self):
        # counting mean alpha_r^2 + (m s)^2 is flat in m at first order, so a
        # typical draw pins the likelihood maximum to a bracket edge
        cfg = FieldConfig(
            alpha_r=2.3,
            particle=ParticleModel(1.0, 2.0 / 66.0, PI / 2),
            alpha0_mag=10.0,
        )
        rep = fisher.fisher_report(cfg, MASS)
        assert rep.saturation_ratio < 1e-3
        lam = abs(detector_amplitude(cfg)) ** 2
        sample = ps.sample_counts(lam, 10**4, 1)
        with pytest.raises(BracketError, match="bracket"):
            ps.mle_estimate(sample, cfg, MASS)

    def test_explicit_bracket_and_validation(self):
        cfg = saturated_config()
        lam = abs(detector_amplitude(cfg)) ** 2
        sample = ps.sample_counts(lam, 1000, 77)
        est = ps.mle_estimate(sample, cfg, MASS, search_bracket=(30.0, 120.0))
        assert est == pytest.approx(66.0, abs=3.0)
        with pytest.raises(ValueError):
            ps.mle_estimate(sample, cfg, MASS, search_bracket=(5.0, 5.0))


class TestCrbValidation:
    def test_saturated_ratio_near_one(self, mc_saturated_cfg):
        report = ps.crb_validation(
            mc_saturated_cfg, MASS, samples_per_trial=300, n_trials=300, seed=42
        )
        assert 0.8 < report.ratio_var_over_crb < 1.25
        assert report.crb == pytest.approx(
            1.0
            / (300 * fisher.fisher_report(mc_saturated_cfg, MASS).cfi_photon_number)
        )

    def test_quarter_ratio_quadruples_variance(self, mc_saturated_cfg, mc_quarter_cfg):
        kwargs = dict(samples_per_trial=400, n_trials=400)
        sat = ps.crb_validation(mc_saturated_cfg, MASS, seed=42, **kwargs)
        quarter = ps.crb_validation(mc_quarter_cfg, MASS, seed=542, **kwargs)
        assert quarter.empirical_variance / sat.empirical_variance == pytest.approx(
            4.0, rel=0.25
        )

    def test_zero_cfi_rejected(self):
        # dark field, phase target: counting carries no phase information
        cfg = FieldConfig(
            alpha_r=0j, particle=ParticleModel(10.0, 0.3, 0.7), alpha0_mag=10.0
        )
        with pytest.raises(NotEstimableError):
            ps.crb_validation(cfg, PHASE, samples_per_trial=100, n_trials=10, seed=0)

    def test_efficiency_approaches_bound_from_above(self):
        cfg = FieldConfig(
            alpha_r=0j, particle=ParticleModel(10.0, 0.3, 0.7), alpha0_mag=12.0
        )
        trials = 400
        ratios = []
        for samples in (100, 1000, 10000):
            report = ps.crb_validation(
                cfg, MASS, samples_per_trial=samples, n_trials=trials,
                seed=999000 + samples,
            )
            ratios.append(report.ratio_var_over_crb)
        se = math.sqrt(2.0 / (trials - 1))
        # efficiency cannot beat the bound beyond fluctuation
        assert all(r >= 1.0 - 5.0 * se for r in ratios)
        # and the excess shrinks (monotone within statistical error)
        for earlier, later in zip(ratios, ratios[1:]):
            assert later <= earlier + 3.0 * se * math.sqrt(2.0)
        assert ratios[-1] == pytest.approx(1.0, abs=5.0 * se)

    def test_score_identity_at_truth(self, mc_saturated_cfg):
        lam = abs(detector_amplitude(mc_saturated_cfg)) ** 2
        d_lam = 2.0 * math.sqrt(lam) * mc_saturated_cfg.particle.scale_per_kda
        n = 1000
        scores = []
        for k in range(300):
            counts = ps.sample_counts(lam, n, 4000 + k).counts
            scores.append(d_lam * (counts.sum() / lam - n))
        scores = np.asarray(scores)
        stderr = scores.std(ddof=1) / math.sqrt(len(scores))
        assert abs(scores.mean()) < 5.0 * stderr


class TestMeanSensitivityScan:
    def test_zero_power_row(self):
        cfg = FieldConfig(
            alpha_r=2.3,
            particle=ParticleModel(1.0, 0.1, PI / 3),
            reference=ReferenceArm(1.0, 1.2),
            alpha0_mag=10.0,
        )
        rows = ps.mean_sensitivity_scan(cfg, [0.0], optimize_reference=False)
        expected = abs(2.3 + ReferenceArm(1.0, 1.2).amplitude()) ** 2
        assert rows[0].detector_mean == pytest.approx(expected)

    def test_iscat_quarter_phase_mean_flat_at_first_order(self):
        cfg = FieldConfig(
            alpha_r=2.3, particle=ParticleModel(1.0, 0.05, PI / 2), alpha0_mag=10.0
        )
        powers = [0.0, 0.5, 1.0, 2.0]
        rows = ps.mean_sensitivity_scan(cfg, powers, optimize_reference=False)
        for row, p in zip(rows, powers):
            assert row.detector_mean == pytest.approx(2.3**2 + p, rel=1e-12)
            assert row.dmean_dpower == pytest.approx(1.0, abs=1e-12)

    def test_optimized_derivative_matches_alignment_value(self):
        cfg = FieldConfig(
            alpha_r=2.3, particle=ParticleModel(1.0, 0.05, PI / 2), alpha0_mag=10.0
        )
        rows = ps.mean_sensitivity_scan(
            cfg, [0.5, 1.0, 2.0], optimize_reference=True
        )
        s = cfg.particle.scale_per_kda
        for row in rows:
            alpha_d_mag = math.sqrt(row.detector_mean)
            assert abs(row.dmean_dm) == pytest.approx(2.0 * alpha_d_mag * s, rel=1e-9)

    def test_optimized_mean_moves_while_iscat_stays(self):
        # the tuned arm cancels the reflected field, so the mean tracks
        # |alpha_s|^2 against a shot noise of its own size; the one-arm mean
        # shifts by the same amount but under a sqrt(|alpha_r|^2) noise floor
        cfg = FieldConfig(
            alpha_r=2.3, particle=ParticleModel(1.0, 0.05, PI / 2), alpha0_mag=10.0
        )
        powers = np.linspace(0.0, 0.01, 9)
        tuned = ps.mean_sensitivity_scan(cfg, powers, optimize_reference=True)
        flat = ps.mean_sensitivity_scan(cfg, powers, optimize_reference=False)

        def visibility(rows):
            shift = abs(rows[-1].detector_mean - rows[0].detector_mean)
            return shift / math.sqrt(rows[-1].detector_mean)

        assert visibility(tuned) > 10.0 * visibility(flat)

    def test_empty_grid_rejected(self):
        cfg = FieldConfig(alpha_r=0.1, particle=ParticleModel(1.0, 0.1, 0.0))
        with pytest.raises(ValueError):
            ps.mean_sensitivity_scan(cfg, [], optimize_reference=False)


class TestCsvEmission:
    def test_trials_csv_has_seed_header(self, tmp_path, mc_saturated_cfg):
        report = ps.crb_validation(
            mc_saturated_cfg, MASS, samples_per_trial=50, n_trials=10, seed=7
        )
        path = tmp_path / "trials.csv"
        ps.write_trials_csv(path, report)
        text = path.read_text()
        assert text.startswith("# seed: 7\n")
        assert text.count("\n") == 12  # comment + header + 10 trials

    def test_sensitivity_csv(self, tmp_path):
        cfg = FieldConfig(alpha_r=1.0, particle=ParticleModel(1.0, 0.1, 0.3),
                          alpha0_mag=10.0)
        rows = ps.mean_sensitivity_scan(cfg, [0.0, 1.0], optimize_reference=False)
        path = tmp_path / "scan.csv"
        ps.write_sensitivity_csv(path, rows)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "alpha_s_sq,detector_mean,dmean_dm,dmean_dpower"
        assert len(lines) == 3
        summary = ps.sensitivity_to_json(rows)
        assert summary[1]["detector_mean"] == rows[1].detector_mean
