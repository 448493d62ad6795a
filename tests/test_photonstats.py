import cmath
import dataclasses
import math
import os
import sys
import threading

import numpy as np
import pytest

from conftest import (
    EXTREME_FLOATS,
    quarter_ratio_mc_config,
    read_csv_columns,
    same_bits,
    saturated_mc_config,
)
from iscat_metrology import fisher, photonstats as ps, tuner
from iscat_metrology.errors import BracketError, EnergyBudgetError, NotEstimableError
from iscat_metrology.field import (
    EstimationTarget,
    FieldConfig,
    ParticleModel,
    ReferenceArm,
    detector_amplitude,
    first_arm_amplitude,
    reference_amplitude,
    with_target_value,
)
from iscat_metrology.textio import write_csv

PI = math.pi
MASS = EstimationTarget.MASS
PHASE = EstimationTarget.SCATTER_PHASE
SENSITIVITY_COLUMNS = ["alpha_s_sq", "detector_mean", "dmean_dm", "dmean_dpower"]


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
        assert np.all(ps.sample_counts(0.0, 100, 1) == 0)

    def test_determinism(self):
        a = ps.sample_counts(50.0, 1000, 12345)
        b = ps.sample_counts(50.0, 1000, 12345)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.int64 and a.shape == (1000,)

    def test_law_of_large_numbers(self):
        mean, length = 50.0, 10**5
        counts = ps.sample_counts(mean, length, 2718)
        tol = 5.0 * math.sqrt(mean / length)
        assert abs(counts.mean() - mean) < tol

    def test_dispersion_index_near_one(self):
        counts = ps.sample_counts(20.0, 10**5, 314159)
        index = counts.var(ddof=1) / counts.mean()
        assert abs(index - 1.0) < 5.0 * math.sqrt(2.0 / (10**5 - 1))


def saturated_config():
    return saturated_mc_config()


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo, hi, xatol):
    """Golden-section maximiser of a function unimodal on [lo, hi]."""
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


def oracle_mle(counts, cfg, target, xatol_rel=1e-10, points=2049):
    """Numerical MLE, independent of the closed form: the Poisson
    log-likelihood is evaluated through the field model on a fine grid over
    the default bracket, and its best cell refined by golden-section search.

    The log-likelihood is shifted by its value at lam = S/N and scaled by
    1/S, to log1p(x) - x with x = lam/(S/N) - 1, so its peak is resolved to
    round-off rather than to the ~1e-8 relative flatness of S*log(lam) - N*lam.
    """
    lo, hi = ps.default_bracket(cfg, target)
    level = counts.sum() / len(counts)

    def loglike(mu):
        trial = with_target_value(cfg, target, mu)
        lam = abs(first_arm_amplitude(trial) + reference_amplitude(trial)) ** 2
        x = lam / level - 1.0
        return math.log1p(x) - x

    grid = np.linspace(lo, hi, points)
    k = int(np.argmax([loglike(mu) for mu in grid]))
    xatol = xatol_rel * (hi - lo)
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, points - 1)]
    return _golden_max(loglike, a, b, xatol), xatol


def spurious_edge_config():
    """Phase-target config whose narrow interior likelihood peak a 65-point
    grid missed at seed 373 (it reported a bracket-edge maximum)."""
    return FieldConfig(
        alpha_r=-1.0159440439964649,
        particle=ParticleModel(
            90.49263834987944, 0.03181666977803612, 5.3622171814831425
        ),
        reference=ReferenceArm(2.682105602310639, 4.949209912513873),
        alpha0_mag=20.0,
    )


def vertex_inside_config():
    """Mass target with lam(m) = (s*(m - 20))^2: the vertex m = 20 lies in
    the bracket [1, 100], and the configured m = 10 has a mirror root near
    m = 30."""
    return FieldConfig(
        alpha_r=-10.0, particle=ParticleModel(10.0, 0.5, 0.0), alpha0_mag=20.0
    )


class TestMleEstimate:
    def test_noiseless_surrogate_recovers_truth(self):
        cfg = saturated_config()
        lam = abs(detector_amplitude(cfg)) ** 2
        n = 1000
        total = round(lam * n)
        base, extra = divmod(total, n)
        counts = np.full(n, base, dtype=np.int64)
        counts[:extra] += 1  # sample mean == round(lam*n)/n
        est = ps.mle_estimate(counts, cfg, MASS)
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
        counts = ps.sample_counts(lam, 10**4, 1)
        with pytest.raises(BracketError, match="bracket"):
            ps.mle_estimate(counts, cfg, MASS)


class TestClosedFormMle:
    @pytest.mark.parametrize(
        "make_cfg, target",
        [
            (saturated_mc_config, MASS),
            (quarter_ratio_mc_config, MASS),
            (quarter_ratio_mc_config, PHASE),
            (spurious_edge_config, PHASE),
        ],
        ids=["saturated-mass", "quarter-mass", "quarter-phase", "spurious-phase"],
    )
    def test_agrees_with_golden_section_oracle(self, make_cfg, target):
        cfg = make_cfg()
        lam = abs(detector_amplitude(cfg)) ** 2
        bracket = ps.default_bracket(cfg, target)
        checked = 0
        for seed in range(12):
            counts = ps.sample_counts(lam, 1000, 7000 + seed)
            level = counts.sum() / len(counts)
            if len(ps.mle_candidates(level, cfg, target, bracket)) != 1:
                continue  # two equally likely roots: no unique maximum
            est = ps.mle_estimate(counts, cfg, target)
            reference, xatol = oracle_mle(counts, cfg, target)
            assert abs(est - reference) <= xatol
            # the estimate solves lam(estimate) = S/N to round-off
            trial = with_target_value(cfg, target, est)
            fitted = abs(detector_amplitude(trial)) ** 2
            assert fitted == pytest.approx(level, rel=1e-12)
            checked += 1
        assert checked >= 10

    def test_spurious_edge_case_finds_interior_peak(self):
        cfg = spurious_edge_config()
        lam = abs(detector_amplitude(cfg)) ** 2
        counts = ps.sample_counts(lam, 1000, 373)
        est = ps.mle_estimate(counts, cfg, PHASE)
        assert est == pytest.approx(5.34832, abs=1e-5)
        reference, xatol = oracle_mle(counts, cfg, PHASE)
        assert abs(est - reference) <= xatol

    def test_two_roots_return_nearest_and_count_as_ambiguous(self):
        cfg = vertex_inside_config()
        lam = abs(detector_amplitude(cfg)) ** 2
        counts = ps.sample_counts(lam, 1000, 11)
        level = counts.sum() / len(counts)
        found = ps.mle_candidates(level, cfg, MASS, ps.default_bracket(cfg, MASS))
        assert len(found) == 2
        assert found[0] == pytest.approx(20.0 - 2.0 * math.sqrt(level), rel=1e-12)
        assert found[1] == pytest.approx(20.0 + 2.0 * math.sqrt(level), rel=1e-12)
        assert ps.mle_estimate(counts, cfg, MASS) == found[0]
        report = ps.crb_validation(
            cfg, MASS, samples_per_trial=1000, n_trials=50, seed=11
        )
        assert report.ambiguous_trials == 50
        assert report.estimates[0] == found[0]
        assert np.all(report.estimates < 20.0)
        assert report.to_dict()["ambiguous_trials"] == 50

    def test_out_of_reach_mean_gives_the_vertex(self):
        # a mean count below the vertex value of lam: the likelihood peaks
        # where lam is smallest
        cfg = FieldConfig(
            alpha_r=-10.0, particle=ParticleModel(10.0, 0.5, 0.3),
            alpha0_mag=20.0,
        )
        (vertex,) = ps.mle_candidates(0.0, cfg, MASS, (1.0, 100.0))
        assert vertex == pytest.approx(20.0 * math.cos(0.3), rel=1e-12)

    def test_zero_mass_bracket_not_estimable(self):
        cfg = FieldConfig(
            alpha_r=2.3, particle=ParticleModel(0.0, 0.1, 1.0), alpha0_mag=10.0
        )
        with pytest.raises(BracketError, match="mass 0"):
            ps.default_bracket(cfg, MASS)
        with pytest.raises(BracketError, match="mass 0"):
            ps.crb_validation(cfg, MASS, samples_per_trial=10, n_trials=10, seed=0)


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

    def test_negative_seed_rejected_before_sampling(self, mc_saturated_cfg, monkeypatch):
        sampled = []
        monkeypatch.setattr(ps, "sample_counts", lambda *args: sampled.append(args))
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            ps.crb_validation(mc_saturated_cfg, MASS, 10, n_trials=4, seed=-1)
        assert sampled == []

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

    def test_worker_count_clamps_to_cores_and_trials(self, monkeypatch):
        assert 1 <= ps.available_cores() <= (os.cpu_count() or 1)
        monkeypatch.setattr(ps, "available_cores", lambda: 4)
        assert ps.worker_count(None, 1000) == 4
        assert ps.worker_count(10**9, 1000) == 4  # never more threads than cores
        assert ps.worker_count(3, 1000) == 3
        assert ps.worker_count(None, 2) == 2
        assert ps.worker_count(1, 1000) == 1
        for threads in (0, -5):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                ps.worker_count(threads, 1000)

    def test_worker_failure_is_raised_not_swallowed(self, mc_quarter_cfg, monkeypatch):
        monkeypatch.setattr(ps, "available_cores", lambda: 3)
        sample_counts = ps.sample_counts
        raised_on = []

        def failing(mean, length, seed):
            # trial 3 in the second chunk, trials 5 and 6 in the third
            if seed in (43, 45, 46):
                raised_on.append(threading.get_ident())
                raise RuntimeError(f"injected failure at seed {seed}")
            return sample_counts(mean, length, seed)

        monkeypatch.setattr(ps, "sample_counts", failing)
        # the failure a single thread would meet first
        with pytest.raises(RuntimeError, match="at seed 43$"):
            ps.crb_validation(mc_quarter_cfg, MASS, 30, n_trials=7, seed=40)
        assert len(raised_on) == 2 and threading.get_ident() not in raised_on

    def test_fit_failure_is_the_first_trial_in_order(self, monkeypatch):
        # iSCAT at a quarter phase: most trials' maxima sit on a bracket edge
        cfg = FieldConfig(
            alpha_r=2.3, particle=ParticleModel(1.0, 2.0 / 66.0, PI / 2),
            alpha0_mag=10.0,
        )
        lam = abs(detector_amplitude(cfg)) ** 2
        messages = []
        for k in range(50):  # the serial reference: fit trial after trial
            try:
                ps.mle_estimate(ps.sample_counts(lam, 100, 10 + k), cfg, MASS)
            except BracketError as exc:
                messages.append((k, str(exc)))
        assert messages[0][0] == 1 and len(messages) > 10
        monkeypatch.setattr(ps, "available_cores", lambda: 3)
        for threads in (1, 3):
            with pytest.raises(BracketError) as exc:
                ps.crb_validation(cfg, MASS, 100, n_trials=50, seed=10, threads=threads)
            assert str(exc.value) == messages[0][1]

    def test_stress_more_workers_than_cores(self, mc_quarter_cfg, monkeypatch):
        kwargs = dict(samples_per_trial=20, n_trials=240, seed=9)
        serial = ps.crb_validation(mc_quarter_cfg, PHASE, threads=1, **kwargs)
        monkeypatch.setattr(ps, "available_cores", lambda: 12)
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=lambda: reports.append(
                    ps.crb_validation(mc_quarter_cfg, PHASE, threads=12, **kwargs)
                )
            )
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert reports[0].estimates.tobytes() == serial.estimates.tobytes()
        assert reports[0].to_dict() == serial.to_dict()

    def test_score_identity_at_truth(self, mc_saturated_cfg):
        lam = abs(detector_amplitude(mc_saturated_cfg)) ** 2
        d_lam = 2.0 * math.sqrt(lam) * mc_saturated_cfg.particle.scale_per_kda
        n = 1000
        scores = []
        for k in range(300):
            counts = ps.sample_counts(lam, n, 4000 + k)
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
        scan = ps.mean_sensitivity_scan(cfg, [0.0], optimize_reference=False)
        expected = abs(2.3 + ReferenceArm(1.0, 1.2).amplitude()) ** 2
        assert scan["detector_mean"][0] == pytest.approx(expected)

    def test_iscat_quarter_phase_mean_flat_at_first_order(self):
        cfg = FieldConfig(
            alpha_r=2.3, particle=ParticleModel(1.0, 0.05, PI / 2), alpha0_mag=10.0
        )
        powers = [0.0, 0.5, 1.0, 2.0]
        scan = ps.mean_sensitivity_scan(cfg, powers, optimize_reference=False)
        for mean, dpower, p in zip(scan["detector_mean"], scan["dmean_dpower"], powers):
            assert mean == pytest.approx(2.3**2 + p, rel=1e-12)
            assert dpower == pytest.approx(1.0, abs=1e-12)

    def test_optimized_derivative_matches_alignment_value(self):
        cfg = FieldConfig(
            alpha_r=2.3, particle=ParticleModel(1.0, 0.05, PI / 2), alpha0_mag=10.0
        )
        scan = ps.mean_sensitivity_scan(
            cfg, [0.5, 1.0, 2.0], optimize_reference=True
        )
        s = cfg.particle.scale_per_kda
        for mean, dmean_dm in zip(scan["detector_mean"], scan["dmean_dm"]):
            assert abs(dmean_dm) == pytest.approx(2.0 * math.sqrt(mean) * s, rel=1e-9)

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

        def visibility(scan):
            mean = scan["detector_mean"]
            return abs(mean[-1] - mean[0]) / math.sqrt(mean[-1])

        assert visibility(tuned) > 10.0 * visibility(flat)

    def test_empty_grid_rejected(self):
        cfg = FieldConfig(alpha_r=0.1, particle=ParticleModel(1.0, 0.1, 0.0))
        with pytest.raises(ValueError):
            ps.mean_sensitivity_scan(cfg, [], optimize_reference=False)

    @pytest.mark.parametrize("power", [-1.0, math.nan, math.inf])
    def test_bad_power_rejected(self, power):
        cfg = FieldConfig(alpha_r=0.1, particle=ParticleModel(1.0, 0.1, 0.0))
        with pytest.raises(ValueError, match=f"scattered power .*{power!r}"):
            ps.mean_sensitivity_scan(cfg, [0.1, power], optimize_reference=False)

    @pytest.mark.parametrize("optimize", [False, True])
    def test_over_budget_grid_raises(self, optimize):
        # only the last point puts |alpha_r + alpha_s| = 0.9 over alpha0/2
        cfg = FieldConfig(alpha_r=0.4, particle=ParticleModel(1.0, 0.1, 0.0))
        with pytest.raises(EnergyBudgetError, match="sample arm"):
            ps.mean_sensitivity_scan(cfg, [0.0, 0.01, 0.25], optimize)

    def test_vacuum_root_takes_other_phase(self, monkeypatch):
        # phi_s = pi: the arm |alpha_i| = |alpha_r| = 0.3 saturates at
        # phi_i = 0 (A = 0.6) or pi (A = 0); the lower phase is taken unless
        # alpha_d = A - sqrt(P) is vacuum there, at P = 0.36
        cfg = FieldConfig(
            alpha_r=0.3, particle=ParticleModel(1.0, 0.1, PI), alpha0_mag=10.0
        )
        calls = []
        solve = tuner.saturating_reference_set
        monkeypatch.setattr(
            tuner, "saturating_reference_set",
            lambda *args: calls.append(args) or solve(*args),
        )
        scan = ps.mean_sensitivity_scan(cfg, [0.0, 0.36, 1.0], True)
        assert len(calls) == 1
        assert scan["detector_mean"] == pytest.approx([0.36, 0.36, 0.16], rel=1e-12)
        assert scan["dmean_dm"] == pytest.approx([-0.12, 0.12, 0.08], rel=1e-12)

    @staticmethod
    def _per_point_rows(cfg, grid, optimize):
        """The scan one power at a time through the scalar field and tuner
        functions: the tuned arm takes the lowest saturating phase, or
        points at the foot of the perpendicular when none is reachable."""
        s, direction = cfg.particle.scale_per_kda, cmath.exp(1j * cfg.particle.phi_s)
        rows = []
        for power in grid:
            point = with_target_value(cfg, MASS, math.sqrt(power) / s)
            if optimize:
                mag = cfg.reference.mag if cfg.reference else abs(cfg.alpha_r)
                sol = tuner.saturating_reference_set(point, MASS)
                phases = sol.solutions_at(mag)
                if not phases:
                    a = (sol.alpha_first * cmath.exp(-1j * sol.psi)).real
                    foot = a * cmath.exp(1j * sol.psi) - sol.alpha_first
                    phases = [cmath.phase(foot)]
                point = dataclasses.replace(point, reference=ReferenceArm(mag, phases[0]))
            alpha_d = detector_amplitude(point)
            arms = point.alpha_r + reference_amplitude(point)
            rows.append((
                abs(alpha_d) ** 2,
                2.0 * s * (alpha_d.conjugate() * direction).real,
                (arms.conjugate() * direction).real / math.sqrt(power) + 1.0,
            ))
        return rows

    @pytest.mark.parametrize("optimize", [False, True])
    def test_matches_per_point_reference(self, optimize):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(17)
        for _ in range(40):
            ref = ReferenceArm(rng.uniform(0, 5), rng.uniform(0, 2 * PI))
            cfg = FieldConfig(
                alpha_r=cmath.rect(rng.uniform(0, 3), rng.uniform(0, 2 * PI)),
                particle=ParticleModel(1.0, rng.uniform(0.01, 1), rng.uniform(0, 2 * PI)),
                reference=ref if rng.random() < 0.5 else None,
                alpha0_mag=10.0,
            )
            grid = np.sort(rng.uniform(0, 4, 25))
            scan = ps.mean_sensitivity_scan(cfg, grid, optimize)
            assert list(scan) == SENSITIVITY_COLUMNS
            assert all(col.dtype == np.float64 for col in scan.values())
            assert scan["alpha_s_sq"].tobytes() == grid.tobytes()
            expected = self._per_point_rows(cfg, grid, optimize)
            # Round-off is relative to the arms, not to the detector field.
            # A tuned phase near tangency (|alpha_i| near the distance b of
            # the line) is ill-conditioned by mag/sqrt(|mag^2 - b^2|).
            mag = cfg.reference.mag if cfg.reference else abs(cfg.alpha_r)
            b = (cfg.alpha_r * cmath.exp(-1j * cfg.particle.phi_s)).imag
            cond = 1.0 + mag / math.sqrt(abs(mag * mag - b * b)) if optimize else 1.0
            for k, (mean, dmean_dm, dmean_dpower) in enumerate(expected):
                row = {name: col[k] for name, col in scan.items()}
                arms = abs(cfg.alpha_r) + mag + math.sqrt(row["alpha_s_sq"])
                unit = 8.0 * eps * cond * arms
                assert abs(row["detector_mean"] - mean) <= unit * arms
                s = cfg.particle.scale_per_kda
                assert abs(row["dmean_dm"] - dmean_dm) <= unit * s
                err = abs(row["dmean_dpower"] - dmean_dpower)
                assert err * math.sqrt(row["alpha_s_sq"]) <= unit


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
        # seeds past 2**64 - 1 stay exact; estimates read back bit for bit
        top = 2**64 - 1
        big = dataclasses.replace(
            report, n_trials=3, seed=top, estimates=np.array(EXTREME_FLOATS)
        )
        ps.write_trials_csv(path, big)
        cols = read_csv_columns(path)
        assert cols["trial"] == ["0", "1", "2"]
        assert cols["seed"] == [str(top), str(top + 1), str(top + 2)]
        assert same_bits(cols["estimate"], EXTREME_FLOATS)

    def test_sensitivity_csv(self, tmp_path):
        cfg = FieldConfig(alpha_r=1.0, particle=ParticleModel(1.0, 0.1, 0.3),
                          alpha0_mag=10.0)
        scan = ps.mean_sensitivity_scan(cfg, [0.0, 1.0], optimize_reference=False)
        path = tmp_path / "scan.csv"
        write_csv(path, scan)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(SENSITIVITY_COLUMNS)
        assert len(lines) == 3
        cols = read_csv_columns(path)
        for name in SENSITIVITY_COLUMNS:
            assert same_bits(cols[name], scan[name])
        extremes = dict(zip(SENSITIVITY_COLUMNS, [*EXTREME_FLOATS, -math.inf]))
        write_csv(path, {name: np.array([x]) for name, x in extremes.items()})
        cells = [column[0] for column in read_csv_columns(path).values()]
        assert same_bits(cells, [*EXTREME_FLOATS, -math.inf])
