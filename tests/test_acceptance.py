"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them on success)."""

import cmath
import functools
import json
import math

import numpy as np
import pytest

from builders import flat_white_spectrum, relative_mass_bound
from conftest import (
    fig2_config,
    quarter_ratio_mc_config,
    saturated_mc_config,
    worked_example_config,
)
from iscat_metrology import fisher, photonstats, snr, spectrum, tuner
from iscat_metrology.cli import main
from iscat_metrology.field import (
    EstimationTarget,
    FieldConfig,
    ParticleModel,
    ReferenceArm,
    config_to_dict,
    detector_amplitude,
    first_arm_amplitude,
)
from iscat_metrology.textio import dump_json
from oracles import cfi_numeric_oracle, min_truncation, qfi_phase_averaged_oracle

PI = math.pi
MASS = EstimationTarget.MASS
PHASE = EstimationTarget.SCATTER_PHASE


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {description}")
                raise
            print(f"criterion {number:2d} PASS  {description}")

        return wrapper

    return decorate


def random_configs(seed, count, alpha0=10.0, min_detector=0.05):
    """Valid random configurations with detector photon number <= 100."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        mag_r = rng.uniform(0, 3.0)
        ms = rng.uniform(0.05, 2.0)
        m = rng.uniform(0.5, 50.0)
        reference = None
        if rng.random() < 0.5:
            reference = ReferenceArm(rng.uniform(0, 3.0), rng.uniform(0, 2 * PI))
        cfg = FieldConfig(
            alpha_r=cmath.rect(mag_r, rng.uniform(0, 2 * PI)),
            particle=ParticleModel(m, ms / m, rng.uniform(0, 2 * PI)),
            reference=reference,
            alpha0_mag=alpha0,
        )
        if abs(first_arm_amplitude(cfg)) > 0.5 * alpha0:
            continue
        if abs(detector_amplitude(cfg)) < min_detector:
            continue
        out.append(cfg)
    return out


@criterion(1, "worked-example mass bound 2.2249 kDa (0.5% of 2.22)")
def test_worked_example_bound():
    rel = relative_mass_bound(220.0, 1.0)
    delta_m = 66.0 * rel
    assert delta_m == pytest.approx(2.2249, abs=1e-4)
    assert abs(delta_m - 2.22) / 2.22 < 0.005


@criterion(2, "analytic CFI matches finite-difference Poisson oracle (1e-6 rel)")
def test_cfi_oracle_equivalence():
    configs = random_configs(seed=20260801, count=1000)
    rng = np.random.default_rng(1)
    for cfg in configs:
        assert abs(detector_amplitude(cfg)) ** 2 <= 100.0
        target = MASS if rng.random() < 0.5 else PHASE
        analytic = fisher.fisher_report(cfg, target).cfi_photon_number
        oracle = cfi_numeric_oracle(cfg, target, step=1e-5)
        assert abs(oracle - analytic) <= max(1e-6 * analytic, 1e-12)


@criterion(3, "phase-averaged QFI matches truncated SLD sum (1e-9 rel)")
def test_phase_averaged_oracle_equivalence():
    rng = np.random.default_rng(20260802)
    checked = 0
    while checked < 1000:
        alpha = cmath.rect(rng.uniform(0.1, math.sqrt(50.0)), rng.uniform(0, 2 * PI))
        dalpha = cmath.rect(rng.uniform(0.01, 3.0), rng.uniform(0, 2 * PI))
        if abs((alpha.conjugate() * dalpha).real) < 1e-6 * abs(alpha) * abs(dalpha):
            continue
        analytic = float(fisher.information(alpha, dalpha).cfi_photon_number)
        oracle = qfi_phase_averaged_oracle(
            alpha, dalpha, min_truncation(abs(alpha) ** 2)
        )
        assert abs(oracle - analytic) <= 1e-9 * analytic
        checked += 1


@criterion(4, "CFI <= QFI everywhere; equality exactly on tuned solutions")
def test_bound_ordering():
    rng = np.random.default_rng(3)
    for cfg in random_configs(seed=20260803, count=1000):
        target = MASS if rng.random() < 0.5 else PHASE
        rep = fisher.fisher_report(cfg, target)
        assert rep.cfi_photon_number <= rep.qfi_coherent * (1 + 1e-12)
    # equality on solutions returned by the tuner
    checked = 0
    while checked < 200:
        cfg = FieldConfig(
            alpha_r=cmath.rect(float(rng.uniform(0.01, 0.3)), float(rng.uniform(0, 2 * PI))),
            particle=ParticleModel(
                1.0, float(rng.uniform(1e-3, 0.15)), float(rng.uniform(0, 2 * PI))
            ),
        )
        if abs(first_arm_amplitude(cfg)) > 0.5:
            continue
        target = MASS if rng.random() < 0.5 else PHASE
        sol = tuner.saturating_reference_set(cfg, target)
        mag = sol.min_mag_i + float(rng.uniform(0.05, 0.9)) * (
            0.5 - sol.min_mag_i
        )
        for phi in sol.solutions_at(mag):
            tuned = FieldConfig(
                alpha_r=cfg.alpha_r,
                particle=cfg.particle,
                reference=ReferenceArm(mag, phi),
                alpha0_mag=cfg.alpha0_mag,
            )
            if abs(detector_amplitude(tuned)) < 1e-8 * cfg.alpha0_mag:
                continue  # phase round-off dominates next to the vacuum point
            rep = fisher.fisher_report(tuned, target)
            assert rep.saturation_ratio > 1.0 - 1e-9
            checked += 1


@criterion(5, "one-arm ratio asymptotes: 1 at alpha_r->0, cos^2(phi_s) at 1e-1 (1e-3)")
def test_fig2a_asymptotes():
    expected = {PI / 3: 0.25, 2 * PI / 3: 0.25, 5 * PI / 6: 0.75}
    base = fig2_config()
    for phi_s, cos2 in expected.items():
        cfg = FieldConfig(
            alpha_r=base.alpha_r,
            particle=ParticleModel(1.0, 2e-5, phi_s),
        )
        grid = tuner.scan_ratio_grid(
            cfg, MASS, tuner.AxisSpec.logspace("alpha_r_mag", 1e-8, 1e-1, 121)
        )
        assert grid.values[0, 0] == pytest.approx(1.0, abs=1e-3)
        assert grid.values[0, -1] == pytest.approx(cos2, abs=1e-3)


@criterion(6, "two-arm structure: threshold, two branches, vacuum cell undefined")
def test_fig2bcd_structure():
    base = fig2_config()  # phi_s = 5*pi/6 baseline
    sol = tuner.saturating_reference_set(base, MASS)
    assert sol.min_mag_i == pytest.approx(1.15e-5, abs=1e-8)

    # (b) |alpha_i| = 4.5e-5 saturates every scattering phase
    for phi_s in np.linspace(0.0, 2 * PI, 73):
        cfg = FieldConfig(alpha_r=base.alpha_r, particle=ParticleModel(1.0, 2e-5, phi_s))
        phases = tuner.saturating_reference_set(cfg, MASS).solutions_at(4.5e-5)
        assert phases
        for phi in phases:
            tuned = FieldConfig(
                alpha_r=cfg.alpha_r, particle=cfg.particle,
                reference=ReferenceArm(4.5e-5, phi),
            )
            assert fisher.fisher_report(tuned, MASS).saturation_ratio > 0.999

    # (c) below the threshold no reference phase reaches 0.999
    phi_grid = np.linspace(0.0, 2 * PI, 20001)
    first = first_arm_amplitude(base)
    for mag in (0.2e-5, 0.6e-5, 1.0e-5, 1.14e-5):
        assert sol.solutions_at(mag) == ()
        labels = first + mag * np.exp(1j * phi_grid)
        ratios = np.cos(sol.psi - np.angle(labels)) ** 2
        assert ratios.max() < 0.999

    # above it, exactly two branches
    for mag in (1.16e-5, 2e-5, 4.5e-5):
        assert len(sol.solutions_at(mag)) == 2

    # (d) the vacuum cell is flagged undefined
    grid = tuner.scan_ratio_grid(
        base,
        MASS,
        tuner.AxisSpec("mag_i", np.array([abs(first)])),
        tuner.AxisSpec("phi_i", np.array([cmath.phase(-first) % (2 * PI)])),
    )
    assert math.isnan(grid.values[0, 0])


@criterion(7, "Monte Carlo MLE variance vs CRB: ratio in [0.9, 1.15]; 4x at cos^2=1/4")
def test_monte_carlo_crb():
    sat = photonstats.crb_validation(
        saturated_mc_config(), MASS, samples_per_trial=1000, n_trials=1000, seed=42
    )
    assert 0.9 <= sat.ratio_var_over_crb <= 1.15
    quarter = photonstats.crb_validation(
        quarter_ratio_mc_config(), MASS, samples_per_trial=1000, n_trials=1000,
        seed=500042,
    )
    assert quarter.empirical_variance / sat.empirical_variance == pytest.approx(
        4.0, rel=0.15
    )


@criterion(8, "SNR scaling: slopes 2 vs 1 (0.01); tuned arm never loses on a 100x100 grid")
def test_snr_scaling_and_dominance():
    phi_s = np.logspace(-4, -2, 80)
    triple = snr.RealFieldTriple(1.0, 1e-3, 1.0, 0.0, PI / 2)
    sweep = snr.phase_snr_sweep(triple, phi_s)
    slope_one = np.polyfit(np.log(phi_s), np.log(sweep["snr_iscat"]), 1)[0]
    slope_two = np.polyfit(np.log(phi_s), np.log(sweep["snr_miscat"]), 1)[0]
    assert slope_one == pytest.approx(2.0, abs=0.01)
    assert slope_two == pytest.approx(1.0, abs=0.01)

    phi_i = np.linspace(0.0, 2 * PI, 721)
    amplitudes = np.logspace(-4, -1, 100)
    for phi in np.linspace(0.0, 2 * PI, 100, endpoint=False):
        swept = snr.RealFieldTriple(
            1.0, amplitudes[:, None], 1.0, phi, phi_i[None, :]
        )
        best = np.max(snr.snr_mass_miscat(swept), axis=1)
        one_arm = snr.snr_mass_iscat(
            snr.RealFieldTriple(1.0, amplitudes, 0.0, phi)
        )
        assert np.all(best >= one_arm - 1e-12)


@criterion(9, "broadband: same bound as single mode (1e-10); averaged <= coherent")
def test_multifrequency_consistency():
    total, mass = 220.0, 66.0
    flat = flat_white_spectrum(1.0, 2.0, 101, total, 0.9, mass_kda=mass)
    multi = fisher.qcrb(spectrum.qfi_multifrequency(flat, MASS))
    single = fisher.qcrb(fisher.qfi_coherent(math.sqrt(total) / mass + 0j))
    assert abs(multi - single) <= 1e-10 * single
    assert spectrum.relative_mass_bound_multifrequency(flat) == pytest.approx(
        0.5, abs=1e-12
    )

    rng = np.random.default_rng(20260809)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        omega = np.linspace(1.0, 2.0, n)
        alpha_s = rng.normal(size=n) + 1j * rng.normal(size=n)
        alpha_r = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = spectrum.SpectralField(
            omega=omega,
            alpha_r=alpha_r,
            alpha_s=alpha_s,
            alpha_i=np.zeros(n, dtype=complex),
            scale_s=np.abs(alpha_s),
            phi_s=np.angle(alpha_s),
        )
        if np.any(np.abs(f.detector()) == 0):
            continue
        for target in (MASS, PHASE):
            coherent = spectrum.qfi_multifrequency(f, target)
            averaged = spectrum.qfi_multifrequency_phase_averaged(f, target)
            assert averaged <= coherent * (1 + 1e-12) + 1e-30


@criterion(10, "byte-identical CSV/JSON across 1 and N threads with fixed seeds")
def test_determinism_across_threads(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    dump_json(cfg_path, config_to_dict(saturated_mc_config()))

    def run(cmd, out, threads):
        rc = main(cmd + ["--out", str(out), "--threads", str(threads)])
        assert rc == 0

    mc_outputs = []
    for threads in (1, 4):
        out = tmp_path / f"mc_{threads}.json"
        run(
            [
                "montecarlo", "--config", str(cfg_path),
                "--trials", "100", "--samples", "100", "--seed", "31415",
            ],
            out,
            threads,
        )
        mc_outputs.append(
            out.read_bytes() + (tmp_path / f"mc_{threads}.json.trials.csv").read_bytes()
        )
    assert mc_outputs[0] == mc_outputs[1]

    scan_outputs = []
    fig2_path = tmp_path / "fig2.json"
    dump_json(fig2_path, config_to_dict(fig2_config()))
    for threads in (1, 4):
        out = tmp_path / f"scan_{threads}.csv"
        run(
            [
                "scan", "--config", str(fig2_path),
                "--x-axis", "phi_s:0:6.2831853:41",
                "--y-axis", "phi_i:0:6.2831853:23",
            ],
            out,
            threads,
        )
        scan_outputs.append(out.read_bytes())
    assert scan_outputs[0] == scan_outputs[1]
