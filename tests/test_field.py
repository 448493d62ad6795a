import cmath
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import quarter_ratio_mc_config, saturated_mc_config
from iscat_metrology.field import (
    BUDGET_TOL,
    EstimationTarget,
    FieldConfig,
    ParticleModel,
    ReferenceArm,
    check_budget,
    config_from_dict,
    config_to_dict,
    detector_amplitude,
    first_arm_magnitude,
    load_config,
    phase,
    reference_amplitude,
    scattered_amplitude,
    target_derivative,
    with_target_value,
    wrap_angle,
)
from iscat_metrology.textio import dump_json

PI = math.pi

def test_wrap_angle_range():
    for theta in (-7.0, -1e-18, 0.0, 1.0, 2 * PI, 9.42, 1e9):
        w = wrap_angle(theta)
        assert 0.0 <= w < 2 * PI


def test_phase_of_a_negative_zero_imaginary_part_is_positive_zero():
    theta = phase(complex(1.0, -0.0))
    assert theta == 0.0 and math.copysign(1.0, theta) == 1.0


class TestScatteredAmplitude:
    def test_zero_mass(self):
        p = ParticleModel(0.0, 0.22, PI / 3)
        assert scattered_amplitude(p) == 0j

    def test_worked_example_magnitude(self):
        p = ParticleModel(66.0, 0.22, 0.0)
        z = scattered_amplitude(p)
        assert z.real == pytest.approx(14.52)
        assert z.imag == 0.0
        # scattered photon number close to the 220-photon benchmark
        assert abs(z) ** 2 == pytest.approx(210.8, abs=0.1)

    def test_unit_rotation(self):
        z = scattered_amplitude(ParticleModel(1.0, 1.0, PI))
        assert z.real == pytest.approx(-1.0, abs=1e-15)
        assert abs(z.imag) < 1e-12


class TestDetectorAmplitude:
    def test_all_arms_zero(self):
        cfg = FieldConfig(alpha_r=0j, particle=ParticleModel(0.0, 1.0, 0.0))
        assert detector_amplitude(cfg) == 0j

    def test_fig2_arithmetic(self, fig2_cfg):
        z = detector_amplitude(fig2_cfg)
        assert z.real == pytest.approx(0.568e-5, rel=1e-3)
        assert z.imag == pytest.approx(1.0e-5, rel=1e-12)

    def test_cancelling_reference_gives_vacuum(self, fig2_cfg):
        first = fig2_cfg.alpha_r + scattered_amplitude(fig2_cfg.particle)
        cfg = FieldConfig(
            alpha_r=fig2_cfg.alpha_r,
            particle=fig2_cfg.particle,
            reference=ReferenceArm(abs(first), cmath.phase(-first)),
        )
        assert abs(detector_amplitude(cfg)) < 1e-18

    def test_iscat_mode_means_no_reference_term(self, fig2_cfg):
        assert fig2_cfg.setup == "iscat"
        first = fig2_cfg.alpha_r + scattered_amplitude(fig2_cfg.particle)
        assert detector_amplitude(fig2_cfg) == first


class TestValidateEnergy:
    def test_valid_config(self):
        cfg = FieldConfig(
            alpha_r=0.3, particle=ParticleModel(1.0, 0.1, 0.0),
            reference=ReferenceArm(0.1, 0.0),
        )
        check_budget(first_arm_magnitude(cfg), cfg.arm.mag, cfg.alpha0_mag)

    def test_reference_arm_violation(self):
        cfg = FieldConfig(
            alpha_r=0.0001, particle=ParticleModel(1.0, 0.0001, 0.0),
            reference=ReferenceArm(0.6, 0.0),
        )
        message = (
            r"^reference arm \|alpha_i\| = 0\.6 exceeds the bound "
            r"alpha0_mag/2 = 0\.5$"
        )
        with pytest.raises(ValueError, match=message):
            check_budget(first_arm_magnitude(cfg), cfg.arm.mag, cfg.alpha0_mag)
        with pytest.raises(ValueError, match=message):
            detector_amplitude(cfg)

    def test_boundary_tolerance(self):
        cfg = FieldConfig(
            alpha_r=0.5 + 1e-15, particle=ParticleModel(0.0, 1.0, 0.0)
        )
        check_budget(first_arm_magnitude(cfg), cfg.arm.mag, cfg.alpha0_mag)

    @pytest.mark.parametrize("alpha0_mag", [1.0, 3.0])
    def test_bound_plus_slack_is_admitted_and_the_next_double_is_not(self, alpha0_mag):
        edge = 0.5 * alpha0_mag + BUDGET_TOL * alpha0_mag
        check_budget(edge, edge, alpha0_mag)
        over = float(np.nextafter(edge, math.inf))
        bound = 0.5 * alpha0_mag
        message = (
            f"sample arm |alpha_r + alpha_s| = {over!r} exceeds the bound "
            f"alpha0_mag/2 = {bound!r}; reference arm |alpha_i| = {over!r} "
            f"exceeds the bound alpha0_mag/2 = {bound!r}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_budget(over, over, alpha0_mag)

    def test_sample_arm_violation_named(self):
        cfg = FieldConfig(alpha_r=0.7, particle=ParticleModel(0.0, 1.0, 0.0))
        with pytest.raises(
            ValueError,
            match=r"^sample arm \|alpha_r \+ alpha_s\| = 0\.7 exceeds the bound "
            r"alpha0_mag/2 = 0\.5$",
        ):
            detector_amplitude(cfg)

    def test_check_budget_names_both_arms_of_a_grid(self):
        with pytest.raises(
            ValueError, match=r"^sample arm .* = 0\.6 exceeds .*; reference arm .* = 0\.7 "
        ):
            check_budget([0.1, 0.6], [0.2, 0.7], 1.0)
        check_budget([0.1, 0.5], 0.5, 1.0)  # within the bounds: no error

    def test_absent_arm_is_zero(self, fig2_cfg):
        assert fig2_cfg.reference is None
        assert fig2_cfg.arm == ReferenceArm(0.0, 0.0)
        arm = ReferenceArm(0.1, 2.0)
        cfg = FieldConfig(alpha_r=0.3, particle=fig2_cfg.particle, reference=arm)
        assert cfg.arm is arm


class TestTargetDerivative:
    def test_mass_is_scale_direction(self):
        cfg = FieldConfig(alpha_r=0j, particle=ParticleModel(5.0, 0.22, 0.0))
        assert target_derivative(cfg, EstimationTarget.MASS) == 0.22 + 0j

    def test_phase_picks_up_factor_i(self):
        cfg = FieldConfig(alpha_r=0j, particle=ParticleModel(1.0, 1.0, 0.0))
        d = target_derivative(cfg, EstimationTarget.SCATTER_PHASE)
        assert d == pytest.approx(1j)

    @given(
        m=st.floats(0.1, 1e3),
        s=st.floats(1e-6, 10.0),
        phi=st.floats(0.0, 2 * PI, exclude_max=True),
    )
    def test_quarter_turn_between_targets(self, m, s, phi):
        cfg = FieldConfig(alpha_r=0j, particle=ParticleModel(m, s, phi))
        dm = target_derivative(cfg, EstimationTarget.MASS)
        dp = target_derivative(cfg, EstimationTarget.SCATTER_PHASE)
        delta = wrap_angle(cmath.phase(dp) - cmath.phase(dm))
        assert delta == pytest.approx(PI / 2, abs=1e-12)


arm_mag = st.floats(0.0, 0.2)
angle = st.floats(0.0, 2 * PI, exclude_max=True)


@given(mag_r=arm_mag, ms=st.floats(1e-8, 0.2), phi_s=angle, mag_i=arm_mag, phi_i=angle)
def test_reference_additivity_is_exact(mag_r, ms, phi_s, mag_i, phi_i):
    particle = ParticleModel(1.0, ms, phi_s)
    bare = FieldConfig(alpha_r=complex(mag_r), particle=particle)
    armed = FieldConfig(
        alpha_r=complex(mag_r), particle=particle,
        reference=ReferenceArm(mag_i, phi_i),
    )
    delta = reference_amplitude(armed)
    assert detector_amplitude(armed) == detector_amplitude(bare) + delta


@given(m=st.floats(1e-3, 100.0), s=st.floats(1e-9, 1e-3), phi=angle)
def test_mass_homogeneity_exact(m, s, phi):
    one = scattered_amplitude(ParticleModel(m, s, phi))
    two = scattered_amplitude(ParticleModel(2 * m, s, phi))
    assert abs(two) == 2 * abs(one)


@given(m1=st.floats(0.0, 100.0), m2=st.floats(0.0, 100.0), s=st.floats(1e-6, 1e-3), phi=angle)
def test_mass_derivative_independent_of_mass(m1, m2, s, phi):
    cfg1 = FieldConfig(alpha_r=0j, particle=ParticleModel(m1, s, phi))
    cfg2 = FieldConfig(alpha_r=0j, particle=ParticleModel(m2, s, phi))
    assert target_derivative(cfg1, EstimationTarget.MASS) == target_derivative(
        cfg2, EstimationTarget.MASS
    )


@given(mag_r=arm_mag, ms=st.floats(0.0, 0.2), phi_s=angle, mag_i=arm_mag, phi_i=angle)
def test_detector_bounded_by_input(mag_r, ms, phi_s, mag_i, phi_i):
    cfg = FieldConfig(
        alpha_r=complex(mag_r),
        particle=ParticleModel(1.0, ms, phi_s) if ms > 0 else ParticleModel(0.0, 1.0, phi_s),
        reference=ReferenceArm(mag_i, phi_i),
    )
    try:
        check_budget(first_arm_magnitude(cfg), cfg.arm.mag, cfg.alpha0_mag)
    except ValueError:
        return
    assert abs(detector_amplitude(cfg)) <= cfg.alpha0_mag * (1 + 1e-11)


class TestValidation:
    def test_negative_mass_rejected(self):
        message = r"^particle\.mass_kda must be >= 0, got -1\.0$"
        with pytest.raises(ValueError, match=message):
            ParticleModel(-1.0, 0.2, 0.0)

    def test_zero_scale_rejected(self):
        message = r"^particle\.scale_per_kda must be > 0, got 0\.0$"
        with pytest.raises(ValueError, match=message):
            ParticleModel(1.0, 0.0, 0.0)

    def test_negative_reference_mag_rejected(self):
        with pytest.raises(ValueError, match=r"^reference\.mag must be >= 0, got -0\.1$"):
            ReferenceArm(-0.1, 0.0)

    def test_phases_wrapped(self):
        assert ParticleModel(1.0, 1.0, -0.5).phi_s == pytest.approx(2 * PI - 0.5)
        assert ReferenceArm(0.1, 3 * PI).phi_i == pytest.approx(PI)

    def test_nonpositive_alpha0_rejected(self):
        with pytest.raises(ValueError):
            FieldConfig(alpha_r=0j, particle=ParticleModel(1, 1, 0), alpha0_mag=0.0)


class TestWithTargetValue:
    def test_mass_replacement(self, fig2_cfg):
        out = with_target_value(fig2_cfg, EstimationTarget.MASS, 3.0)
        assert out.particle.mass_kda == 3.0
        assert out.particle.phi_s == fig2_cfg.particle.phi_s

    def test_phase_replacement(self, fig2_cfg):
        out = with_target_value(fig2_cfg, EstimationTarget.SCATTER_PHASE, 0.25)
        assert out.particle.phi_s == 0.25
        assert out.particle.mass_kda == fig2_cfg.particle.mass_kda


class TestJsonSchema:
    def test_round_trip_miscat(self, tmp_path):
        cfg = FieldConfig(
            alpha_r=complex(1e-3, -2e-4),
            particle=ParticleModel(66.0, 0.22, 1.25),
            reference=ReferenceArm(0.01, 2.5),
            alpha0_mag=30.0,
        )
        path = tmp_path / "cfg.json"
        dump_json(path, config_to_dict(cfg))
        assert load_config(path) == cfg

    def test_round_trip_iscat_null_reference(self, fig2_cfg):
        d = config_to_dict(fig2_cfg)
        assert d["reference"] is None
        assert set(d) == {"alpha0_mag", "alpha_r", "particle", "reference"}
        assert set(d["alpha_r"]) == {"re", "im"}
        assert set(d["particle"]) == {"mass_kda", "scale_per_kda", "phi_s"}
        assert config_from_dict(d) == fig2_cfg


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _hex_leaves(d):
    """A config dict with every float written as float.hex."""
    if isinstance(d, dict):
        return {key: _hex_leaves(value) for key, value in d.items()}
    return d.hex() if isinstance(d, float) else d


@pytest.mark.parametrize(
    "name, build",
    [
        ("monte_carlo_saturated.json", saturated_mc_config),
        ("monte_carlo_quarter.json", quarter_ratio_mc_config),
    ],
)
def test_committed_mc_config_is_the_construction(name, build):
    committed = json.loads((CONFIGS / name).read_text())
    assert _hex_leaves(committed) == _hex_leaves(config_to_dict(build()))
