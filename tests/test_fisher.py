import cmath
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from builders import relative_mass_bound
from conftest import EXTREME_FLOATS, same_bits
from iscat_metrology import fisher
from iscat_metrology.field import (
    EstimationTarget,
    FieldConfig,
    ParticleModel,
    ReferenceArm,
    detector_amplitude,
    load_config,
    scattered_amplitude,
)
from iscat_metrology.fisher import NotEstimableError

PI = math.pi
ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize("swap", [False, True], ids=["grid_label", "grid_derivative"])
def test_information_on_input_shapes_matches_broadcast_inputs(swap):
    # each input's own terms are computed on its shape and then broadcast:
    # every field equals the one computed from inputs broadcast beforehand,
    # with a vacuum label and a vanishing derivative among them
    rng = np.random.default_rng(7)
    grid = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    grid[1, 2] = 0.0
    axis = np.array([[0.3 - 0.2j], [0.0], [1.5j], [-2.0 + 0.1j]])
    alpha_d, dalpha = (axis, grid) if swap else (grid, axis)
    report = fisher.information(alpha_d, dalpha, 1e-12)
    want = fisher.information(*np.broadcast_arrays(alpha_d, dalpha), 1e-12)
    for got, expected in zip(report, want):
        assert got.shape == (4, 5)
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        assert got[~np.isnan(got)].tobytes() == expected[~np.isnan(expected)].tobytes()


def counting_cfi(alpha_d, dalpha) -> float:
    return float(fisher.information(alpha_d, dalpha).cfi_photon_number)


class TestMismatchAngles:
    @staticmethod
    def angles(alpha_d, dalpha):
        report = fisher.information(alpha_d, dalpha)
        return float(report.psi), float(report.chi)

    def test_orthogonal_pair(self):
        psi, chi = self.angles(1 + 0j, 1j)
        assert (psi, chi) == (PI / 2, 0.0)

    def test_fig2_angles(self):
        alpha_d = (0.5679491924311223 + 1.0j) * 1e-5
        psi, chi = self.angles(alpha_d, cmath.exp(1j * 5 * PI / 6))
        assert chi == pytest.approx(math.atan2(1.0, 0.568), abs=1e-3)
        assert psi == pytest.approx(5 * PI / 6)

    def test_vacuum_angle_is_nan(self):
        # the vacuum has no phase: chi at a vacuum detector, psi at a
        # vanishing derivative
        assert math.isnan(self.angles(0j, 1 + 0j)[1])
        assert math.isnan(self.angles(1 + 0j, 0j)[0])


class TestQfiPhaseAveraged:
    def test_aligned_saturates(self):
        assert counting_cfi(2 + 0j, 0.5 + 0j) == pytest.approx(1.0)

    def test_orthogonal_vanishes(self):
        assert counting_cfi(1 + 0j, 1j) == 0.0

    def test_diagonal_case(self):
        assert counting_cfi(1 + 1j, 1 + 0j) == pytest.approx(2.0)


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


class TestBounds:
    def test_qcrb_simple(self):
        assert fisher.qcrb(4.0) == 0.5

    def test_qcrb_mass_example(self):
        assert fisher.qcrb(0.1936) == pytest.approx(2.273, abs=1e-3)

    def test_qcrb_rejects_nonpositive(self):
        with pytest.raises(NotEstimableError):
            fisher.qcrb(0.0)

    @pytest.mark.parametrize("name", ["worked_example", "monte_carlo_quarter"])
    def test_relative_bound_is_the_counting_crb_over_the_mass(self, name):
        # the formula of README's fisher bullet, read off the library's report
        # at a saturation ratio of 1 and of 1/4
        cfg = load_config(ROOT / "configs" / f"{name}.json")
        report = fisher.fisher_report(cfg, EstimationTarget.MASS)
        n_s = abs(scattered_amplitude(cfg.particle)) ** 2
        assert relative_mass_bound(n_s, report.saturation_ratio) == pytest.approx(
            fisher.qcrb(report.cfi_photon_number) / cfg.particle.mass_kda,
            rel=1e-12,
        )


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
                assert rep.to_dict()["qfi_phase_averaged"] == rep.cfi_photon_number
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
        before = counting_cfi(alpha_d, dalpha)
        after = counting_cfi(alpha_d * rot, dalpha * rot)
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)

    def test_vacuum_report_raises(self, fig2_cfg):
        from conftest import vacuum_config

        with pytest.raises(
            NotEstimableError,
            match="^detector field is vacuum; chi = arg\\(alpha_d\\) and the counting "
            "CFI are undefined$",
        ):
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
        # ParticleModel wraps phi_s into [0, 2*pi), and ReferenceArm adds 0.0
        # to its magnitude: neither holds -0.0
        expected = [lo, tiny, tiny, top, 0.0, 0.0, tiny, lo, top, lo, tiny, top]
        assert same_bits(cells[1:], expected)
