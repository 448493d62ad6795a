import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from builders import flat_white_spectrum
from conftest import EXTREME_FLOATS, same_bits
from iscat_metrology import fisher, spectrum
from iscat_metrology.field import (
    EstimationTarget,
    FieldConfig,
    ParticleModel,
    ReferenceArm,
)
from iscat_metrology.fisher import NotEstimableError

PI = math.pi
MASS = EstimationTarget.MASS
PHASE = EstimationTarget.SCATTER_PHASE


def make_field(omega, alpha_s, scale_s=None, phi_s=None, alpha_r=None,
               alpha_i=None, weights=None):
    omega = np.asarray(omega, dtype=float)
    alpha_s = np.asarray(alpha_s, dtype=complex)
    zeros = np.zeros_like(omega, dtype=complex)
    return spectrum.SpectralField(
        omega=omega,
        alpha_r=zeros if alpha_r is None else np.asarray(alpha_r, complex),
        alpha_s=alpha_s,
        alpha_i=zeros if alpha_i is None else np.asarray(alpha_i, complex),
        scale_s=np.abs(alpha_s) if scale_s is None else np.asarray(scale_s, float),
        phi_s=np.angle(alpha_s) if phi_s is None else np.asarray(phi_s, float),
        weights=weights,
    )


class TestWeights:
    def test_single_point_weight_one(self):
        assert spectrum.trapezoid_weights(np.array([1.5])).tolist() == [1.0]

    def test_sum_equals_span(self):
        omega = np.linspace(1.0, 2.5, 37)
        assert spectrum.trapezoid_weights(omega).sum() == pytest.approx(1.5)

    def test_positive_validation(self):
        with pytest.raises(ValueError):
            make_field([1.0, 2.0], [1.0, 1.0], weights=[0.5, -0.5])

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            make_field([2.0, 1.0], [1.0, 1.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="^empty frequency grid$") as exc:
            make_field([], [])
        assert type(exc.value) is ValueError  # exit 2, not 3

    def test_column_length_must_match_grid(self):
        with pytest.raises(
            ValueError, match="^alpha_s length differs from the grid$"
        ) as exc:
            make_field([1.0, 2.0], [1.0, 1.0, 1.0], scale_s=[1.0, 1.0],
                       phi_s=[0.0, 0.0])
        assert type(exc.value) is ValueError  # exit 2, not 3


class TestFlatWhiteSpectrum:
    def test_single_point_carries_all_photons(self):
        f = flat_white_spectrum(1.0, 2.0, 1, 220.0, 0.3)
        assert abs(f.alpha_s[0]) ** 2 == pytest.approx(220.0)
        assert spectrum.scattered_photons(f) == pytest.approx(220.0)

    def test_flat_band_density_and_integral(self):
        f = flat_white_spectrum(1.0, 2.0, 101, 220.0, 0.3)
        np.testing.assert_allclose(np.abs(f.alpha_s) ** 2, 220.0)
        assert spectrum.scattered_photons(f) == pytest.approx(220.0, abs=1e-12)

    def test_zero_total_gives_zero_amplitudes(self):
        f = flat_white_spectrum(1.0, 2.0, 11, 0.0, 0.0)
        assert np.all(f.alpha_s == 0)

    @pytest.mark.parametrize("target", [MASS, PHASE])
    def test_single_point_with_both_arms_is_one_mode(self, target):
        # one mode holds each arm's whole photon number at its own phase
        total, mass, reflected, reference = 2.0, 66.0, 4.0, 3.0
        f = flat_white_spectrum(
            1.0, 2.0, 1, total, 0.3, mass_kda=mass,
            reflected_photons=reflected, reference_photons=reference, phi_i=0.8,
        )
        cfg = FieldConfig(
            alpha_r=complex(math.sqrt(reflected)),
            particle=ParticleModel(mass, math.sqrt(total) / mass, 0.3),
            reference=ReferenceArm(math.sqrt(reference), 0.8),
            alpha0_mag=10.0,
        )
        report = fisher.fisher_report(cfg, target)
        assert spectrum.qfi_multifrequency(f, target) == pytest.approx(
            report.qfi_coherent, rel=1e-9
        )
        assert spectrum.qfi_multifrequency_phase_averaged(f, target) == (
            pytest.approx(report.cfi_photon_number, rel=1e-9)
        )

    def test_source_arms_follow_white_envelope(self):
        f = flat_white_spectrum(
            1.0, 2.0, 201, 10.0, 0.0, reflected_photons=7.0,
            reference_photons=3.0, phi_i=0.8,
        )
        # |alpha_r(omega)|^2 ~ 1/omega and integrates to the photon number
        density = np.abs(f.alpha_r) ** 2
        np.testing.assert_allclose(density * f.omega, density[0] * f.omega[0])
        assert f.integrate(density) == pytest.approx(7.0, rel=1e-4)
        assert f.integrate(np.abs(f.alpha_i) ** 2) == pytest.approx(3.0, rel=1e-4)


class TestQfiMultifrequency:
    def test_single_point_reduces_to_single_mode(self):
        f = make_field([1.3], [2.0 * np.exp(1j * 0.4)], scale_s=[0.5], phi_s=[0.4])
        assert spectrum.qfi_multifrequency(f, MASS) == fisher.qfi_coherent(
            0.5 * np.exp(1j * 0.4)
        )
        assert spectrum.qfi_multifrequency(f, PHASE) == fisher.qfi_coherent(
            1j * 2.0 * np.exp(1j * 0.4)
        )

    def test_flat_mass_target_value(self):
        span = 3.0
        f = flat_white_spectrum(1.0, 1.0 + span, 301, 90.0, 0.2, mass_kda=5.0)
        s = f.scale_s[0]
        assert spectrum.qfi_multifrequency(f, MASS) == pytest.approx(
            4 * s * s * span, rel=1e-12
        )

    def test_same_photons_same_bound_as_single_mode(self):
        total, mass = 220.0, 66.0
        f = flat_white_spectrum(1.0, 2.0, 101, total, 0.9, mass_kda=mass)
        multi = fisher.qcrb(spectrum.qfi_multifrequency(f, MASS))
        single = fisher.qcrb(fisher.qfi_coherent(math.sqrt(total) / mass + 0j))
        assert multi == pytest.approx(single, rel=1e-12)


class TestQfiPhaseAveraged:
    def test_aligned_equals_coherent(self):
        f = flat_white_spectrum(1.0, 2.0, 51, 30.0, 0.7)
        pa = spectrum.qfi_multifrequency_phase_averaged(f, MASS)
        assert pa == pytest.approx(spectrum.qfi_multifrequency(f, MASS), rel=1e-12)

    def test_orthogonal_vanishes(self):
        # reflected arm dominates with a quarter-turn offset at every omega
        omega = np.linspace(1.0, 2.0, 21)
        alpha_s = np.full(21, 1e-9) * np.exp(1j * PI / 2)
        f = make_field(omega, alpha_s, alpha_r=np.full(21, 1.0 + 0j))
        pa = spectrum.qfi_multifrequency_phase_averaged(f, MASS)
        assert pa < 1e-17 * spectrum.qfi_multifrequency(f, MASS) + 1e-30

    def test_half_aligned_half_orthogonal(self):
        # zero-mass particle: the derivative direction is set by phi_s while
        # alpha_d stays real, so both halves are exact; uniform weights make
        # the piecewise-constant integral exact too
        n = 40
        omega = np.linspace(1.0, 2.0, n)
        weights = np.full(n, 1.0 / n)
        phi_s = np.where(np.arange(n) < n // 2, 0.0, PI / 2)
        alpha_s = np.zeros(n, dtype=complex)
        f = make_field(
            omega, alpha_s, scale_s=np.full(n, 0.4), phi_s=phi_s,
            alpha_r=np.full(n, 5.0 + 0j), weights=weights,
        )
        full = spectrum.qfi_multifrequency(f, MASS)
        pa = spectrum.qfi_multifrequency_phase_averaged(f, MASS)
        # the orthogonal half leaks only cos(pi/2)^2 ~ 4e-33 of its weight
        assert pa == pytest.approx(0.5 * full, rel=1e-12)

    def test_vacuum_at_contributing_point_names_index(self):
        omega = np.array([1.0, 1.5, 2.0])
        alpha_s = np.array([1.0, 1.0, 1.0], dtype=complex)
        alpha_r = np.array([0.0, -1.0, 0.0], dtype=complex)
        f = make_field(omega, alpha_s, alpha_r=alpha_r)
        with pytest.raises(
            NotEstimableError,
            match=r"^detector field is vacuum at grid point 1 \(omega=1\.5\); "
            "the counting CFI is undefined there$",
        ):
            spectrum.qfi_multifrequency_phase_averaged(f, MASS)

    def test_vacuum_at_silent_point_is_fine(self):
        omega = np.array([1.0, 2.0])
        alpha_s = np.array([1.0, 0.0], dtype=complex)
        f = make_field(omega, alpha_s, scale_s=[1.0, 0.0], phi_s=[0.0, 0.0])
        assert spectrum.qfi_multifrequency_phase_averaged(f, MASS) > 0


class TestRelativeMassBound:
    def test_fully_aligned_is_half(self):
        f = flat_white_spectrum(1.0, 2.0, 31, 50.0, 1.2)
        assert spectrum.relative_mass_bound_multifrequency(f) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_half_aligned_sqrt_two(self):
        n = 10
        omega = np.linspace(1.0, 2.0, n)
        weights = np.full(n, 0.1)
        phi_s = np.where(np.arange(n) < n // 2, 0.0, PI / 2)
        # huge reflected arm pins chi ~ 0 exactly only for the aligned half;
        # build the orthogonal half exactly orthogonal instead
        alpha_r = np.full(n, 1.0 + 0j)
        alpha_s = np.full(n, 1e-300) * np.exp(1j * phi_s)  # negligible
        f = make_field(
            omega, alpha_s, scale_s=np.full(n, 0.3), phi_s=phi_s,
            alpha_r=alpha_r, weights=weights,
        )
        # ratio of the two integrals is exactly 2 -> bound = 1/sqrt(2)
        assert spectrum.relative_mass_bound_multifrequency(f) == pytest.approx(
            1.0 / math.sqrt(2.0), rel=1e-12
        )

    def test_fully_orthogonal_errors(self):
        # imaginary reflected arm with phi_s = 0: Re[conj(i)*1] == 0 exactly
        omega = np.linspace(1.0, 2.0, 5)
        alpha_r = np.full(5, 1j)
        alpha_s = np.zeros(5, dtype=complex)
        f = make_field(
            omega, alpha_s, scale_s=np.full(5, 0.3), phi_s=np.zeros(5),
            alpha_r=alpha_r,
        )
        with pytest.raises(NotEstimableError):
            spectrum.relative_mass_bound_multifrequency(f)

    def test_empty_scattering_errors(self):
        f = flat_white_spectrum(1.0, 2.0, 5, 0.0, 0.0)
        with pytest.raises(NotEstimableError, match="^spectrum scatters no photons$"):
            spectrum.relative_mass_bound_multifrequency(f)


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_phase_averaged_never_exceeds_coherent(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 30)
        omega = np.sort(rng.uniform(0.5, 3.0, n))
        if np.any(np.diff(omega) <= 0):
            return
        alpha_s = rng.normal(size=n) + 1j * rng.normal(size=n)
        alpha_r = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = make_field(omega, alpha_s, alpha_r=alpha_r)
        if np.any(np.abs(f.detector()) == 0):
            return
        for target in (MASS, PHASE):
            full = spectrum.qfi_multifrequency(f, target)
            pa = spectrum.qfi_multifrequency_phase_averaged(f, target)
            assert pa <= full * (1 + 1e-12) + 1e-30

    def test_refinement_stable_for_linear_integrand(self):
        # |d alpha_s|^2 linear in omega: the trapezoid rule is exact
        def field(points):
            omega = np.linspace(1.0, 2.0, points)
            scale = np.sqrt(omega)  # scale^2 = omega, linear
            alpha_s = scale * np.exp(1j * 0.3)
            return make_field(omega, alpha_s, scale_s=scale,
                              phi_s=np.full(points, 0.3))

        coarse = spectrum.qfi_multifrequency(field(101), MASS)
        fine = spectrum.qfi_multifrequency(field(201), MASS)
        assert fine == pytest.approx(coarse, rel=1e-10)

    def test_photon_scaling(self):
        f = flat_white_spectrum(1.0, 2.0, 41, 30.0, 0.8, mass_kda=3.0)
        c = 2.5
        scaled = make_field(
            f.omega, c * f.alpha_s, scale_s=f.scale_s, phi_s=f.phi_s,
            weights=f.weights,
        )
        assert spectrum.scattered_photons(scaled) == pytest.approx(
            c * c * spectrum.scattered_photons(f), rel=1e-12
        )
        # scaling via the mass: fixed s(omega) leaves the mass QFI alone,
        # while the phase QFI picks up c^2
        assert spectrum.qfi_multifrequency(scaled, MASS) == pytest.approx(
            spectrum.qfi_multifrequency(f, MASS), rel=1e-12
        )
        assert spectrum.qfi_multifrequency(scaled, PHASE) == pytest.approx(
            c * c * spectrum.qfi_multifrequency(f, PHASE), rel=1e-12
        )

    def test_disjoint_bands_add(self):
        f1 = flat_white_spectrum(1.0, 1.5, 11, 10.0, 0.0)
        f2 = flat_white_spectrum(2.0, 2.5, 11, 5.0, 0.0)
        joined = spectrum.SpectralField(
            omega=np.concatenate([f1.omega, f2.omega]),
            alpha_r=np.concatenate([f1.alpha_r, f2.alpha_r]),
            alpha_s=np.concatenate([f1.alpha_s, f2.alpha_s]),
            alpha_i=np.concatenate([f1.alpha_i, f2.alpha_i]),
            scale_s=np.concatenate([f1.scale_s, f2.scale_s]),
            phi_s=np.concatenate([f1.phi_s, f2.phi_s]),
            weights=np.concatenate([f1.weights, f2.weights]),
        )
        assert spectrum.scattered_photons(joined) == pytest.approx(15.0, rel=1e-12)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        f = flat_white_spectrum(
            1.0, 2.0, 17, 25.0, 0.4, mass_kda=2.0,
            reflected_photons=1.0, reference_photons=0.5, phi_i=1.1,
        )
        path = tmp_path / "spec.csv"
        spectrum.spectrum_to_csv(f, path)
        g = spectrum.spectrum_from_csv(path)
        np.testing.assert_array_equal(g.omega, f.omega)
        np.testing.assert_array_equal(g.alpha_s, f.alpha_s)
        np.testing.assert_array_equal(g.weights, f.weights)
        assert spectrum.qfi_multifrequency(g, MASS) == spectrum.qfi_multifrequency(f, MASS)
        # every column keeps extreme values bit for bit
        ext = np.array(EXTREME_FLOATS)
        f = make_field(ext, ext + 1j * ext[::-1], scale_s=ext, phi_s=ext[::-1],
                       alpha_r=ext[::-1] + 1j * ext, alpha_i=1j * ext,
                       weights=[5e-324, 1.0, 1.7976931348623157e308])
        spectrum.spectrum_to_csv(f, path)
        g = spectrum.spectrum_from_csv(path)
        for name in ("omega", "weights", "alpha_r", "alpha_s", "alpha_i",
                     "scale_s", "phi_s"):
            a, b = getattr(f, name), getattr(g, name)
            for part in ("real", "imag"):
                assert same_bits(getattr(b, part), getattr(a, part)), name

    def test_columns_come_from_one_map(self):
        f = flat_white_spectrum(1.0, 2.0, 3, 9.0, 0.2, phi_i=0.3,
                                         reference_photons=1.0)
        columns = spectrum.spectrum_columns(f)
        assert list(columns) == spectrum.SPECTRUM_CSV_COLUMNS == [
            "omega", "weight", "alpha_r_re", "alpha_r_im", "alpha_s_re",
            "alpha_s_im", "alpha_i_re", "alpha_i_im", "scale_s", "phi_s",
        ]
        assert columns["weight"] is f.weights
        assert same_bits(columns["alpha_i_im"], f.alpha_i.imag)

    @pytest.mark.parametrize(
        "cells, message",
        [
            # cells are read omega, the arms, scale_s, phi_s, weight
            ({"weight": "x", "phi_s": "x"}, "column phi_s holds a missing"),
            ({"weight": "x", "alpha_i_im": ""}, "column alpha_i_im holds a missing"),
            ({"weight": "x"}, "column weight holds a missing"),
            # finiteness is checked in column order, weight second
            ({"weight": "inf", "alpha_r_re": "nan"}, "column weight must be finite"),
            ({"weight": "x", "alpha_r_re": "nan"}, "column weight holds a missing"),
        ],
    )
    def test_first_bad_column_named(self, tmp_path, cells, message):
        row = dict.fromkeys(spectrum.SPECTRUM_CSV_COLUMNS, "1")
        row.update(cells)
        path = tmp_path / "band.csv"
        path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
        with pytest.raises(ValueError, match=message):
            spectrum.spectrum_from_csv(path)

    def test_short_rows_read_as_missing_cells(self, tmp_path):
        path = tmp_path / "band.csv"
        header = ",".join(spectrum.SPECTRUM_CSV_COLUMNS)
        path.write_text(f"{header},note\n1,1,0,0,1,0,0,0,1,0,x\n2,1,0,0,1,0,0,0\n")
        with pytest.raises(ValueError, match="column scale_s holds a missing"):
            spectrum.spectrum_from_csv(path)
        # every row short of the same column: still a missing cell
        path.write_text(f"{header}\n1,1,0,0,1,0,0,0,1\n2,1,0,0,1,0,0,0,1\n")
        with pytest.raises(ValueError, match="column phi_s holds a missing"):
            spectrum.spectrum_from_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("omega,weight\n1.0,1.0\n")
        with pytest.raises(ValueError, match="missing columns"):
            spectrum.spectrum_from_csv(path)
