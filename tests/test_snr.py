import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import EXTREME_FLOATS, oracle_csv, read_csv_columns, same_bits
from iscat_metrology import snr
from iscat_metrology.cli import SNR_PRESETS, main
from iscat_metrology.snr import RealFieldTriple

PI = math.pi

#: What each SNR preset stands for, as the sweep function's inputs: the
#: default amplitudes (1, 0.01, 1) and the preset's fixed phase.
PRESET_SWEEPS = {
    "figsnr1": {
        "sweep": snr.mass_snr_sweep,
        "triple": RealFieldTriple(1.0, 0.01, 1.0, phi_s=PI / 2.0),
        "values": np.linspace(0.0, 2.0 * PI, 721),
        "meta": ["mode: mass", "log_scale: false"],
    },
    "figsnr2": {
        "sweep": snr.phase_snr_sweep,
        "triple": RealFieldTriple(1.0, 0.01, 1.0, phi_s=0.0, phi_i=PI / 2.0),
        "values": np.logspace(-4, -2, 101),
        "meta": ["mode: phase", "log_scale: true"],
    },
}

amp = st.floats(0.0, 10.0)
angle = st.floats(0.0, 2 * PI, exclude_max=True)


def intensity(f: RealFieldTriple) -> float:
    """I2 = |A + alpha_s|^2 from the detector amplitude whose square root is
    every SNR's noise term; I1 where E_i = 0."""
    return float(snr._fields(f)[2] ** 2)


class TestIntensityIscat:
    def test_no_scattering(self):
        assert intensity(RealFieldTriple(1.5, 0.0, 0.0, 0.3)) == 1.5**2

    def test_constructive(self):
        f = RealFieldTriple(1.0, 0.4, 0.0, 0.0)
        assert intensity(f) == pytest.approx((1.4) ** 2)

    def test_quarter_phase(self):
        f = RealFieldTriple(1.0, 0.1, 0.0, PI / 2)
        assert intensity(f) == pytest.approx(1.01)


class TestIntensityMiscat:
    def test_reduces_without_reference(self):
        f = RealFieldTriple(1.2, 0.3, 0.0, 0.7, 1.9)
        one_arm = 1.2**2 + 2 * 1.2 * 0.3 * math.cos(0.7) + 0.3**2
        assert intensity(f) == pytest.approx(one_arm, rel=1e-12)

    def test_total_destruction(self):
        f = RealFieldTriple(1.0, 0.0, 1.0, 0.0, PI)
        assert intensity(f) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(e_r=amp, e_s=amp, e_i=amp, phi_s=angle, phi_i=angle)
    def test_matches_complex_modulus(self, e_r, e_s, e_i, phi_s, phi_i):
        f = RealFieldTriple(e_r, e_s, e_i, phi_s, phi_i)
        total = e_r + e_s * cmath.exp(1j * phi_s) + e_i * cmath.exp(1j * phi_i)
        assert intensity(f) == pytest.approx(
            abs(total) ** 2, rel=1e-12, abs=1e-12
        )


class TestMassSnr:
    def test_quarter_phase_kills_one_arm_signal(self):
        f = RealFieldTriple(1.0, 0.01, 0.0, PI / 2)
        assert abs(snr.snr_mass_iscat(f)) < 1e-15

    def test_weak_scatterer_leading_order(self):
        f = RealFieldTriple(1.0, 1e-6, 0.0, 0.0)
        assert snr.snr_mass_iscat(f) == pytest.approx(2e-6, rel=1e-5)

    def test_pi_flips_sign(self):
        plus = snr.snr_mass_iscat(RealFieldTriple(1.0, 1e-8, 0.0, 0.0))
        minus = snr.snr_mass_iscat(RealFieldTriple(1.0, 1e-8, 0.0, PI))
        assert minus < 0 < plus
        assert abs(minus) == pytest.approx(plus, rel=1e-6)

    def test_two_arm_reduces_at_zero_reference(self):
        f = RealFieldTriple(1.0, 0.02, 0.0, 1.1, 2.2)
        assert snr.snr_mass_miscat(f) == snr.snr_mass_iscat(f)

    def test_reference_recovers_quarter_phase_signal(self):
        f = RealFieldTriple(1.0, 0.01, 1.0, PI / 2, PI / 2)
        value = snr.snr_mass_miscat(f)
        assert value > 0.005  # numerator 2*E_i*E_s where the one-arm SNR ~ 0

    def test_tuned_reference_never_hurts(self):
        phi_i = np.linspace(0.0, 2 * PI, 721)
        rng = np.random.default_rng(5)
        for _ in range(25):
            f = RealFieldTriple(
                e_r=1.0,
                e_s=float(rng.uniform(1e-4, 0.2)),
                e_i=float(rng.uniform(0.1, 2.0)),
                phi_s=float(rng.uniform(0, 2 * PI)),
            )
            swept = RealFieldTriple(f.e_r, f.e_s, f.e_i, f.phi_s, phi_i)
            best = np.max(snr.snr_mass_miscat(swept))
            assert best >= snr.snr_mass_iscat(f) - 1e-12


class TestMassSnrPrecision:
    @staticmethod
    def _exact(f, phi_i):
        """Two-arm mass SNR of the float inputs to 50 digits."""
        import mpmath

        with mpmath.workdps(50):
            e_r, e_s, e_i, phi_s, phi_i = map(
                mpmath.mpf, (f.e_r, f.e_s, f.e_i, f.phi_s, phi_i)
            )
            re = e_r + e_i * mpmath.cos(phi_i) + e_s * mpmath.cos(phi_s)
            im = e_i * mpmath.sin(phi_i) + e_s * mpmath.sin(phi_s)
            signal = 2 * e_s * (e_r * mpmath.cos(phi_s) + e_i * mpmath.cos(phi_i - phi_s))
            return float(signal / mpmath.sqrt(re * re + im * im))

    def test_figsnr1_against_extended_precision(self):
        inputs = PRESET_SWEEPS["figsnr1"]
        f, phi_i = inputs["triple"], inputs["values"]
        exact = np.array([self._exact(f, p) for p in phi_i])
        values = snr.mass_snr_sweep(f, phi_i)["snr_miscat"]
        assert np.max(np.abs(values - exact)) <= 2e-16
        # the six-term I2 expansion cancels near the dark fringe phi_i = pi
        e_r, e_s, e_i, phi_s = f.e_r, f.e_s, f.e_i, f.phi_s
        i2 = (
            e_i**2 + 2 * e_i * e_r * np.cos(phi_i)
            + 2 * e_i * e_s * np.cos(phi_i - phi_s)
            + e_r**2 + 2 * e_r * e_s * np.cos(phi_s) + e_s**2
        )
        signal = 2 * e_r * e_s * np.cos(phi_s) + 2 * e_i * e_s * np.cos(phi_i - phi_s)
        assert np.max(np.abs(signal / np.sqrt(i2) - exact)) > 1e-13

    @pytest.mark.parametrize("fn", [snr.snr_mass_iscat, snr.snr_mass_miscat])
    def test_zero_field_raises(self, fn):
        with pytest.raises(
            ValueError, match="^total destructive interference: zero detector field$"
        ):
            fn(RealFieldTriple(0.0, 0.0, 0.0, 0.3, 1.0))


class TestPhaseSnr:
    def test_zero_phase_zero_signal(self):
        assert snr.snr_phase_small_iscat(RealFieldTriple(1.0, 0.1, 0.0, 0.0)) == 0.0

    def test_quadratic_scaling_exact(self):
        f1 = RealFieldTriple(1.0, 0.1, 0.0, 1e-3)
        f2 = RealFieldTriple(1.0, 0.1, 0.0, 2e-3)
        assert snr.snr_phase_small_iscat(f2) == 4.0 * snr.snr_phase_small_iscat(f1)

    def test_direct_value(self):
        f = RealFieldTriple(1.0, 1e-3, 0.0, 0.01)
        assert snr.snr_phase_small_iscat(f) == pytest.approx(1.998e-7, rel=1e-3)

    def test_two_arm_linear_scaling_exact(self):
        f1 = RealFieldTriple(1.0, 0.1, 0.5, 1e-3, PI / 2)
        f2 = RealFieldTriple(1.0, 0.1, 0.5, 2e-3, PI / 2)
        assert snr.snr_phase_small_miscat(f2) == 2.0 * snr.snr_phase_small_miscat(f1)

    def test_zero_reference_phase_no_signal(self):
        f = RealFieldTriple(1.0, 0.1, 0.5, 1e-3, 0.0)
        assert snr.snr_phase_small_miscat(f) == 0.0

    def test_destructive_denominator_raises(self):
        f = RealFieldTriple(1.0, 0.1, 1.0, 1e-3, PI)
        with pytest.raises(
            ValueError,
            match=r"^total destructive interference: zero intensity in "
            r"snr_phase_small_miscat \(E_i\^2 \+ 2\*E_i\*E_r\*cos\(phi_i\) \+ E_r\^2\)$",
        ):
            snr.snr_phase_small_miscat(f)
        near = RealFieldTriple(1.0, 0.1, 1.0, 1e-3, PI - 0.1)
        assert math.isfinite(snr.snr_phase_small_miscat(near))

    def test_log_log_slopes(self):
        phi_s = np.logspace(-4, -2, 60)
        f = RealFieldTriple(1.0, 1e-3, 1.0, 0.0, PI / 2)
        sweep = snr.phase_snr_sweep(f, phi_s)
        slope_one = np.polyfit(np.log(phi_s), np.log(sweep["snr_iscat"]), 1)[0]
        slope_two = np.polyfit(np.log(phi_s), np.log(sweep["snr_miscat"]), 1)[0]
        assert slope_one == pytest.approx(2.0, abs=0.01)
        assert slope_two == pytest.approx(1.0, abs=0.01)


class TestVectorization:
    def test_arrays_broadcast(self):
        f = RealFieldTriple(1.0, 0.01, 1.0, np.linspace(0, 1, 7), PI / 2)
        out = snr.snr_mass_miscat(f)
        assert isinstance(out, np.ndarray) and out.shape == (7,)

    def test_scalars_stay_floats(self):
        out = snr.snr_mass_iscat(RealFieldTriple(1.0, 0.01, 0.0, 0.3))
        assert isinstance(out, float)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            RealFieldTriple(-1.0, 0.0, 0.0, 0.0)


class TestSweepCsv:
    def test_columns_and_meta(self, tmp_path):
        f = RealFieldTriple(1.0, 0.01, 1.0, PI / 2)
        sweep = snr.mass_snr_sweep(f, np.linspace(0, 2 * PI, 9))
        path = tmp_path / "sweep.csv"
        snr.write_sweep_csv(path, sweep, meta=["mode: mass", "log_scale: false"])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "# mode: mass"
        assert lines[2] == "phi_i,snr_iscat,snr_miscat"
        assert len(lines) == 12
        extremes = {name: np.array(EXTREME_FLOATS) for name in sweep}
        snr.write_sweep_csv(path, extremes)
        for name, cells in read_csv_columns(path).items():
            assert same_bits(cells, EXTREME_FLOATS), name


@pytest.mark.parametrize("preset", sorted(SNR_PRESETS))
def test_preset_csv_matches_cell_by_cell_oracle(tmp_path, preset):
    out = tmp_path / f"{preset}.csv"
    assert main(["snr", "--preset", preset, "--out", str(out)]) == 0
    inputs = PRESET_SWEEPS[preset]
    sweep = inputs["sweep"](inputs["triple"], inputs["values"])
    rows = zip(*(column.tolist() for column in sweep.values()))
    assert out.read_bytes() == oracle_csv(list(sweep), rows, inputs["meta"])
