import cmath
import math

import numpy as np
import pytest

from conftest import EXTREME_FLOATS, oracle_csv, read_csv_columns, same_bits
from iscat_metrology import fisher, tuner
from iscat_metrology.cli import _scan_presets, main
from iscat_metrology.errors import EnergyBudgetError, NotEstimableError
from iscat_metrology.field import (
    BUDGET_TOL,
    EstimationTarget,
    FieldConfig,
    ParticleModel,
    ReferenceArm,
    detector_amplitude,
    first_arm_amplitude,
    target_derivative,
)

PI = math.pi
MASS = EstimationTarget.MASS
PHASE = EstimationTarget.SCATTER_PHASE


def with_reference(cfg, mag, phi):
    return FieldConfig(
        alpha_r=cfg.alpha_r,
        particle=cfg.particle,
        reference=ReferenceArm(mag, phi),
        alpha0_mag=cfg.alpha0_mag,
    )


class TestSaturatingReferenceSet:
    def test_worked_geometry(self, fig2_cfg):
        sol = tuner.saturating_reference_set(fig2_cfg, MASS)
        assert sol.min_mag_i == pytest.approx(1.15e-5, abs=1e-8)
        assert sol.psi == pytest.approx(5 * PI / 6)
        assert sol.feasible

    def test_orthogonal_targets_give_orthogonal_distances(self, fig2_cfg):
        mass_sol = tuner.saturating_reference_set(fig2_cfg, MASS)
        phase_sol = tuner.saturating_reference_set(fig2_cfg, PHASE)
        first = abs(first_arm_amplitude(fig2_cfg))
        # the two lines differ by a quarter turn, so the distances are the
        # two legs of a right triangle with hypotenuse |alpha_first|
        assert math.hypot(mass_sol.min_mag_i, phase_sol.min_mag_i) == pytest.approx(
            first, rel=1e-12
        )

    def test_already_aligned_needs_no_reference(self):
        cfg = FieldConfig(alpha_r=0.1, particle=ParticleModel(1.0, 0.05, 0.0))
        sol = tuner.saturating_reference_set(cfg, MASS)
        assert sol.min_mag_i == 0.0

    def test_zero_derivative_rejected(self):
        cfg = FieldConfig(alpha_r=0.1, particle=ParticleModel(0.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            tuner.saturating_reference_set(cfg, PHASE)

    def test_feasible_for_all_valid_configs(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            cfg = FieldConfig(
                alpha_r=cmath.rect(rng.uniform(0, 0.3), rng.uniform(0, 2 * PI)),
                particle=ParticleModel(1.0, rng.uniform(1e-4, 0.19), rng.uniform(0, 2 * PI)),
            )
            if abs(first_arm_amplitude(cfg)) > 0.5:
                continue
            sol = tuner.saturating_reference_set(cfg, MASS)
            assert sol.feasible
            assert sol.min_mag_i <= abs(first_arm_amplitude(cfg)) + 1e-15


class TestPhaseSolutions:
    def test_solution_count_trichotomy(self, fig2_cfg):
        sol = tuner.saturating_reference_set(fig2_cfg, MASS)
        assert tuner.phase_solutions(fig2_cfg, MASS, 1.0e-5) == ()
        assert len(sol.solutions_at(sol.min_mag_i)) == 1
        assert len(tuner.phase_solutions(fig2_cfg, MASS, 4.5e-5)) == 2

    def test_solutions_sorted_and_in_range(self, fig2_cfg):
        phases = tuner.phase_solutions(fig2_cfg, MASS, 4.5e-5)
        assert list(phases) == sorted(phases)
        assert all(0.0 <= p < 2 * PI for p in phases)

    def test_vacuum_branch_excluded(self, fig2_cfg):
        # at mag_i = |alpha_first| one intersection is the cancelling arm
        mag = abs(first_arm_amplitude(fig2_cfg))
        phases = tuner.phase_solutions(fig2_cfg, MASS, mag)
        assert len(phases) == 1
        cfg = with_reference(fig2_cfg, mag, phases[0])
        assert abs(detector_amplitude(cfg)) > 1e-12 * fig2_cfg.alpha0_mag

    def test_out_of_budget_magnitude_rejected(self, fig2_cfg):
        with pytest.raises(ValueError):
            tuner.phase_solutions(fig2_cfg, MASS, 0.6)

    def test_magnitude_bound_carries_the_budget_slack(self, fig2_cfg):
        sol = tuner.saturating_reference_set(fig2_cfg, MASS)
        bound, slack = 0.5 * fig2_cfg.alpha0_mag, BUDGET_TOL * fig2_cfg.alpha0_mag
        assert len(sol.line_points(bound + slack / 2)) == 2
        with pytest.raises(EnergyBudgetError, match=r"reference arm \|alpha_i\|"):
            sol.line_points(bound + 2 * slack)
        for mag in (-1e-300, math.nan):
            with pytest.raises(ValueError, match="must be >= 0"):
                sol.line_points(mag)

    def test_returned_solutions_saturate(self, fig2_cfg):
        for mag in (1.16e-5, 2e-5, 4.5e-5, 3e-4, 0.01):
            for phi in tuner.phase_solutions(fig2_cfg, MASS, mag):
                cfg = with_reference(fig2_cfg, mag, phi)
                rep = fisher.fisher_report(cfg, MASS)
                assert rep.saturation_ratio >= 1.0 - 1e-9

    def test_randomized_solutions_saturate_both_targets(self):
        rng = np.random.default_rng(97)
        checked = 0
        while checked < 150:
            cfg = FieldConfig(
                alpha_r=cmath.rect(rng.uniform(0.01, 0.3), rng.uniform(0, 2 * PI)),
                particle=ParticleModel(
                    1.0, rng.uniform(1e-3, 0.15), rng.uniform(0, 2 * PI)
                ),
            )
            if abs(first_arm_amplitude(cfg)) > 0.5:
                continue
            target = MASS if rng.random() < 0.5 else PHASE
            sol = tuner.saturating_reference_set(cfg, target)
            mag = sol.min_mag_i + rng.uniform(0.05, 0.9) * (
                0.5 * cfg.alpha0_mag - sol.min_mag_i
            )
            for phi in sol.solutions_at(mag):
                cfg_ref = with_reference(cfg, mag, phi)
                # skip solutions within phase round-off of the vacuum
                if abs(detector_amplitude(cfg_ref)) < 1e-8 * cfg.alpha0_mag:
                    continue
                rep = fisher.fisher_report(cfg_ref, target)
                assert rep.saturation_ratio >= 1.0 - 1e-9
                checked += 1


class TestBruteForceOracles:
    def brute_min_by_line_offset(self, cfg, target, mag_hi):
        """201x201 grid search: smallest magnitude whose best cell puts the
        detector label within half a magnitude-cell of the alignment line."""
        sol = tuner.saturating_reference_set(cfg, target)
        mags = np.linspace(0.0, mag_hi, 201)
        phis = np.linspace(0.0, 2 * PI, 201)
        first = first_arm_amplitude(cfg)
        labels = first + mags[:, None] * np.exp(1j * phis[None, :])
        offset = np.abs((labels * np.exp(-1j * sol.psi)).imag)
        cell = mags[1] - mags[0]
        reachable = offset.min(axis=1) <= 0.5 * cell
        assert reachable.any()
        return float(mags[np.argmax(reachable)])

    def test_min_mag_matches_brute_force_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            cfg = FieldConfig(
                alpha_r=cmath.rect(rng.uniform(0.05, 0.3), rng.uniform(0, 2 * PI)),
                particle=ParticleModel(
                    1.0, rng.uniform(0.01, 0.15), rng.uniform(0, 2 * PI)
                ),
            )
            if abs(first_arm_amplitude(cfg)) > 0.45:
                continue
            target = MASS if rng.random() < 0.5 else PHASE
            sol = tuner.saturating_reference_set(cfg, target)
            brute = self.brute_min_by_line_offset(cfg, target, 0.5)
            assert abs(brute - sol.min_mag_i) <= 0.5 / 200

    def test_worked_config_by_ratio_maximization(self, fig2_cfg):
        # same 2-D search, scoring cells by the saturation ratio instead
        mags = np.linspace(0.0, 2.5e-5, 201)
        phis = np.linspace(0.0, 2 * PI, 201)
        first = first_arm_amplitude(fig2_cfg)
        psi = cmath.phase(target_derivative(fig2_cfg, MASS))
        labels = first + mags[:, None] * np.exp(1j * phis[None, :])
        with np.errstate(invalid="ignore"):
            cos = np.cos(psi - np.angle(labels))
            best = np.nanmax(cos * cos, axis=1)
        brute = mags[np.argmax(best >= 0.95)]
        sol = tuner.saturating_reference_set(fig2_cfg, MASS)
        # a ratio threshold goes soft just below tangency (high ratios exist
        # slightly off the line), so it localizes to two cells, not one
        assert abs(brute - sol.min_mag_i) <= 2 * (mags[1] - mags[0])
        assert best[np.searchsorted(mags, sol.min_mag_i) + 1 :].min() > 0.999


class TestScanGrid:
    def test_cells_match_independent_evaluations(self, fig2_cfg):
        grid = tuner.scan_ratio_grid(
            fig2_cfg,
            MASS,
            tuner.AxisSpec.linspace("phi_s", 0.1, 2 * PI - 0.1, 11),
            tuner.AxisSpec.linspace("phi_i", 0.1, 2 * PI - 0.1, 7),
        )
        for iy in (0, 3, 6):
            for ix in (0, 5, 10):
                cfg = tuner.apply_axis(fig2_cfg, "phi_i", float(grid.y.values[iy]))
                cfg = tuner.apply_axis(cfg, "phi_s", float(grid.x.values[ix]))
                rep = fisher.fisher_report(cfg, MASS)
                assert grid.values[iy, ix] == rep.saturation_ratio

    def test_vacuum_cell_marked_undefined(self, fig2_cfg):
        first = first_arm_amplitude(fig2_cfg)
        grid = tuner.scan_ratio_grid(
            fig2_cfg,
            MASS,
            tuner.AxisSpec("mag_i", np.array([0.5 * abs(first), abs(first)])),
            tuner.AxisSpec("phi_i", np.array([cmath.phase(-first) % (2 * PI)])),
        )
        assert not math.isnan(grid.values[0, 0])
        assert math.isnan(grid.values[0, 1])

    def test_one_dimensional_scan_shape(self, fig2_cfg):
        grid = tuner.scan_ratio_grid(
            fig2_cfg, MASS, tuner.AxisSpec.logspace("alpha_r_mag", 1e-7, 1e-1, 13)
        )
        assert grid.values.shape == (1, 13)
        assert grid.y is None

    @pytest.mark.parametrize(
        "reference,x,y",
        [
            (None, ("mag_i", 0.0, 4e-5, 5), None),
            (None, ("alpha_r_mag", 1e-6, 1e-4, 4), ("phi_s", 0.1, 6.0, 3)),
            (None, ("phi_s", 0.0, 6.0, 4), ("mag_i", 0.0, 4e-5, 3)),
            ((3e-5, 0.5), ("phi_i", 0.0, 6.0, 4), ("phi_i", 1.0, 2.0, 3)),
            ((3e-5, 0.5), ("mag_i", 0.0, 4e-5, 4), ("alpha_r_mag", 0.0, 1e-4, 3)),
        ],
        ids=["mag_i_no_arm", "alpha_r_by_phi_s", "phi_s_by_mag_i",
             "same_axis_x_wins", "mag_i_by_alpha_r"],
    )
    def test_cells_match_sequential_apply_axis(self, fig2_cfg, reference, x, y):
        base = fig2_cfg if reference is None else with_reference(fig2_cfg, *reference)
        xs = tuner.AxisSpec.linspace(*x)
        ys = tuner.AxisSpec.linspace(*y) if y is not None else None
        grid = tuner.scan_ratio_grid(base, MASS, xs, ys)
        for iy in range(grid.values.shape[0]):
            row = base
            if ys is not None:
                row = tuner.apply_axis(base, ys.name, float(ys.values[iy]))
            for ix, value in enumerate(xs.values):
                cfg = tuner.apply_axis(row, xs.name, float(value))
                rep = fisher.fisher_report(cfg, MASS)
                assert grid.values[iy, ix] == rep.saturation_ratio

    def test_cells_match_reports_around_vacuum(self, fig2_cfg):
        # mag_i = |alpha_first| at ix = 2 and the cancelling phase at iy = 1
        # put exactly one vacuum cell in the grid
        first = first_arm_amplitude(fig2_cfg)
        x = tuner.AxisSpec.linspace("mag_i", 0.0, 2 * abs(first), 5)
        y = tuner.AxisSpec(
            "phi_i", np.array([0.3, cmath.phase(-first) % (2 * PI), 4.0])
        )
        grid = tuner.scan_ratio_grid(fig2_cfg, MASS, x, y)
        undefined = []
        for iy, phi in enumerate(y.values):
            for ix, mag in enumerate(x.values):
                cfg = tuner.apply_axis(fig2_cfg, "phi_i", float(phi))
                cfg = tuner.apply_axis(cfg, "mag_i", float(mag))
                try:
                    want = fisher.fisher_report(cfg, MASS).saturation_ratio
                except NotEstimableError:
                    undefined.append((iy, ix))
                    continue
                assert grid.values[iy, ix] == want
        assert undefined == [(1, 2)]
        assert [tuple(c) for c in np.argwhere(np.isnan(grid.values))] == undefined

    def test_zero_mass_phase_target_all_undefined(self):
        cfg = FieldConfig(alpha_r=0.1, particle=ParticleModel(0.0, 1.0, 0.0))
        grid = tuner.scan_ratio_grid(
            cfg,
            PHASE,
            tuner.AxisSpec.linspace("phi_s", 0.0, 2 * PI, 7),
            tuner.AxisSpec.linspace("alpha_r_mag", 0.01, 0.4, 3),
        )
        assert grid.values.shape == (3, 7)
        assert np.isnan(grid.values).all()

    def test_over_budget_cell_rejected(self, fig2_cfg):
        x = tuner.AxisSpec.linspace("alpha_r_mag", 0.1, 0.9, 5)
        with pytest.raises(EnergyBudgetError, match="alpha0_mag/2"):
            tuner.scan_ratio_grid(fig2_cfg, MASS, x)

    def test_unknown_axis_rejected(self, fig2_cfg):
        with pytest.raises(ValueError, match="unknown axis"):
            tuner.AxisSpec.linspace("mass_kda", 0.0, 1.0, 5)
        with pytest.raises(ValueError, match="unknown axis"):
            tuner.apply_axis(fig2_cfg, "nope", 1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: tuner.AxisSpec.linspace("phi_s", 0.0, 1.0, 0),
            lambda: tuner.AxisSpec.linspace("phi_s", 0.0, math.nan, 5),
            lambda: tuner.AxisSpec.logspace("phi_s", 1.0, math.inf, 5),
            lambda: tuner.AxisSpec("phi_s", np.array([])),
            lambda: tuner.AxisSpec("phi_s", np.array([0.0, math.nan])),
        ],
        ids=["zero_steps", "nan_bound", "inf_bound", "empty", "nan_value"],
    )
    def test_empty_or_non_finite_axis_rejected(self, make):
        with pytest.raises(ValueError, match="axis 'phi_s'"):
            make()

    @pytest.mark.parametrize("scale", ["linspace", "logspace"])
    def test_axis_steps_capped_before_allocating(self, scale):
        make = getattr(tuner.AxisSpec, scale)
        with pytest.raises(ValueError, match="axis 'phi_s': 10000001 steps exceed"):
            make("phi_s", 1.0, 2.0, tuner.MAX_CELLS + 1)

    def test_grid_cells_capped_before_computing(self, fig2_cfg, monkeypatch):
        # cap + 1 = 11 x 909091 cells from two small axes
        x = tuner.AxisSpec.linspace("phi_s", 0.0, 1.0, 11)
        y = tuner.AxisSpec.linspace("phi_i", 0.0, 1.0, (tuner.MAX_CELLS + 1) // 11)
        assert x.values.size * y.values.size == tuner.MAX_CELLS + 1
        with pytest.raises(ValueError, match="10000001 cells .* exceeds the cap"):
            tuner.scan_ratio_grid(fig2_cfg, MASS, x, y)
        # the cap itself is allowed
        monkeypatch.setattr(tuner, "MAX_CELLS", 12)
        x = tuner.AxisSpec.linspace("phi_s", 0.0, 1.0, 3)
        y = tuner.AxisSpec.linspace("phi_i", 0.0, 1.0, 4)
        assert tuner.scan_ratio_grid(fig2_cfg, MASS, x, y).values.shape == (4, 3)
        with pytest.raises(ValueError, match="13 steps exceed the cap of 12"):
            tuner.AxisSpec.linspace("phi_s", 0.0, 1.0, 13)
        y = tuner.AxisSpec.linspace("phi_i", 0.0, 1.0, 5)
        with pytest.raises(ValueError, match="15 cells .* exceeds the cap of 12"):
            tuner.scan_ratio_grid(fig2_cfg, MASS, x, y)

    def test_csv_and_header(self, tmp_path, fig2_cfg):
        grid = tuner.scan_ratio_grid(
            fig2_cfg,
            MASS,
            tuner.AxisSpec.linspace("phi_s", 0.0, 2 * PI, 5),
            tuner.AxisSpec.linspace("phi_i", 0.0, 2 * PI, 3),
        )
        path = tmp_path / "grid.csv"
        grid.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "x,y,ratio,defined_flag"
        assert len(lines) == 1 + 15
        header = grid.header_dict()
        assert header["target"] == "mass"
        assert header["x"]["name"] == "phi_s"
        assert header["shape"] == [3, 5]
        assert header["baseline"]["alpha_r"]["re"] == 2.3e-5
        # extreme axis and ratio values, and undefined cells, read back exactly
        x = tuner.AxisSpec("phi_s", np.array([*EXTREME_FLOATS, 1.0, 2.0]))
        values = np.full((3, 5), math.nan)
        values[1, :3] = values[2, 2:] = EXTREME_FLOATS
        tuner.ScanGrid(x, grid.y, grid.base, MASS, values).to_csv(path)
        cols = read_csv_columns(path)
        assert same_bits(cols["x"], np.tile(x.values, 3))
        assert same_bits(cols["y"], np.repeat(grid.y.values, 5))
        defined = [flag == "1" for flag in cols["defined_flag"]]
        assert defined == list(~np.isnan(values.ravel()))
        ratio = [c for c, ok in zip(cols["ratio"], defined) if ok]
        assert same_bits(ratio, values[~np.isnan(values)])
        # 1-D scans leave y blank
        tuner.ScanGrid(x, None, grid.base, MASS, values[1:2]).to_csv(path)
        assert read_csv_columns(path)["y"] == [""] * 5


@pytest.mark.parametrize("preset", sorted(_scan_presets()))
def test_preset_csv_matches_cell_by_cell_oracle(tmp_path, preset):
    out = tmp_path / f"{preset}.csv"
    assert main(["scan", "--preset", preset, "--out", str(out)]) == 0
    grid = tuner.scan_ratio_grid(*_scan_presets()[preset])
    rows = (
        (x, y, ratio, "0" if math.isnan(ratio) else "1")
        for y, ratios in zip(grid.y.values.tolist(), grid.values.tolist())
        for x, ratio in zip(grid.x.values.tolist(), ratios)
    )
    expected = oracle_csv(["x", "y", "ratio", "defined_flag"], rows)
    assert out.read_bytes() == expected
