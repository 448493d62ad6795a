import cmath
import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    EXTREME_FLOATS, fig2_config, oracle_csv, read_csv_columns, same_bits
)
from iscat_metrology import fisher, tuner
from iscat_metrology.cli import SCAN_PRESETS, _parse_axis, main
from iscat_metrology.field import (
    BUDGET_TOL,
    EstimationTarget,
    FieldConfig,
    ParticleModel,
    ReferenceArm,
    detector_amplitude,
    first_arm_amplitude,
    target_derivative,
    wrap_angle,
)
from iscat_metrology.fisher import NotEstimableError
from iscat_metrology.textio import CHUNK_ROWS

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


def apply_axis(cfg, name, value):
    """Per-cell reference of a scan: ``cfg`` with one scan parameter set to
    ``value``, through the config types, so it is validated and wrapped as
    a single configuration is."""
    if name in ("alpha_r_mag", "mag_i") and value < 0.0:
        raise ValueError(f"axis {name!r} needs magnitudes >= 0, got {value!r}")
    if name == "alpha_r_mag":
        z = cfg.alpha_r
        angle = math.atan2(z.imag, z.real) if z != 0 else 0.0
        return replace(cfg, alpha_r=cmath.rect(value, angle))
    if name == "phi_s":
        return replace(cfg, particle=replace(cfg.particle, phi_s=wrap_angle(value)))
    if name == "mag_i":
        return replace(cfg, reference=ReferenceArm(value, cfg.arm.phi_i))
    assert name == "phi_i"
    return replace(cfg, reference=ReferenceArm(cfg.arm.mag, wrap_angle(value)))


def reference_ratios(base, target, xs, ys=None):
    """The ratio of each scan cell from its own config's Fisher report (NaN
    where the report finds the cell not estimable), y set before x."""
    rows = []
    for y_value in ys.values if ys is not None else [None]:
        row = base if ys is None else apply_axis(base, ys.name, float(y_value))
        rows.append([])
        for value in xs.values:
            cfg = apply_axis(row, xs.name, float(value))
            try:
                rows[-1].append(fisher.fisher_report(cfg, target).saturation_ratio)
            except NotEstimableError:
                rows[-1].append(math.nan)
    return np.array(rows)


#: Small axes over each scan parameter; the angles run past [0, 2*pi), so
#: they are wrapped.
CELL_AXES = {
    "alpha_r_mag": ("alpha_r_mag", 0.0, 1e-4, 4),
    "phi_s": ("phi_s", -1.0, 7.0, 5),
    "mag_i": ("mag_i", 0.0, 4e-5, 3),
    "phi_i": ("phi_i", -0.5, 6.9, 6),
}
#: Each parameter on x and on y, for both targets, on a two-arm base; then
#: phi_i on an iSCAT base, where the arm it turns has magnitude 0.
_CYCLE = [*CELL_AXES]
_PAIRS = [(x, y, (3e-5, 0.5)) for x, y in zip(_CYCLE, _CYCLE[1:] + _CYCLE[:1])]
_PAIRS += [
    ("phi_i", "alpha_r_mag", None),
    ("alpha_r_mag", "phi_i", None),
    ("phi_i", None, None),
]
CELL_CASES = [
    pytest.param(
        arm, 0.7, target, CELL_AXES[x], CELL_AXES.get(y),
        id=f"{target.value}-{x}_by_{y or 'none'}{'' if arm else '_iscat'}",
    )
    for x, y, arm in _PAIRS
    for target in (MASS, PHASE)
]


class TestSaturatingReferenceSet:
    def test_worked_geometry(self, fig2_cfg):
        sol = tuner.saturating_reference_set(fig2_cfg, MASS)
        assert sol.min_mag_i == pytest.approx(1.15e-5, abs=1e-8)
        assert sol.psi == pytest.approx(5 * PI / 6)

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
        with pytest.raises(
            NotEstimableError,
            match="^target derivative vanishes; the parameter leaves no imprint$",
        ):
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
            assert sol.min_mag_i <= abs(first_arm_amplitude(cfg)) + 1e-15

    @pytest.mark.parametrize("target", [MASS, PHASE], ids=["mass", "phase"])
    def test_psi_matches_fisher_report_bit_for_bit(self, target):
        # `fisher` and `optimize` print psi for the same config, so both take
        # it from the one angle rule; libm's atan2 and numpy's arctan2
        # disagree in the last bit on a few percent of random inputs
        rng = np.random.default_rng(13)
        differ = []
        for _ in range(3000):
            # |alpha_r|, |alpha_s| <= alpha0/4 and |alpha_i| <= alpha0/2
            alpha0, mass = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-2, 3)
            angles = rng.uniform(0, 2 * PI, 3)
            reference = None
            if rng.random() < 0.5:
                reference = ReferenceArm(rng.uniform(0, 0.5 * alpha0), angles[2])
            cfg = FieldConfig(
                alpha_r=cmath.rect(rng.uniform(0, 0.25 * alpha0), angles[0]),
                particle=ParticleModel(
                    mass, rng.uniform(1e-3, 0.25) * alpha0 / mass, angles[1]
                ),
                reference=reference,
                alpha0_mag=alpha0,
            )
            psi = fisher.fisher_report(cfg, target).psi
            if psi != tuner.saturating_reference_set(cfg, target).psi:
                differ.append(cfg)
        assert differ == []


class TestPhaseSolutions:
    def test_solution_count_trichotomy(self, fig2_cfg):
        sol = tuner.saturating_reference_set(fig2_cfg, MASS)
        assert sol.solutions_at(1.0e-5) == ()
        assert len(sol.solutions_at(sol.min_mag_i)) == 1
        assert len(sol.solutions_at(4.5e-5)) == 2

    def test_solutions_sorted_and_in_range(self, fig2_cfg):
        phases = tuner.saturating_reference_set(fig2_cfg, MASS).solutions_at(4.5e-5)
        assert list(phases) == sorted(phases)
        assert all(0.0 <= p < 2 * PI for p in phases)

    def test_vacuum_branch_excluded(self, fig2_cfg):
        # at mag_i = |alpha_first| one intersection is the cancelling arm
        mag = abs(first_arm_amplitude(fig2_cfg))
        phases = tuner.saturating_reference_set(fig2_cfg, MASS).solutions_at(mag)
        assert len(phases) == 1
        cfg = with_reference(fig2_cfg, mag, phases[0])
        assert abs(detector_amplitude(cfg)) > 1e-12 * fig2_cfg.alpha0_mag

    def test_out_of_budget_magnitude_rejected(self, fig2_cfg):
        with pytest.raises(ValueError):
            tuner.saturating_reference_set(fig2_cfg, MASS).solutions_at(0.6)

    def test_magnitude_bound_carries_the_budget_slack(self, fig2_cfg):
        sol = tuner.saturating_reference_set(fig2_cfg, MASS)
        bound, slack = 0.5 * fig2_cfg.alpha0_mag, BUDGET_TOL * fig2_cfg.alpha0_mag
        assert len(sol.line_points(bound + slack / 2)) == 2
        with pytest.raises(
            ValueError, match=r"^reference arm \|alpha_i\| = .* exceeds the bound"
        ):
            sol.line_points(bound + 2 * slack)
        for mag in (-1e-300, math.nan):
            with pytest.raises(ValueError, match="must be >= 0"):
                sol.line_points(mag)

    def test_returned_solutions_saturate(self, fig2_cfg):
        sol = tuner.saturating_reference_set(fig2_cfg, MASS)
        for mag in (1.16e-5, 2e-5, 4.5e-5, 3e-4, 0.01):
            for phi in sol.solutions_at(mag):
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
                cfg = apply_axis(fig2_cfg, "phi_i", float(grid.y.values[iy]))
                cfg = apply_axis(cfg, "phi_s", float(grid.x.values[ix]))
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
        "reference,r_phase,target,x,y",
        [
            pytest.param(
                None, None, MASS, ("mag_i", 0.0, 4e-5, 5), None, id="mag_i_no_arm"
            ),
            pytest.param(
                None, None, MASS, ("alpha_r_mag", 1e-6, 1e-4, 4),
                ("phi_s", 0.1, 6.0, 3), id="alpha_r_by_phi_s",
            ),
            pytest.param(
                None, None, MASS, ("phi_s", 0.0, 6.0, 4), ("mag_i", 0.0, 4e-5, 3),
                id="phi_s_by_mag_i",
            ),
            pytest.param(
                (3e-5, 0.5), None, MASS, ("mag_i", 0.0, 4e-5, 4),
                ("alpha_r_mag", 0.0, 1e-4, 3), id="mag_i_by_alpha_r",
            ),
            *CELL_CASES,
        ],
    )
    def test_cells_match_sequential_apply_axis(
        self, fig2_cfg, reference, r_phase, target, x, y
    ):
        base = fig2_cfg
        if r_phase is not None:
            # a phase of alpha_r for alpha_r_mag to keep, and a mass other
            # than 1 for the phase derivative to scale by
            base = FieldConfig(
                alpha_r=cmath.rect(2.3e-5, r_phase),
                particle=ParticleModel(3.0, 2e-5 / 3, 5 * PI / 6),
            )
        if reference is not None:
            base = with_reference(base, *reference)
        xs = tuner.AxisSpec.linspace(*x)
        ys = tuner.AxisSpec.linspace(*y) if y is not None else None
        grid = tuner.scan_ratio_grid(base, target, xs, ys).values
        want = reference_ratios(base, target, xs, ys)
        assert grid.shape == want.shape
        assert np.array_equal(np.isnan(grid), np.isnan(want))
        assert grid[~np.isnan(grid)].tobytes() == want[~np.isnan(want)].tobytes()

    def test_negative_magnitudes_on_both_axes_name_the_y_value(self, fig2_cfg):
        # the whole y axis is checked before the x axis
        base = with_reference(fig2_cfg, 3e-5, 0.5)
        x = tuner.AxisSpec("mag_i", np.array([1e-5, -2e-5, -3e-5]))
        y = tuner.AxisSpec("alpha_r_mag", np.array([1e-5, -4e-5, -5e-5]))
        message = "axis 'alpha_r_mag' needs magnitudes >= 0, got -4e-05"
        with pytest.raises(ValueError, match=re.escape(message)):
            tuner.scan_ratio_grid(base, MASS, x, y)
        with pytest.raises(ValueError, match=r"'mag_i' needs .* got -2e-05$"):
            tuner.scan_ratio_grid(base, MASS, x)

    def test_two_axes_on_one_parameter_rejected(self, fig2_cfg):
        # a y axis over x's parameter would add a column no ratio depends on
        base = with_reference(fig2_cfg, 3e-5, 0.5)
        x = tuner.AxisSpec.linspace("phi_i", 0.0, 6.0, 4)
        y = tuner.AxisSpec.linspace("phi_i", 1.0, 2.0, 3)
        with pytest.raises(ValueError, match="x and y axes both set 'phi_i'"):
            tuner.scan_ratio_grid(base, MASS, x, y)

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
                cfg = apply_axis(fig2_cfg, "phi_i", float(phi))
                cfg = apply_axis(cfg, "mag_i", float(mag))
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
        with pytest.raises(ValueError, match="exceeds the bound alpha0_mag/2"):
            tuner.scan_ratio_grid(fig2_cfg, MASS, x)

    def test_unknown_axis_rejected(self, fig2_cfg):
        with pytest.raises(ValueError, match="unknown axis"):
            tuner.AxisSpec.linspace("mass_kda", 0.0, 1.0, 5)
        with pytest.raises(ValueError, match="unknown axis"):
            tuner.AxisSpec("nope", np.array([1.0]))

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

    def test_axis_steps_cap_admits_the_cap_itself(self):
        # only the range check runs: no axis of 10**7 values is allocated
        assert tuner.AxisSpec._check_range("phi_s", 0.0, 1.0, tuner.MAX_CELLS) is None
        message = "axis 'phi_s': 10000001 steps exceed the cap of 10000000"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tuner.AxisSpec._check_range("phi_s", 0.0, 1.0, tuner.MAX_CELLS + 1)

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


@pytest.mark.parametrize("preset", sorted(SCAN_PRESETS))
def test_preset_csv_matches_cell_by_cell_oracle(tmp_path, preset):
    out = tmp_path / f"{preset}.csv"
    assert main(["scan", "--preset", preset, "--out", str(out)]) == 0
    options = SCAN_PRESETS[preset]
    grid = tuner.scan_ratio_grid(
        options["config"], EstimationTarget(options["target"]),
        _parse_axis(options["x_axis"]), _parse_axis(options["y_axis"]),
    )
    assert out.read_bytes() == oracle_scan_csv(grid)


def oracle_scan_csv(grid) -> bytes:
    """A scan CSV as a cell-by-cell writer makes it: x, y (blank in 1-D),
    ratio and defined_flag per cell, x fastest."""
    ys = [""] if grid.y is None else grid.y.values.tolist()
    rows = (
        (x, y, ratio, "0" if math.isnan(ratio) else "1")
        for y, ratios in zip(ys, grid.values.tolist())
        for x, ratio in zip(grid.x.values.tolist(), ratios)
    )
    return oracle_csv(["x", "y", "ratio", "defined_flag"], rows)


def grid_with_nan_at(cells, nx, ny, two_d=True):
    """A grid of random ratios, NaN at the given flat cell indices."""
    values = np.random.default_rng(nx * ny).random(nx * ny)
    values[list(cells)] = math.nan
    return tuner.ScanGrid(
        tuner.AxisSpec.linspace("phi_s", 0.0, 2 * PI, nx),
        tuner.AxisSpec.linspace("phi_i", 0.0, 2 * PI, ny) if two_d else None,
        fig2_config(),
        MASS,
        values.reshape(ny, nx),
    )


def test_scan_csv_across_chunk_boundaries_matches_the_oracle(tmp_path):
    # nx does not divide CHUNK_ROWS, so a chunk starts inside a grid row
    assert CHUNK_ROWS % 1000 != 0
    grid = grid_with_nan_at([0, CHUNK_ROWS - 1, CHUNK_ROWS, 9999], 1000, 10)
    grid.to_csv(tmp_path / "grid.csv")
    assert (tmp_path / "grid.csv").read_bytes() == oracle_scan_csv(grid)
    one_d = grid_with_nan_at([CHUNK_ROWS - 1, CHUNK_ROWS], CHUNK_ROWS + 3, 1, False)
    one_d.to_csv(tmp_path / "line.csv")
    assert (tmp_path / "line.csv").read_bytes() == oracle_scan_csv(one_d)


def test_scan_csv_makes_no_python_call_per_cell(tmp_path):
    grid = grid_with_nan_at([CHUNK_ROWS - 1, CHUNK_ROWS], 1000, 3 * CHUNK_ROWS // 1000)
    path = tmp_path / "grid.csv"
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        grid.to_csv(path)
    finally:
        sys.setprofile(None)
    # a handful of calls per column and per chunk (and per NaN), none per cell
    assert calls < 50, calls
