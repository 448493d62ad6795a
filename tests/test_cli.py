import csv
import errno
import hashlib
import json
import math
import os
import re
import socket
import threading
from pathlib import Path

import numpy as np
import pytest

import output_digests
from builders import flat_white_spectrum
from conftest import (
    fig2_config,
    run_fresh,
    run_fresh_cli,
    vacuum_config,
    worked_example_config,
)
from iscat_metrology import cli, spectrum as sp, tuner
from iscat_metrology.cli import SCAN_PRESETS, main
from iscat_metrology.field import (
    FieldConfig,
    ParticleModel,
    ReferenceArm,
    config_to_dict,
)

PI = math.pi


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def read_grid(csv_path):
    header = json.load(open(str(csv_path) + ".header.json"))
    rows = read_csv(csv_path)
    ny, nx = header["shape"]
    vals = np.array(
        [float(r["ratio"]) if r["defined_flag"] == "1" else np.nan for r in rows]
    ).reshape(ny, nx)
    return header, vals


class TestFisherCommand:
    def test_worked_example_bound(self, tmp_path, config_file):
        cfg_path = config_file(worked_example_config())
        out = tmp_path / "report.json"
        assert main(["fisher", "--config", str(cfg_path), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["qcrb_coherent"] == pytest.approx(2.27, abs=5e-3)
        assert data["report"]["saturation_ratio"] == 1.0
        assert data["setup"] == "iscat"

    def test_negative_zero_phase_writes_zero(self, tmp_path):
        # an angle in [0, 2*pi) holds no -0.0, which the JSON would spell out
        cfg = json.loads((CONFIGS / "worked_example.json").read_text())
        cfg["particle"]["phi_s"] = -0.0
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        assert main(["fisher", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert '"psi": 0.0,' in out.read_text()
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        phi_s = manifest["arguments"]["config"]["particle"]["phi_s"]
        assert phi_s == 0.0 and math.copysign(1.0, phi_s) == 1.0

    def test_negative_zero_mass_writes_zero(self, tmp_path):
        # a mass of -0.0 is the mass 0.0, which the JSON would spell "-0.0"
        cfg = json.loads((CONFIGS / "two_arm_baseline.json").read_text())
        cfg["particle"]["mass_kda"] = -0.0
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        assert main(["fisher", "--config", str(cfg_path), "--out", str(out)]) == 0
        manifest = (tmp_path / "report.json.manifest.json").read_text()
        assert '"mass_kda": 0.0,' in manifest and "-0.0" not in manifest

    def test_vacuum_config_exits_3(self, tmp_path, config_file):
        cfg_path = config_file(vacuum_config())
        out = tmp_path / "report.json"
        assert main(["fisher", "--config", str(cfg_path), "--out", str(out)]) == 3

    def test_missing_config_exits_2(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["fisher", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
        assert rc == 2

    @pytest.mark.parametrize(
        "section,key,value,field",
        [
            ("alpha_r", "re", math.nan, "alpha_r.re"),
            ("particle", "phi_s", math.nan, "particle.phi_s"),
            (None, "alpha0_mag", math.inf, "alpha0_mag"),
            ("alpha_r", "im", -math.inf, "alpha_r.im"),
            ("particle", "mass_kda", math.inf, "particle.mass_kda"),
            ("particle", "scale_per_kda", math.nan, "particle.scale_per_kda"),
            ("reference", "mag", math.inf, "reference.mag"),
            ("reference", "phi_i", -math.inf, "reference.phi_i"),
        ],
    )
    def test_non_finite_input_exits_2(
        self, tmp_path, capsys, section, key, value, field
    ):
        d = config_to_dict(fig2_config())
        d["reference"] = {"mag": 4.5e-5, "phi_i": 0.0}
        (d[section] if section else d)[key] = value
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(d))  # writes NaN / Infinity tokens
        out = tmp_path / "report.json"
        assert main(["fisher", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {field} must be finite, got {value!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("particle", "mass_kda", -1.0, "particle.mass_kda must be >= 0, got -1.0"),
            ("particle", "scale_per_kda", 0,
             "particle.scale_per_kda must be > 0, got 0.0"),
            ("reference", "mag", -1.0, "reference.mag must be >= 0, got -1.0"),
            # each bound at its edge: zero of either sign, the least negative
            (None, "alpha0_mag", 0.0, "alpha0_mag must be > 0, got 0.0"),
            (None, "alpha0_mag", -0.0, "alpha0_mag must be > 0, got -0.0"),
            ("particle", "scale_per_kda", -1e-300,
             "particle.scale_per_kda must be > 0, got -1e-300"),
            ("particle", "mass_kda", -1e-300,
             "particle.mass_kda must be >= 0, got -1e-300"),
            ("reference", "mag", -1e-300, "reference.mag must be >= 0, got -1e-300"),
        ],
    )
    def test_out_of_range_field_exits_2_naming_it(
        self, tmp_path, capsys, section, key, value, message
    ):
        d = config_to_dict(fig2_config())
        d["reference"] = {"mag": 4.5e-5, "phi_i": 0.0}
        (d[section] if section else d)[key] = value
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(d))
        out = tmp_path / "report.json"
        assert main(["fisher", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_zero_information_exits_3_in_both_formats(
        self, tmp_path, capsys, config_file, fmt
    ):
        # the worked example is aligned for mass, so phase counting is blind
        cfg_path = config_file(worked_example_config())
        out = tmp_path / f"report.{fmt}"
        rc = main([
            "fisher", "--config", str(cfg_path), "--target", "phase",
            "--format", fmt, "--out", str(out),
        ])
        assert rc == 3
        assert "Fisher information 0.0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_csv_format(self, tmp_path, config_file):
        cfg_path = config_file(worked_example_config())
        out = tmp_path / "report.csv"
        rc = main([
            "fisher", "--config", str(cfg_path), "--out", str(out),
            "--format", "csv",
        ])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 1 and rows[0]["target"] == "mass"

    def test_manifest_sidecar(self, tmp_path, config_file):
        cfg_path = config_file(worked_example_config())
        out = tmp_path / "report.json"
        main(["fisher", "--config", str(cfg_path), "--out", str(out)])
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["subcommand"] == "fisher"
        assert manifest["tool_version"]
        assert manifest["timestamp"]
        assert manifest["arguments"]["config"]["particle"]["mass_kda"] == 66.0


class TestScanCommand:
    def test_fig2a_endpoints(self, tmp_path):
        out = tmp_path / "fig2a.csv"
        assert main(["scan", "--preset", "fig2a", "--out", str(out)]) == 0
        header, vals = read_grid(out)
        assert header["x"]["scale"] == "log"
        phases = header["y"]["values"]
        assert phases == pytest.approx([PI / 3, 2 * PI / 3, 5 * PI / 6])
        for iy, phi_s in enumerate(phases):
            # plot-range endpoints sit close to (not at) the asymptotes
            assert vals[iy, 0] == pytest.approx(1.0, abs=5e-3)
            assert vals[iy, -1] == pytest.approx(math.cos(phi_s) ** 2, abs=5e-3)

    def test_fig2b_every_column_saturable(self, tmp_path):
        out = tmp_path / "fig2b.csv"
        assert main(["scan", "--preset", "fig2b", "--out", str(out), "--threads", "2"]) == 0
        _, vals = read_grid(out)
        assert np.nanmax(vals, axis=0).min() > 0.999

    def test_unknown_preset_exits_2(self, tmp_path):
        rc = main(["scan", "--preset", "fig9z", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_custom_axes(self, tmp_path, config_file):
        cfg_path = config_file(fig2_config())
        out = tmp_path / "custom.csv"
        rc = main([
            "scan", "--config", str(cfg_path),
            "--x-axis", "alpha_r_mag:1e-7:1e-1:9:log",
            "--out", str(out),
        ])
        assert rc == 0
        header, vals = read_grid(out)
        assert header["y"] is None
        assert vals.shape == (1, 9)

    def test_json_format_single_file(self, tmp_path, config_file):
        cfg_path = config_file(fig2_config())
        out = tmp_path / "grid.json"
        rc = main([
            "scan", "--config", str(cfg_path),
            "--x-axis", "phi_i:0:6.28:5", "--y-axis", "mag_i:0:4e-5:3",
            "--out", str(out), "--format", "json",
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert len(data["ratio"]) == 3 and len(data["ratio"][0]) == 5

    @pytest.mark.parametrize("axis", ["phi_s:0:1:0", "phi_s:0:nan:5"])
    def test_empty_or_non_finite_axis_exits_2(
        self, tmp_path, capsys, config_file, axis
    ):
        cfg_path = config_file(fig2_config())
        out = tmp_path / "grid.csv"
        rc = main([
            "scan", "--config", str(cfg_path), "--x-axis", axis,
            "--out", str(out),
        ])
        assert rc == 2
        assert "axis 'phi_s'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "steps, expected", [(3, [-1e308, 0.0, 1e308]), (1, [-1e308])]
    )
    @pytest.mark.filterwarnings("error")
    def test_axis_wider_than_a_double_runs(
        self, tmp_path, config_file, steps, expected
    ):
        # HI - LO overflows a double, but every value on the axis is finite
        out = tmp_path / "grid.csv"
        rc = main([
            "scan", "--config", str(config_file(fig2_config())),
            f"--x-axis=phi_s:-1e308:1e308:{steps}", "--out", str(out),
        ])
        assert rc == 0
        assert [float(row["x"]) for row in read_csv(out)] == expected

    @pytest.mark.parametrize(
        "axis, message",
        [
            ("phi_s:0:1:1e3", "STEPS '1e3' is not a valid int"),
            ("phi_s:zero:1:5", "LO 'zero' is not a valid float"),
            ("phi_s:0:1e:5", "HI '1e' is not a valid float"),
        ],
    )
    def test_unparsable_axis_field_exits_2(
        self, tmp_path, capsys, config_file, axis, message
    ):
        cfg_path = config_file(fig2_config())
        out = tmp_path / "grid.csv"
        rc = main([
            "scan", "--config", str(cfg_path), "--x-axis", axis,
            "--out", str(out),
        ])
        assert rc == 2
        assert f"axis 'phi_s': {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "axes, message",
        [
            (["--x-axis", "phi_s:0:1:10000001"], "axis 'phi_s': 10000001 steps"),
            (
                ["--x-axis", "phi_s:0:1:11", "--y-axis", "phi_i:0:1:909091"],
                "grid of 10000001 cells (x axis 'phi_s', y axis 'phi_i')",
            ),
        ],
        ids=["steps", "cells"],
    )
    def test_oversized_scan_exits_2(self, tmp_path, capsys, config_file, axes, message):
        # one cell over tuner.MAX_CELLS, refused before the grid is allocated
        out = tmp_path / "o.csv"
        argv = ["scan", "--config", str(config_file(fig2_config())), *axes]
        assert main([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "axes, message",
        [
            (["--x-axis", "alpha_r_mag:-1e-3:1e-3:5"],
             "axis 'alpha_r_mag' needs magnitudes >= 0, got -0.001"),
            (["--x-axis", "mag_i:-1e-3:1e-3:5"],
             "axis 'mag_i' needs magnitudes >= 0, got -0.001"),
            (["--x-axis", "phi_i:0:6:4", "--y-axis", "phi_i:0:1:3"],
             "x and y axes both set 'phi_i'; scan it on one axis"),
            (["--x-axis", "phi_s:0:1:3", "--y-axis", ""],
             "axis spec '' is not NAME:LO:HI:STEPS[:log]"),
            (["--x-axis", "alpha_r_mag:1e-3:1e-3:5:log"],
             "log axis 'alpha_r_mag' needs 0 < lo < hi, got [0.001, 0.001]"),
        ],
        ids=[
            "negative_alpha_r_mag", "negative_mag_i", "same_parameter_twice",
            "empty_y_axis", "log_axis_of_one_value",
        ],
    )
    def test_ill_posed_axis_exits_2(
        self, tmp_path, capsys, config_file, axes, message
    ):
        # a negative magnitude would turn alpha_r by pi, or fail in
        # ReferenceArm without naming the axis; a second axis on x's
        # parameter would write a y column no ratio depends on; an empty y
        # axis is a malformed spec, not an absent one
        out = tmp_path / "grid.csv"
        argv = ["scan", "--config", str(config_file(fig2_config())), *axes]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_help_lists_every_preset(self, capsys):
        with pytest.raises(SystemExit):
            main(["scan", "--help"])
        listed = re.search(r"--preset PRESET\s+(\S+)", capsys.readouterr().out)[1]
        assert listed.split("|") == list(SCAN_PRESETS)

    @pytest.mark.parametrize("preset", list(SCAN_PRESETS))
    def test_preset_is_the_command_line_it_stands_for(self, tmp_path, preset):
        options = SCAN_PRESETS[preset]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config_to_dict(options["config"])))
        explicit = [
            "--config", str(cfg_path), "--target", options["target"],
            "--x-axis", options["x_axis"], "--y-axis", options["y_axis"],
        ]
        runs = []
        for name, given in (("preset", ["--preset", preset]), ("explicit", explicit)):
            out = tmp_path / f"{name}.csv"
            assert main(["scan", *given, "--out", str(out)]) == 0
            manifest = json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())
            data = [Path(path).read_bytes() for path in manifest["outputs"]]
            runs.append((data, manifest["arguments"]))
        (preset_data, preset_args), (explicit_data, explicit_args) = runs
        assert preset_data == explicit_data
        assert (preset_args.pop("preset"), explicit_args.pop("preset")) == (preset, None)
        assert preset_args == explicit_args

    @pytest.mark.parametrize("subcommand", ["scan", "snr"])
    @pytest.mark.parametrize(
        "spec, message",
        [
            ("phi_s:1,,2", "axis 'phi_s': value '' is not a valid float"),
            ("phi_s:1,x", "axis 'phi_s': value 'x' is not a valid float"),
            ("phi_s:1,1e999", "axis 'phi_s' needs finite values: [ 1. inf]"),
            ("bogus:1,2", None),
        ],
        ids=["empty_cell", "non_numeric_cell", "non_finite_cell", "unknown_name"],
    )
    def test_hostile_listed_axis_exits_2(
        self, tmp_path, capsys, config_file, subcommand, spec, message
    ):
        argv = {
            "scan": ["scan", "--config", str(config_file(fig2_config())), "--x-axis"],
            "snr": ["snr", "--sweep"],
        }[subcommand]
        if message is None:  # snr names its two phases before parsing the axis
            message = {
                "scan": "unknown axis 'bogus'; expected one of "
                        "('alpha_r_mag', 'phi_s', 'mag_i', 'phi_i')",
                "snr": "--sweep runs over phi_i or phi_s, not 'bogus'",
            }[subcommand]
        before = _snapshot(tmp_path)
        assert main([*argv, spec, "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert _snapshot(tmp_path) == before

    def test_over_budget_axis_exits_2(self, tmp_path, capsys, config_file):
        cfg_path = config_file(fig2_config())
        out = tmp_path / "grid.csv"
        rc = main([
            "scan", "--config", str(cfg_path),
            "--x-axis", "alpha_r_mag:0.1:0.9:5", "--out", str(out),
        ])
        assert rc == 2
        assert "alpha0_mag/2" in capsys.readouterr().err
        assert not out.exists()

    def test_subnormal_alpha_r_phase_scans(self, tmp_path):
        # the argument of 2 + 5e-324j underflows; cmath.phase raised on it
        cfg = config_to_dict(fig2_config())
        cfg.update(alpha0_mag=10.0, alpha_r={"re": 2.0, "im": 5e-324})
        cfg_path = tmp_path / "subnormal.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "grid.csv"
        rc = main([
            "scan", "--config", str(cfg_path),
            "--x-axis", "alpha_r_mag:1:2:3", "--out", str(out),
        ])
        assert rc == 0
        assert len(read_csv(out)) == 3

    def test_thread_count_byte_identical(self, tmp_path, config_file):
        cfg_path = config_file(fig2_config())
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"scan_t{threads}.csv"
            rc = main([
                "scan", "--config", str(cfg_path),
                "--x-axis", "phi_s:0:6.2831853:31",
                "--y-axis", "phi_i:0:6.2831853:17",
                "--out", str(out), "--threads", threads,
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestOptimizeCommand:
    def test_fig2_baseline_minimum(self, tmp_path, config_file):
        cfg = fig2_config()
        cfg = FieldConfig(
            alpha_r=cfg.alpha_r, particle=cfg.particle,
            reference=ReferenceArm(4.5e-5, 0.0),
        )
        cfg_path = config_file(cfg)
        out = tmp_path / "opt.json"
        assert main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["min_mag_i"] == pytest.approx(1.15e-5, abs=1e-8)
        assert data["feasible"] is True
        assert len(data["phi_solutions_at_reference_mag"]) == 2

    def test_aligned_baseline_zero(self, tmp_path, config_file):
        cfg = FieldConfig(alpha_r=0.1, particle=ParticleModel(1.0, 0.05, 0.0))
        cfg_path = config_file(cfg)
        out = tmp_path / "opt.json"
        assert main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["min_mag_i"] == 0.0

    def test_zero_reference_magnitude_has_no_solutions(
        self, tmp_path, capsys, config_file
    ):
        # a reference arm switched off is a valid setting, below min_mag_i
        cfg = fig2_config()
        cfg = FieldConfig(
            alpha_r=cfg.alpha_r, particle=cfg.particle,
            reference=ReferenceArm(0.0, 0.0),
        )
        out = tmp_path / "opt.json"
        argv = ["optimize", "--config", str(config_file(cfg)), "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        data = json.loads(out.read_text())
        assert data["reference_mag"] == 0.0
        assert data["phi_solutions_at_reference_mag"] == []

    def test_negative_zero_reference_magnitude_writes_zero(self, tmp_path):
        cfg = json.loads((CONFIGS / "two_arm_baseline.json").read_text())
        cfg["reference"]["mag"] = -0.0
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "opt.json"
        assert main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert '"reference_mag": 0.0,' in out.read_text()

    def test_over_budget_exits_2(self, tmp_path, capsys, config_file):
        cfg = FieldConfig(alpha_r=0.9, particle=ParticleModel(1.0, 1e-5, 0.0))
        cfg_path = config_file(cfg)
        out = tmp_path / "opt.json"
        assert main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "sample arm |alpha_r + alpha_s|" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "subcommand, extra",
        [("fisher", []), ("optimize", []), ("montecarlo", ["--seed", "1"])],
        ids=["fisher", "optimize", "montecarlo"],
    )
    def test_zero_derivative_exits_3(
        self, tmp_path, config_file, capsys, subcommand, extra
    ):
        # a phase target at mass 0: every subcommand finds it not estimable
        cfg = FieldConfig(
            alpha_r=0.1, particle=ParticleModel(0.0, 1.0, 0.0),
            reference=ReferenceArm(0.2, 0.5),
        )
        cfg_path = config_file(cfg)
        out = tmp_path / "out.json"
        rc = main([
            subcommand, "--config", str(cfg_path), "--target", "phase",
            "--out", str(out), *extra,
        ])
        assert rc == 3
        assert capsys.readouterr().err == (
            "not estimable: target derivative vanishes; the parameter leaves no imprint\n"
        )
        assert list(tmp_path.iterdir()) == [cfg_path]


class TestSnrCommand:
    def test_preset_figsnr1(self, tmp_path):
        out = tmp_path / "snr1.csv"
        assert main(["snr", "--preset", "figsnr1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 721
        miscat = np.array([float(r["snr_miscat"]) for r in rows])
        iscat = np.array([float(r["snr_iscat"]) for r in rows])
        assert miscat.max() > iscat.max() + 1e-3  # tuning the arm helps

    def test_preset_figsnr2_log_metadata_and_slopes(self, tmp_path):
        out = tmp_path / "snr2.csv"
        assert main(["snr", "--preset", "figsnr2", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# log_scale: true" in text
        rows = read_csv(out)
        phi_s = np.array([float(r["phi_s"]) for r in rows])
        for column, expected in (("snr_iscat", 2.0), ("snr_miscat", 1.0)):
            values = np.array([float(r[column]) for r in rows])
            slope = np.polyfit(np.log(phi_s), np.log(values), 1)[0]
            assert slope == pytest.approx(expected, abs=0.01)

    def test_zero_reference_matches_one_arm(self, tmp_path):
        out = tmp_path / "snr.csv"
        rc = main([
            "snr", "--e-r", "1.0", "--e-s", "0.01",
            "--e-i", "0.0", "--phi-s", "0.7",
            "--sweep", "phi_i:0:6.2831853:33", "--out", str(out),
        ])
        assert rc == 0
        for row in read_csv(out):
            assert row["snr_miscat"] == row["snr_iscat"]

    def test_dark_fringe_without_scatterer_is_zero(self, tmp_path):
        # at phi_i = pi the detector field is 1.2e-16, not zero, and carries
        # no scattered signal; the six-term I2 rounded it to 0 (exit 2)
        out = tmp_path / "snr.csv"
        rc = main([
            "snr", "--e-r", "1", "--e-s", "0", "--e-i", "1",
            "--phi-s", "0", "--sweep", "phi_i:0:6.283185307179586:3",
            "--out", str(out),
        ])
        assert rc == 0
        assert [float(r["snr_miscat"]) for r in read_csv(out)] == [0.0] * 3

    def test_zero_field_exits_2(self, tmp_path, capsys):
        out = tmp_path / "snr.csv"
        rc = main([
            "snr", "--e-r", "0", "--e-s", "0", "--e-i", "0",
            "--sweep", "phi_i:0:1:3", "--out", str(out),
        ])
        assert rc == 2
        assert "total destructive interference" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sweep_exits_2(self, tmp_path, capsys):
        # phi_s^2 of the one-arm small-phase SNR overflows a double
        out = tmp_path / "snr.csv"
        rc = main(["snr", "--sweep", "phi_s:0:1e200:3",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: snr column snr_iscat overflows a double\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "fields, sweep, form",
        [
            # E_s^2 overflows a Python float (it raised OverflowError)
            (["--e-s", "1e300"], "phi_s:0:1:3", "iscat (E_r^2 + 2*E_r*E_s + E_s^2)"),
            # only the noise overflows: every SNR read 0 with exit 0
            (["--e-r", "1e154", "--e-s", "1e154"], "phi_s:0:1e-3:3",
             "iscat (E_r^2 + 2*E_r*E_s + E_s^2)"),
            (["--e-i", "1e300"], "phi_s:0:1:3",
             "miscat (E_i^2 + 2*E_i*E_r*cos(phi_i) + E_r^2)"),
        ],
        ids=["e_s", "noise_only", "e_i"],
    )
    def test_overflowing_noise_exits_2(self, tmp_path, capsys, fields, sweep, form):
        out = tmp_path / "snr.csv"
        rc = main(["snr", *fields, "--sweep", sweep,
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: noise intensity in snr_phase_small_{form} overflows a double\n"
        )
        assert not out.exists()

    def test_unparsable_sweep_steps_exits_2(self, tmp_path, capsys):
        out = tmp_path / "snr.csv"
        rc = main(["snr", "--sweep", "phi_i:0:1:2.5", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "axis 'phi_i': STEPS '2.5' is not a valid int" in err
        assert not out.exists()

    @pytest.mark.parametrize("sweep", ["e_r:0:1:3", "alpha_r_mag:0:1:3"])
    def test_sweep_over_another_variable_names_its_own(self, tmp_path, capsys, sweep):
        # the message names the two swept phases, not the scan axes
        out = tmp_path / "snr.csv"
        rc = main(["snr", "--sweep", sweep, "--out", str(out)])
        assert rc == 2
        name = sweep.split(":")[0]
        assert capsys.readouterr().err == (
            f"error: --sweep runs over phi_i or phi_s, not {name!r}\n"
        )
        assert not out.exists()

    def test_mode_option_is_gone(self, tmp_path, capsys):
        # the swept phase picks the SNR, so no flag restates it
        out = tmp_path / "snr.csv"
        with pytest.raises(SystemExit) as exc:
            main(["snr", "--mode", "mass", "--sweep", "phi_i:0:1:3", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode mass" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "preset, options",
        [
            ("figsnr1", ["--phi-s", "1.5707963267948966",
                         "--sweep", "phi_i:0:6.283185307179586:721"]),
            ("figsnr2", ["--phi-i", "1.5707963267948966",
                         "--sweep", "phi_s:1e-4:1e-2:101:log"]),
        ],
    )
    def test_preset_is_the_command_line_it_stands_for(
        self, tmp_path, preset, options, fmt
    ):
        runs = []
        for name, given in (("preset", ["--preset", preset]), ("explicit", options)):
            out = tmp_path / f"{name}.{fmt}"
            assert main(["snr", *given, "--format", fmt, "--out", str(out)]) == 0
            manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
            runs.append((out.read_bytes(), manifest["arguments"]))
        (preset_data, preset_args), (explicit_data, explicit_args) = runs
        assert preset_data == explicit_data
        assert (preset_args.pop("preset"), explicit_args.pop("preset")) == (preset, None)
        assert preset_args == explicit_args
        swept = options[-1].split(":")[0]
        assert preset_args[swept] is None

    @pytest.mark.parametrize(
        "flag, sweep", [("--phi-i", "phi_i:0:1:3"), ("--phi-s", "phi_s:0:1:3")]
    )
    def test_swept_variable_given_a_value_exits_2(self, tmp_path, capsys, flag, sweep):
        # no cell would use the fixed value
        out = tmp_path / "snr.csv"
        rc = main(["snr", flag, "1", "--sweep", sweep, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --sweep over {sweep[:5]} conflicts with {flag}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, field", [("--e-r", "e_r"), ("--e-s", "e_s"), ("--e-i", "e_i")]
    )
    def test_negative_amplitude_exits_2(self, tmp_path, capsys, flag, field):
        out = tmp_path / "x.csv"
        rc = main([
            "snr", flag, "-1.0", "--sweep", "phi_i:0:6.28:5", "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {field} must be >= 0\n"
        assert not out.exists()


    @pytest.mark.parametrize(
        "flag, value, field",
        [("--e-r", "nan", "e_r"), ("--e-s", "inf", "e_s"), ("--phi-s", "-inf", "phi_s"),
         ("--e-i", "nan", "e_i"), ("--phi-i", "inf", "phi_i")],
    )
    def test_non_finite_field_exits_2(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "x.csv"
        sweep = "phi_s:0:1:3" if field == "phi_i" else "phi_i:0:1:3"
        rc = main([
            "snr", f"{flag}={value}",
            "--sweep", sweep, "--out", str(out),
        ])
        assert rc == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, rc", [("-1e-3", 0), ("-inf", 2), ("-nan", 2)])
    def test_negative_value_forms_are_values(self, tmp_path, capsys, value, rc):
        out = tmp_path / "x.csv"
        argv = ["snr", "--phi-s", value, "--sweep", "phi_i:0:1:3"]
        assert main(argv + ["--out", str(out)]) == rc
        if rc == 0:
            manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
            assert manifest["arguments"]["phi_s"] == -0.001
        else:
            assert "phi_s must be finite" in capsys.readouterr().err
            assert not out.exists()


class TestMonteCarloCommand:
    def test_report_and_trials(self, tmp_path, config_file, mc_saturated_cfg):
        cfg_path = config_file(mc_saturated_cfg)
        out = tmp_path / "mc.json"
        rc = main([
            "montecarlo", "--config", str(cfg_path), "--out", str(out),
            "--trials", "60", "--samples", "80", "--seed", "7",
        ])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["n_trials"] == 60 and data["seed"] == 7
        assert 0.5 < data["ratio_var_over_crb"] < 2.0
        trials = read_csv(tmp_path / "mc.json.trials.csv")
        assert len(trials) == 60
        assert trials[0]["seed"] == "7"

    def test_same_seed_byte_identical(self, tmp_path, config_file, mc_saturated_cfg):
        cfg_path = config_file(mc_saturated_cfg)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / f"mc_{name}.json"
            rc = main([
                "montecarlo", "--config", str(cfg_path), "--out", str(out),
                "--trials", "30", "--samples", "50", "--seed", "99",
            ])
            assert rc == 0
            blobs.append(
                out.read_bytes()
                + (tmp_path / f"mc_{name}.json.trials.csv").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_zero_cfi_exits_3(self, tmp_path, config_file):
        cfg = FieldConfig(
            alpha_r=0j, particle=ParticleModel(10.0, 0.3, 0.7), alpha0_mag=10.0
        )
        cfg_path = config_file(cfg)
        rc = main([
            "montecarlo", "--config", str(cfg_path), "--target", "phase",
            "--out", str(tmp_path / "mc.json"),
            "--trials", "10", "--samples", "10", "--seed", "1",
        ])
        assert rc == 3


    def test_zero_mass_mass_target_exits_3(self, tmp_path, capsys, config_file):
        cfg = FieldConfig(
            alpha_r=2.3, particle=ParticleModel(0.0, 0.1, 1.0), alpha0_mag=10.0
        )
        cfg_path = config_file(cfg)
        out = tmp_path / "mc.json"
        rc = main([
            "montecarlo", "--config", str(cfg_path), "--out", str(out),
            "--trials", "10", "--samples", "10", "--seed", "1",
        ])
        assert rc == 3
        assert "mass 0" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_run_exits_2(
        self, tmp_path, capsys, config_file, mc_saturated_cfg, monkeypatch
    ):
        from iscat_metrology import photonstats

        cfg = str(config_file(mc_saturated_cfg))
        out = tmp_path / "mc.json"

        def run(trials, samples):
            return main([
                "montecarlo", "--config", cfg, "--trials", str(trials),
                "--samples", str(samples), "--seed", "1", "--out", str(out),
            ])

        # 17 x 5882353 is one draw over the cap: refused before any sampling
        assert 17 * 5882353 == photonstats.MAX_DRAWS + 1
        assert run(17, 5882353) == 2
        assert "trials x samples = 17 x 5882353 exceeds" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(photonstats, "MAX_DRAWS", 200)
        assert run(10, 20) == 0
        assert run(10, 21) == 2
        assert "exceeds the cap of 200 Poisson draws" in capsys.readouterr().err

    def test_ambiguous_trials_reported(self, tmp_path, config_file, mc_saturated_cfg):
        cfg_path = config_file(mc_saturated_cfg)
        out = tmp_path / "mc.json"
        rc = main([
            "montecarlo", "--config", str(cfg_path), "--out", str(out),
            "--trials", "20", "--samples", "100", "--seed", "5",
        ])
        assert rc == 0
        assert json.loads(out.read_text())["ambiguous_trials"] == 0


    @pytest.mark.parametrize("subcommand", ["montecarlo", "fisher"])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exits_2(
        self, tmp_path, capsys, config_file, mc_saturated_cfg, subcommand, threads
    ):
        out = tmp_path / "o.json"
        argv = [subcommand, "--config", str(config_file(mc_saturated_cfg))]
        if subcommand == "montecarlo":
            argv += ["--trials", "4", "--samples", "4", "--seed", "1"]
        assert main([*argv, "--out", str(out), f"--threads={threads}"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --threads must be >= 1, got {threads}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    @pytest.mark.parametrize(
        "trials, samples, message",
        [("1", "4", "need at least 2 trials, got 1"),
         ("4", "1", "need at least 2 samples per trial, got 1")],
    )
    def test_too_few_draws_exits_2_naming_the_option(
        self, tmp_path, capsys, config_file, mc_saturated_cfg, trials, samples, message
    ):
        out = tmp_path / "mc.json"
        rc = main([
            "montecarlo", "--config", str(config_file(mc_saturated_cfg)),
            "--trials", trials, "--samples", samples, "--seed", "1", "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_negative_seed_exits_2(self, tmp_path, capsys, config_file, mc_saturated_cfg):
        out = tmp_path / "mc.json"
        rc = main([
            "montecarlo", "--config", str(config_file(mc_saturated_cfg)),
            "--trials", "4", "--samples", "4", "--seed", "-1", "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    @pytest.mark.parametrize("target", ["mass", "phase"])
    def test_uneven_chunks_byte_identical(
        self, tmp_path, config_file, mc_quarter_cfg, monkeypatch, target
    ):
        from iscat_metrology import photonstats

        # three cores and seven trials: chunks of 2, 2 and 3 trials
        monkeypatch.setattr(photonstats, "available_cores", lambda: 3)
        sample_counts = photonstats.sample_counts
        sampled_on = {}

        def recording(mean, length, seed):
            # thread objects, not idents: CPython reuses an exited thread's
            # ident, so two workers in turn could share one
            sampled_on[seed] = threading.current_thread()
            return sample_counts(mean, length, seed)

        monkeypatch.setattr(photonstats, "sample_counts", recording)
        cfg = str(config_file(mc_quarter_cfg))
        blobs, threads_used = [], []
        for threads in (["--threads", "1"], []):
            out = tmp_path / f"mc{len(threads)}.json"
            sampled_on.clear()
            rc = main([
                "montecarlo", "--config", cfg, "--target", target, "--trials", "7",
                "--samples", "300", "--seed", "40", "--out", str(out), *threads,
            ])
            assert rc == 0
            trials = out.with_suffix(".json.trials.csv")
            blobs.append(out.read_bytes() + trials.read_bytes())
            threads_used.append([sampled_on[40 + k] for k in range(7)])
        assert blobs[0] == blobs[1]
        # every chunk runs on one pool thread, none on the caller's; a thread
        # that has finished one chunk may take the next
        main_thread = threading.main_thread()
        assert threads_used[0] == [threads_used[0][0]] * 7
        a, b, c = threads_used[1][0], threads_used[1][2], threads_used[1][4]
        assert threads_used[1] == [a, a, b, b, c, c, c]
        assert main_thread not in (threads_used[0][0], a, b, c)

    def test_failing_chunk_writes_nothing(
        self, tmp_path, capsys, config_file, mc_quarter_cfg, monkeypatch
    ):
        from iscat_metrology import photonstats

        monkeypatch.setattr(photonstats, "available_cores", lambda: 3)
        sample_counts = photonstats.sample_counts

        def failing(mean, length, seed):
            if seed == 40 + 5:  # in the third chunk, on a worker thread
                raise ValueError("injected failure in trial 5")
            return sample_counts(mean, length, seed)

        monkeypatch.setattr(photonstats, "sample_counts", failing)
        out = tmp_path / "mc.json"
        rc = main([
            "montecarlo", "--config", str(config_file(mc_quarter_cfg)),
            "--trials", "7", "--samples", "30", "--seed", "40", "--out", str(out),
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: injected failure in trial 5\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


class TestSpectrumCommand:
    def spectrum_csv_for(self, tmp_path, cfg):
        from iscat_metrology import spectrum as sp
        from iscat_metrology.field import scattered_amplitude

        alpha_s = scattered_amplitude(cfg.particle)
        f = sp.SpectralField(
            omega=np.array([1.0]),
            alpha_r=np.array([cfg.alpha_r]),
            alpha_s=np.array([alpha_s]),
            alpha_i=np.array([0j]),
            scale_s=np.array([cfg.particle.scale_per_kda]),
            phi_s=np.array([cfg.particle.phi_s]),
        )
        path = tmp_path / "single.csv"
        sp.spectrum_to_csv(f, path)
        return path

    def test_manifest_identifies_the_spectrum_by_its_bytes(self, tmp_path):
        spec_path = self.spectrum_csv_for(tmp_path, worked_example_config())
        data = spec_path.read_bytes()
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--spectrum", str(spec_path), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "spec.json.manifest.json").read_text())
        assert manifest["arguments"] == {"spectrum": str(spec_path), "target": "mass"}
        assert manifest["inputs"] == [{
            "option": "--spectrum",
            "path": str(spec_path),
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        }]

    def test_spectrum_from_a_pipe_exits_2(self, tmp_path, capsys):
        # a pipe reads empty the second time, when the manifest hashes it
        data = self.spectrum_csv_for(tmp_path, worked_example_config()).read_bytes()
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)
            os.close(write_end)
            path = f"/dev/fd/{read_end}"
            out = tmp_path / "spec.json"
            assert main(["spectrum", "--spectrum", path, "--out", str(out)]) == 2
        finally:
            os.close(read_end)
        err = capsys.readouterr().err
        assert err == f"error: --spectrum {path} is not a regular file\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "single.csv"]

    def test_single_row_matches_fisher(self, tmp_path, config_file):
        cfg = worked_example_config()
        spec_path = self.spectrum_csv_for(tmp_path, cfg)
        spec_out = tmp_path / "spec.json"
        assert main(["spectrum", "--spectrum", str(spec_path), "--out", str(spec_out)]) == 0
        cfg_path = config_file(cfg)
        fisher_out = tmp_path / "fisher.json"
        assert main(["fisher", "--config", str(cfg_path), "--out", str(fisher_out)]) == 0
        spec_data = json.loads(spec_out.read_text())
        fisher_data = json.loads(fisher_out.read_text())
        assert spec_data["qfi_coherent"] == pytest.approx(
            fisher_data["report"]["qfi_coherent"], rel=1e-12
        )
        assert spec_data["cfi_photon_counting"] == pytest.approx(
            fisher_data["report"]["cfi_photon_number"], rel=1e-12
        )

    def test_flat_band_reaches_half(self, tmp_path):
        f = flat_white_spectrum(1.0, 2.0, 101, 220.0, 0.4, mass_kda=66.0)
        path = tmp_path / "flat.csv"
        sp.spectrum_to_csv(f, path)
        out = tmp_path / "flat.json"
        assert main(["spectrum", "--spectrum", str(path), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["relative_mass_bound_sqrt_n"] == pytest.approx(0.5, abs=1e-10)
        assert data["scattered_photons"] == pytest.approx(220.0, abs=1e-10)

    def test_vacuum_point_names_its_omega(self, tmp_path, capsys):
        # the detector field alpha_r + alpha_s vanishes, the mass derivative not
        cfg = FieldConfig(alpha_r=-0.01, particle=ParticleModel(1.0, 0.01, 0.0))
        path = self.spectrum_csv_for(tmp_path, cfg)
        out = tmp_path / "o.json"
        assert main(["spectrum", "--spectrum", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "not estimable: detector field is vacuum at grid point 0 (omega=1.0); "
            "the counting CFI is undefined there\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("column", ["alpha_s_re", "omega", "scale_s", "weight"])
    def test_non_finite_column_exits_2(self, tmp_path, capsys, column):
        path = self.spectrum_csv_for(tmp_path, worked_example_config())
        rows = read_csv(path)
        rows[0][column] = "nan" if column != "weight" else "inf"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "o.json"
        rc = main(["spectrum", "--spectrum", str(path), "--out", str(out)])
        assert rc == 2
        assert f"spectrum column {column} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("omega,weight\n1.0,1.0\n")
        rc = main(["spectrum", "--spectrum", str(bad), "--out", str(tmp_path / "o.json")])
        assert rc == 2

    def test_non_utf8_csv_exits_2_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"omega,weight\n1.0,\xff\n")
        out = tmp_path / "o.json"
        assert main(["spectrum", "--spectrum", str(bad), "--out", str(out)]) == 2
        assert f"spectrum CSV {bad} is not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_over_long_cell_exits_2_naming_the_file(self, tmp_path, capsys):
        # a valid number, one character over the csv module's field limit
        omega = "1." + "0" * (csv.field_size_limit() - 1)
        path = _spectrum_row(tmp_path, omega=omega)
        out = tmp_path / "o.json"
        assert main(["spectrum", "--spectrum", str(path), "--out", str(out)]) == 2
        assert f"spectrum CSV {path}: field larger than" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicated_column_exits_2(self, tmp_path, capsys):
        path = _spectrum_row(tmp_path)
        header, row = path.read_text().splitlines()
        path.write_text(f"omega,{header},weight\n2.0,{row},3.0\n")
        out = tmp_path / "o.json"
        assert main(["spectrum", "--spectrum", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"spectrum CSV {path} names columns twice: ['omega', 'weight']" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cells, message",
        [
            ({"alpha_s_re": "1e200"}, "scattered_photons must be finite, got inf"),
            # alpha_d overflows, so the counting density is inf/inf
            ({"alpha_r_re": "1e308", "alpha_i_re": "1e308"},
             "qfi_phase_averaged must be finite, got nan"),
            # alpha_d nearly orthogonal to dalpha: F_q/F_pa = 1e320
            ({"alpha_r_re": "1e-160", "alpha_r_im": "1"},
             "relative mass bound inf is not finite"),
            # a finite integrand whose quadrature overflows: 1e308 * 4
            ({"weight": "1e308", "alpha_r_re": "0.02"},
             "qfi_coherent must be finite, got inf"),
        ],
        ids=["scattered_photons", "counting_cfi", "mass_bound", "weighted_sum"],
    )
    @pytest.mark.filterwarnings("error")
    def test_overflowing_spectrum_exits_2(self, tmp_path, capsys, cells, message):
        path = _spectrum_row(tmp_path, **cells)
        out = tmp_path / "o.json"
        assert main(["spectrum", "--spectrum", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ({"omega": "1"}, "frequency grid must be strictly increasing"),
            ({"weight": "0"}, "quadrature weights must be positive"),
            ({"omega": "0.5"}, "frequency grid must be strictly increasing"),
            ({"weight": "-1"}, "quadrature weights must be positive"),
        ],
        ids=["repeated_omega", "zero_weight", "decreasing_omega", "negative_weight"],
    )
    def test_ill_formed_grid_exits_2(self, tmp_path, capsys, rows, message):
        # a second row, equal to the first apart from ``rows``
        path = _spectrum_row(tmp_path)
        header, row = path.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")), omega="2")
        cells.update(rows)
        path.write_text(f"{header}\n{row}\n{','.join(cells.values())}\n")
        out = tmp_path / "o.json"
        assert main(["spectrum", "--spectrum", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("extra", ["7", ""], ids=["cell", "trailing_comma"])
    def test_long_row_exits_2_naming_the_file_and_row(self, tmp_path, capsys, extra):
        path = _spectrum_row(tmp_path)
        header, row = path.read_text().splitlines()
        path.write_text(f"# band\n{header}\n{row}\n\n{row},{extra}\n{row}\n")
        out = tmp_path / "o.json"
        assert main(["spectrum", "--spectrum", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: spectrum CSV {path}: data row 2 is longer than the header\n"
        )
        assert not out.exists()

    def test_blank_lines_are_skipped_like_comments(self, tmp_path):
        path = _spectrum_row(tmp_path, alpha_r_re="0.5", alpha_s_re="0.01")
        header, row = path.read_text().splitlines()
        spaced = tmp_path / "spaced.csv"
        spaced.write_text(f"# band\n\n{header}\n\n{row}\r\n\n# end\n")
        outs = [tmp_path / "plain.json", tmp_path / "spaced.json"]
        for band, out in zip((path, spaced), outs):
            assert main(["spectrum", "--spectrum", str(band), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


def _spectrum_row(tmp_path, **cells):
    """A one-row spectrum CSV: omega, weight and scale_s 1, other cells 0,
    then ``cells``."""
    row = dict.fromkeys(sp.SPECTRUM_CSV_COLUMNS, "0")
    row.update({"omega": "1", "weight": "1", "scale_s": "1", **cells})
    path = tmp_path / "band.csv"
    path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
    return path


def _config_with(edit):
    """Input writer: the fig2 config as JSON after ``edit`` (which may
    return a replacement document)."""

    def write(tmp_path):
        d = config_to_dict(fig2_config())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(edit(d) or d))
        return ["fisher", "--config", str(path)]

    return write


def _short_spectrum_row(tmp_path):
    path = tmp_path / "band.csv"
    path.write_text(",".join(sp.SPECTRUM_CSV_COLUMNS) + "\n1,1,0.1,0,0.01,0,0,0\n")
    return ["spectrum", "--spectrum", str(path)]


@pytest.mark.parametrize(
    "write_input, name",
    [
        (_config_with(lambda d: d.update(alpha_r=5)), "alpha_r"),
        (_config_with(lambda d: d["particle"].update(mass_kda=None)),
         "particle.mass_kda"),
        (_config_with(lambda d: [d]), "config"),
        (_config_with(lambda d: d.update(reference=3)), "reference"),
        (_short_spectrum_row, "scale_s"),
        (_config_with(lambda d: d["alpha_r"].update(re=False)), "alpha_r.re"),
        (_config_with(lambda d: d["alpha_r"].update(im="1e-5")), "alpha_r.im"),
        (_config_with(lambda d: d["particle"].update(mass_kda=True)),
         "particle.mass_kda"),
        (_config_with(lambda d: d.update(particle=None)), "particle"),
        (_config_with(lambda d: d.__delitem__("alpha_r")), "alpha_r"),
        (_config_with(lambda d: 3), "config"),
        (_config_with(lambda d: d.update(reference={"mag": None, "phi_i": 0.0})),
         "reference.mag"),
        (_config_with(lambda d: d["particle"].update(scale_per_kda="1")),
         "particle.scale_per_kda"),
    ],
    ids=["alpha_r_number", "null_mass", "top_level_list", "reference_number",
         "short_spectrum_row", "bool_re", "string_im", "bool_mass", "null_particle",
         "missing_alpha_r", "top_level_number", "null_reference_mag",
         "string_scale"],
)
def test_malformed_input_shape_exits_2(tmp_path, capsys, write_input, name):
    out = tmp_path / "o.json"
    assert main(write_input(tmp_path) + ["--out", str(out)]) == 2
    assert f"{name} " in capsys.readouterr().err
    assert not out.exists()


def _scan_config_without_x_axis(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(fig2_config())))
    message = "scan needs either --preset or --config + --x-axis"
    return ["scan", "--config", str(path)], message


def _spectrum_holding(text):
    """Input writer: a spectrum CSV holding ``text``."""

    def write(tmp_path):
        path = tmp_path / "band.csv"
        path.write_text(text)
        return ["spectrum", "--spectrum", str(path)], f"no spectrum rows in {path}"

    return write


@pytest.mark.parametrize(
    "write_input",
    [
        _scan_config_without_x_axis,
        lambda tmp_path: (["snr"], "snr needs either --preset or --sweep"),
        _spectrum_holding(",".join(sp.SPECTRUM_CSV_COLUMNS) + "\n"),
        _spectrum_holding(""),
    ],
    ids=["scan_without_x_axis", "snr_without_sweep", "header_only_spectrum",
         "empty_spectrum"],
)
def test_incomplete_input_exits_2_and_writes_nothing(tmp_path, capsys, write_input):
    argv, message = write_input(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(argv + ["--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == before  # no data file, no manifest


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(refrence=d.pop("reference")),
         "config has unknown keys ['refrence']"),
        (lambda d: d.update(alpha_0_mag=10), "config has unknown keys ['alpha_0_mag']"),
        (lambda d: d["particle"].update(mass=5.0), "particle has unknown keys ['mass']"),
        (lambda d: d["alpha_r"].update(phase=0.0, mag=1.0),
         "alpha_r has unknown keys ['phase', 'mag']"),
        (lambda d: d["reference"].update(phi_s=0.0),
         "reference has unknown keys ['phi_s']"),
    ],
    ids=["misspelt_reference", "misspelt_alpha0_mag", "particle_mass",
         "alpha_r_polar", "reference_phi_s"],
)
def test_unknown_config_key_exits_2(tmp_path, capsys, edit, message):
    # an ignored key would leave the value it was meant to set at its default
    d = config_to_dict(fig2_config())
    d["reference"] = {"mag": 4.5e-5, "phi_i": 0.0}
    edit(d)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(d))
    out = tmp_path / "o.json"
    assert main(["fisher", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize(
    "edit, key",
    [
        # a null reference, then a two-arm one: the last would win
        (lambda text: text[:-1] + ', "reference": {"mag": 4.5e-05, "phi_i": 0.0}}',
         "reference"),
        (lambda text: text.replace('"particle": {', '"particle": {"phi_s": 0.0, '),
         "phi_s"),
    ],
    ids=["top_level", "nested"],
)
def test_duplicate_config_key_exits_2(tmp_path, capsys, edit, key):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(edit(json.dumps(config_to_dict(fig2_config()))))
    out = tmp_path / "o.json"
    assert main(["fisher", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: config {cfg_path} repeats the key {key!r}\n"
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.fixture
def subcommand_argv(tmp_path, config_file, mc_saturated_cfg):
    """A small valid argv, without --out, for every subcommand."""
    cfg = str(config_file(fig2_config()))
    band = tmp_path / "band.csv"
    sp.spectrum_to_csv(flat_white_spectrum(1.0, 2.0, 5, 9.0, 0.4), band)
    mc_cfg = str(config_file(mc_saturated_cfg, "mc_config.json"))
    return {
        "fisher": ["fisher", "--config", cfg],
        "scan": ["scan", "--config", cfg, "--x-axis", "phi_s:0:1:3"],
        "optimize": ["optimize", "--config", cfg],
        "snr": ["snr", "--sweep", "phi_i:0:1:3"],
        "montecarlo": [
            "montecarlo", "--config", mc_cfg, "--trials", "4",
            "--samples", "20", "--seed", str(2**64 - 1),
        ],
        "spectrum": ["spectrum", "--spectrum", str(band)],
    }


@pytest.mark.parametrize("subcommand", ["optimize", "montecarlo", "spectrum"])
def test_format_only_where_honoured(tmp_path, subcommand_argv, subcommand):
    out = tmp_path / "o.csv"
    argv = subcommand_argv[subcommand] + ["--format", "csv", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("out", ["", "newdir/"], ids=["empty", "newdir/"])
@pytest.mark.parametrize(
    "subcommand", ["fisher", "scan", "optimize", "snr", "montecarlo", "spectrum"]
)
def test_out_without_a_file_name_exits_2(
    tmp_path, monkeypatch, capsys, subcommand_argv, subcommand, out
):
    # Path("") is the working directory, which no run may write to, and
    # Path("newdir/") drops the slash: the run would write the file newdir
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    inputs = sorted(tmp_path.iterdir())
    assert main(subcommand_argv[subcommand] + ["--out", out]) == 2
    assert capsys.readouterr().err == f"error: --out needs a file name, got {out!r}\n"
    assert sorted(tmp_path.iterdir()) == inputs
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize(
    "option, argv",
    [
        ("--out", ["fisher", "--config", "CONFIG", "--out", "a\0b"]),
        ("--config", ["fisher", "--config", "a\0b", "--out", "OUT"]),
        ("--spectrum", ["spectrum", "--spectrum", "a\0b", "--out", "OUT"]),
    ],
)
def test_nul_byte_in_a_path_exits_2_naming_the_option(
    tmp_path, monkeypatch, capsys, config_file, option, argv
):
    config = str(config_file(fig2_config()))
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    inputs = sorted(tmp_path.iterdir())
    argv = [{"CONFIG": config, "OUT": str(tmp_path / "o.csv")}.get(a, a) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {option} holds a NUL byte: 'a\\x00b'\n"
    assert sorted(tmp_path.iterdir()) == inputs
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize(
    "subcommand, input_name, out_name",
    [
        ("spectrum", "band.csv", "band.csv"),
        ("fisher", "config.json", "config.json"),
        ("fisher", "r.json.manifest.json", "r.json"),
        ("scan", "r.csv.header.json", "r.csv"),
        ("montecarlo", "r.json.trials.csv", "r.json"),
        ("optimize", "config.json", "link.json"),
    ],
    ids=["spectrum-out", "fisher-out", "fisher-manifest", "scan-header",
         "montecarlo-trials", "optimize-hard-link"],
)
def test_output_that_is_the_input_exits_2(
    tmp_path, capsys, subcommand_argv, subcommand, input_name, out_name
):
    # the input keeps its bytes, which the manifest would otherwise describe
    argv = list(subcommand_argv[subcommand])
    option = "--spectrum" if subcommand == "spectrum" else "--config"
    given = Path(argv[argv.index(option) + 1])
    source = given.rename(tmp_path / input_name)
    argv[argv.index(option) + 1] = str(source)
    if out_name == "link.json":
        os.link(source, tmp_path / out_name)
    before = _snapshot(tmp_path)
    out = tmp_path / out_name
    assert main([*argv, "--out", str(out)]) == 2
    path = source if out_name != "link.json" else out
    assert capsys.readouterr().err == (
        f"error: {path} would overwrite the {option} input\n"
    )
    assert _snapshot(tmp_path) == before


def replay_argv(manifest: dict, directory: Path) -> list:
    """The argv of a run, without --out, rebuilt from its manifest alone: its
    non-null arguments but ``preset``, which they spell out, with an inline
    config written to ``directory``."""
    options = dict(manifest["arguments"])
    options.pop("preset", None)
    if options.get("config") is not None:
        path = directory / "replayed_config.json"
        path.write_text(json.dumps(options["config"]))
        options["config"] = str(path)
    argv = [manifest["subcommand"]]
    for name, value in options.items():
        if value is not None:
            argv += ["--" + name.replace("_", "-"), str(value)]
    return argv


def replay_and_compare(sidecar: Path, directory: Path) -> dict:
    """Check a manifest's inputs, rerun it into ``directory`` and require
    every output byte for byte; return the manifest."""
    manifest = json.loads(sidecar.read_text())
    for given in manifest.get("inputs", []):
        data = Path(given["path"]).read_bytes()
        assert given["sha256"] == hashlib.sha256(data).hexdigest()
        assert given["bytes"] == len(data)
    out = Path(manifest["outputs"][0])
    replayed = directory / f"replayed_{out.name}"
    assert main([*replay_argv(manifest, directory), "--out", str(replayed)]) == 0
    for path in manifest["outputs"]:
        suffix = path[len(str(out)):]
        assert Path(f"{replayed}{suffix}").read_bytes() == Path(path).read_bytes()
    return manifest


def holds_a_list(value) -> bool:
    if isinstance(value, dict):
        return any(holds_a_list(v) for v in value.values())
    return isinstance(value, list)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def replayed_runs(band: Path):
    """(output name, argv before --out) of every run output_digests.py makes,
    and of an explicit scan over a log x axis and a y axis."""
    yield from output_digests.runs(band)
    yield "log_scan.csv", [
        "scan", "--config", str(CONFIGS / "two_arm_baseline.json"),
        "--x-axis", "alpha_r_mag:1e-7:1e-1:37:log",
        "--y-axis", "phi_i:0:6.283185307179586:19",
    ]


REPLAYED = [name for name, _ in replayed_runs(Path("band.csv"))]


@pytest.fixture(scope="class")
def original_runs(tmp_path_factory):
    """Output name: (exit code, --out path) of each run of ``replayed_runs``."""
    out_dir = tmp_path_factory.mktemp("originals")
    band = out_dir / "band.csv"
    output_digests.write_band(band)
    return {
        name: (main([*argv, "--out", str(out_dir / name)]), out_dir / name)
        for name, argv in replayed_runs(band)
    }


class TestManifestRoundTrip:
    @pytest.mark.parametrize(
        "run",
        [
            "fisher", "fisher --format csv", "scan", "scan --format json",
            "optimize", "snr", "snr --format json", "montecarlo", "spectrum",
        ],
    )
    def test_manifest_lists_what_was_written(self, tmp_path, subcommand_argv, run):
        subcommand, *options = run.split()
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "result.dat"
        argv = [*subcommand_argv[subcommand], *options, "--out", str(out)]
        assert main(argv) == 0
        sidecar = out_dir / "result.dat.manifest.json"
        manifest = json.loads(sidecar.read_text())
        assert manifest["subcommand"] == subcommand
        assert manifest["outputs"][0] == str(out)
        written = {str(p) for p in out_dir.iterdir()} - {str(sidecar)}
        assert sorted(manifest["outputs"]) == sorted(written)
        assert "seed" not in manifest
        if subcommand == "montecarlo":
            top = 2**64 - 1
            assert manifest["arguments"]["seed"] == top
            seeds = [row["seed"] for row in read_csv(manifest["outputs"][1])]
            assert seeds == [str(top + k) for k in range(4)]
        else:
            assert "seed" not in manifest["arguments"]
        assert ("inputs" in manifest) == (subcommand == "spectrum")
        replay_and_compare(sidecar, tmp_path)

    @pytest.mark.parametrize(
        "run",
        ["fisher", "scan", "optimize", "snr", "montecarlo", "spectrum",
         "scan --preset fig2a", "snr --preset figsnr2"],
    )
    def test_arguments_are_the_subcommand_options(self, tmp_path, subcommand_argv, run):
        subcommand, *preset = run.split()
        argv = [subcommand, *preset] if preset else subcommand_argv[subcommand]
        out = tmp_path / "result.dat"
        assert main([*argv, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "result.dat.manifest.json").read_text())
        options = cli.SUBCOMMANDS[subcommand][2]
        names = [flag[2:].replace("-", "_") for flag in options]
        assert set(manifest["arguments"]) == set(names)

    def test_scan_preset_records_its_config_inline(self, tmp_path):
        out = tmp_path / "fig2a.csv"
        assert main(["scan", "--preset", "fig2a", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "fig2a.csv.manifest.json").read_text())
        assert manifest["arguments"] == {
            "config": config_to_dict(SCAN_PRESETS["fig2a"]["config"]),
            "target": "mass",
            "preset": "fig2a",
            "x_axis": "alpha_r_mag:1e-06:0.1:121:log",
            "y_axis": "phi_s:1.0471975511965976,2.0943951023931953,2.6179938779914944",
            "format": "csv",
        }

    @pytest.mark.parametrize("name", REPLAYED)
    def test_manifest_alone_replays_the_run(self, tmp_path, original_runs, name):
        rc, out = original_runs[name]
        sidecar = Path(f"{out}.manifest.json")
        if rc == 3:  # not estimable: no file written, nothing to replay
            assert not sidecar.exists()
            return
        assert rc == 0
        manifest = replay_and_compare(sidecar, tmp_path)
        if manifest["subcommand"] in ("scan", "snr"):  # axes are given as specs
            assert not holds_a_list(manifest["arguments"])
            assert sidecar.stat().st_size < 2048

    def test_rerun_reproduces_bytes(self, tmp_path, config_file):
        cfg_path = config_file(fig2_config())
        first = tmp_path / "first.csv"
        argv = [
            "scan", "--config", str(cfg_path),
            "--x-axis", "phi_s:0:6.2831853:13",
            "--y-axis", "phi_i:0:6.2831853:7",
        ]
        assert main(argv + ["--out", str(first)]) == 0
        manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
        assert manifest["arguments"]["x_axis"] == "phi_s:0:6.2831853:13"
        second = tmp_path / "second.csv"
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def _bind_unix_socket(path):
    """Leave a socket file at ``path``: a path that is not a regular file."""
    with socket.socket(socket.AF_UNIX) as sock:
        sock.bind(path)


class TestFilesAppearTogether:
    """A run's files and its manifest appear together or not at all."""

    @pytest.mark.parametrize(
        "subcommand, blocked, make",
        [
            ("fisher", ".manifest.json", os.mkdir),
            ("montecarlo", ".trials.csv", os.mkdir),
            ("fisher", "", _bind_unix_socket),  # os.replace would replace it
        ],
        ids=["fisher-manifest-dir", "montecarlo-trials-dir", "fisher-out-socket"],
    )
    def test_blocked_path_leaves_no_file(
        self, tmp_path, monkeypatch, capsys, subcommand_argv, subcommand, blocked, make
    ):
        monkeypatch.chdir(tmp_path)  # a socket's path may hold at most 107 bytes
        out = tmp_path / "R"
        make(f"R{blocked}")
        before = sorted(tmp_path.iterdir())
        assert main(subcommand_argv[subcommand] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {out}{blocked} exists and is not a regular file\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_missing_directory_is_named_as_given(
        self, tmp_path, capsys, subcommand_argv
    ):
        out = tmp_path / "missing" / "o.json"
        before = sorted(tmp_path.iterdir())
        assert main(subcommand_argv["fisher"] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "earlier", [None, "a grid an earlier run wrote\n"], ids=["none", "earlier"]
    )
    def test_interrupted_csv_write_keeps_the_earlier_file(
        self, tmp_path, monkeypatch, subcommand_argv, earlier
    ):
        class Interrupt(BaseException):
            pass

        def interrupted(path, columns, comments=()):
            with open(path, "w") as fh:
                fh.write(",".join(columns) + "\n")
                raise Interrupt

        monkeypatch.setattr(tuner, "write_csv", interrupted)
        out = tmp_path / "grid.csv"
        if earlier is not None:
            out.write_text(earlier)
        before = sorted(tmp_path.iterdir())
        with pytest.raises(Interrupt):
            main(subcommand_argv["scan"] + ["--out", str(out)])
        assert sorted(tmp_path.iterdir()) == before
        if earlier is not None:
            assert out.read_text() == earlier

    def test_failed_manifest_move_removes_the_moved_files(
        self, tmp_path, monkeypatch, capsys, subcommand_argv
    ):
        real_replace = os.replace

        def replace(src, dst):
            if dst.endswith(".manifest.json"):
                raise OSError(errno.EIO, os.strerror(errno.EIO), src, dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        out = tmp_path / "grid.csv"
        before = sorted(tmp_path.iterdir())
        assert main(subcommand_argv["scan"] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        message = f"[Errno {errno.EIO}] {os.strerror(errno.EIO)}: '{out}.manifest.json'"
        assert err == f"error: {message}\n"
        assert sorted(tmp_path.iterdir()) == before


#: Every subcommand that reads ``--config``, with the rest of a valid call.
CONFIG_READERS = pytest.mark.parametrize(
    "argv",
    [
        ["fisher"],
        ["scan", "--x-axis", "phi_s:0:1:3"],
        ["optimize"],
        ["montecarlo", "--seed", "1", "--trials", "2", "--samples", "2"],
    ],
    ids=lambda argv: argv[0],
)


@CONFIG_READERS
def test_deeply_nested_config_exits_2_naming_the_file(tmp_path, capsys, argv):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    out = tmp_path / "o.json"
    assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: config {path} nests too deeply to read\n"
    assert list(tmp_path.iterdir()) == [path]


@CONFIG_READERS
@pytest.mark.parametrize(
    "content, reason",
    [
        (
            b'{"alpha_r": {"re": 2.3e-05,',
            "is not valid JSON: Expecting property name enclosed in double"
            " quotes: line 1 column 28 (char 27)",
        ),
        (
            b"\xff\xfe{}",
            "is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0:"
            " invalid start byte",
        ),
        (
            b"\xef\xbb\xbf" + json.dumps(config_to_dict(fig2_config())).encode(),
            "is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig):"
            " line 1 column 1 (char 0)",
        ),
    ],
    ids=["truncated", "not-utf8", "bom"],
)
def test_unreadable_config_exits_2_naming_the_file(
    tmp_path, capsys, argv, content, reason
):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    out = tmp_path / "o.json"
    assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: config {path} {reason}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_reference_arm_within_the_budget_slack_runs_everywhere(
    tmp_path, config_file
):
    d = config_to_dict(fig2_config())
    d["reference"] = {"mag": 0.5000000000004, "phi_i": 0.0}
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(d))
    for argv in (
        ["fisher"], ["scan", "--x-axis", "phi_i:0:1:3"], ["optimize"]
    ):
        out = tmp_path / f"{argv[0]}.json"
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 0
    optimized = json.loads((tmp_path / "optimize.json").read_text())
    assert optimized["feasible"] is True
    assert len(optimized["phi_solutions_at_reference_mag"]) == 2


@pytest.mark.parametrize("subcommand", ["fisher", "optimize"])
@pytest.mark.filterwarnings("error")
def test_first_arm_magnitude_past_a_double_exits_2(tmp_path, capsys, subcommand):
    d = config_to_dict(fig2_config())
    d["alpha_r"] = {"re": 1.2711610061536464e308, "im": 1.2711610061536462e308}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "o.json"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: sample arm |alpha_r + alpha_s| = inf exceeds the bound "
        "alpha0_mag/2 = 0.5\n"
    )
    assert not out.exists()


class TestPresetConflicts:
    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["snr", "--preset", "figsnr1", "--e-i", "2", "--e-r", "5"],
             "--e-r, --e-i"),
            (["snr", "--preset", "figsnr2", "--sweep", "phi_s:0:1:3"], "--sweep"),
            (["snr", "--preset", "figsnr1", "--phi-i", "0", "--e-s", "0.01",
              "--e-i", "1", "--phi-s", "0"], "--e-s, --e-i, --phi-s, --phi-i"),
            (["scan", "--preset", "fig3a", "--target", "mass",
              "--x-axis", "phi_i:0:1:3"], "--target, --x-axis"),
            (["scan", "--preset", "fig2a", "--config", "c.json",
              "--y-axis", "phi_i:0:1:3"], "--config, --y-axis"),
        ],
    )
    def test_option_with_preset_exits_2(self, tmp_path, capsys, argv, flags):
        out = tmp_path / "o.csv"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --preset {argv[2]} conflicts with {flags}\n"
        assert list(tmp_path.iterdir()) == []

    def test_explicit_runs_take_the_defaults(self, tmp_path, config_file):
        out = tmp_path / "snr.csv"
        assert main(["snr", "--sweep", "phi_i:0:1:3", "--out", str(out)]) == 0
        arguments = json.loads((tmp_path / "snr.csv.manifest.json").read_text())[
            "arguments"
        ]
        assert "mode" not in arguments  # the sweep over phi_i picks the mass SNR
        assert [arguments[n] for n in ("e_r", "e_s", "e_i", "phi_s", "phi_i")] == [
            1.0, 0.01, 1.0, 0.0, None
        ]
        out = tmp_path / "scan.csv"
        cfg = str(config_file(fig2_config()))
        argv = ["scan", "--config", cfg, "--x-axis", "phi_s:0:1:3"]
        assert main([*argv, "--out", str(out)]) == 0
        arguments = json.loads((tmp_path / "scan.csv.manifest.json").read_text())[
            "arguments"
        ]
        assert arguments["preset"] is None
        assert arguments["target"] == "mass" and arguments["y_axis"] is None


def _snapshot(directory) -> dict:
    """Each file's bytes, a manifest's without its timestamp line."""
    files = {}
    for path in sorted(directory.iterdir()):
        lines = path.read_bytes().splitlines(keepends=True)
        if path.name.endswith(".manifest.json"):
            lines = [line for line in lines if b'"timestamp"' not in line]
        files[path.name] = b"".join(lines)
    return files


def test_one_parser_serves_calls_as_fresh_processes(
    tmp_path, monkeypatch, capsys, config_file, mc_saturated_cfg
):
    # one process, one parser: nothing a call sets on its namespace, such as
    # a preset's options or a montecarlo seed, reaches the next call
    cfg = str(config_file(fig2_config()))
    mc = ["--config", str(config_file(mc_saturated_cfg, "mc.json")), "--seed", "5"]
    calls = [
        ["scan", "--preset", "fig2a", "--y-axis", "--out", "s.csv"],
        ["scan", "--preset", "fig2a", "--out", "s.csv"],
        ["scan", "--config", cfg, "--x-axis", "phi_s:0:1:3", "--out", "s.csv"],
        ["montecarlo", *mc, "--trials", "2", "--samples", "50", "--out", "m.json"],
        ["fisher", "--config", cfg, "--out", "f.json"],
    ]
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    want = []
    for argv in calls:
        rc, err = run_fresh_cli(argv, fresh)
        want.append((rc, err, _snapshot(fresh)))
    progs = []  # of every parser built: the top one and its subparsers

    def init(self, *args, **kwargs):
        progs.append(kwargs["prog"])
        real_init(self, *args, **kwargs)

    real_init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", init)
    monkeypatch.chdir(here)
    cli.build_parser.cache_clear()
    got = []
    try:
        for argv in calls:
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            got.append((rc, capsys.readouterr().err, _snapshot(here)))
    finally:
        cli.build_parser.cache_clear()
    assert [rc for rc, *_ in got] == [2, 0, 0, 0, 0]
    assert got == want
    assert progs.count("iscat-metrology") == 1
    assert len(progs) == 1 + len(cli.SUBCOMMANDS)


@pytest.mark.parametrize(
    "scale, message",
    [("log", "log axis 'phi_s' needs 0 < lo < hi, got [0.0, 1.0]"),
     ("lin", "axis 'phi_s': unknown scale 'lin'")],
)
@pytest.mark.parametrize("subcommand", ["scan", "snr"])
def test_axis_scale_errors_name_the_axis(
    tmp_path, capsys, config_file, subcommand, scale, message
):
    if subcommand == "scan":
        given = ["scan", "--config", str(config_file(fig2_config())), "--x-axis"]
    else:
        given = ["snr", "--sweep"]
    out = tmp_path / "o.csv"
    assert main([*given, f"phi_s:0:1:3:{scale}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_key_error_from_a_runner_propagates(tmp_path, config_file, monkeypatch):
    # no input path raises KeyError, so one is a fault in the code, not exit 2
    from iscat_metrology import fisher

    def fault(cfg, target):
        raise KeyError("x")

    monkeypatch.setattr(fisher, "fisher_report", fault)
    argv = ["fisher", "--config", str(config_file(worked_example_config()))]
    with pytest.raises(KeyError):
        main([*argv, "--out", str(tmp_path / "o.json")])


def test_cli_import_leaves_scipy_out():
    code = "import sys, iscat_metrology.cli; print('scipy' in sys.modules)"
    assert run_fresh("-c", code).strip() == "False"


#: What every cold CLI process loads: the package and the modules all
#: subcommands use.
COLD_MODULES = ["cli", "field", "fisher", "textio"]


@pytest.mark.parametrize(
    "run, adds",
    [
        (None, []),
        ("fisher", []),
        ("optimize", ["tuner"]),
        ("scan", ["tuner"]),
        # a preset runs as its --sweep, whose axis is a tuner.AxisSpec
        (["snr", "--preset", "figsnr1"], ["snr", "tuner"]),
        ("snr", ["snr", "tuner"]),
        ("montecarlo", ["photonstats"]),
        ("spectrum", ["spectrum"]),
    ],
    ids=["import", "fisher", "optimize", "scan", "snr-preset", "snr-sweep",
         "montecarlo", "spectrum"],
)
def test_cold_cli_loads_only_what_the_subcommand_runs(
    tmp_path, subcommand_argv, run, adds
):
    # a new interpreter: this one has imported every module already
    code = "import sys, iscat_metrology.cli as cli\n"
    if run is not None:
        argv = run if isinstance(run, list) else subcommand_argv[run]
        argv = argv + ["--out", str(tmp_path / "o.dat")]
        code += f"assert cli.main({argv!r}) == 0\n"
    code += "print(*sorted(m for m in sys.modules if m.startswith('iscat_metrology')))"
    expected = ["iscat_metrology", *(f"iscat_metrology.{m}" for m in COLD_MODULES + adds)]
    assert run_fresh("-c", code).split() == sorted(expected)
