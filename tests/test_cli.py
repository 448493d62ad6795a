import csv
import json
import math
import threading

import numpy as np
import pytest

from conftest import (
    fig2_config,
    run_fresh,
    vacuum_config,
    worked_example_config,
)
from iscat_metrology import spectrum as sp
from iscat_metrology.cli import main
from iscat_metrology.field import (
    FieldConfig,
    ParticleModel,
    ReferenceArm,
    config_to_dict,
    save_config,
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
        ],
    )
    def test_non_finite_input_exits_2(
        self, tmp_path, capsys, section, key, value, field
    ):
        d = config_to_dict(fig2_config())
        (d[section] if section else d)[key] = value
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(d))  # writes NaN / Infinity tokens
        out = tmp_path / "report.json"
        assert main(["fisher", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

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

    def test_over_budget_exits_2(self, tmp_path, capsys, config_file):
        cfg = FieldConfig(alpha_r=0.9, particle=ParticleModel(1.0, 1e-5, 0.0))
        cfg_path = config_file(cfg)
        out = tmp_path / "opt.json"
        assert main(["optimize", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "sample arm |alpha_r + alpha_s|" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_derivative_exits_2(self, tmp_path, config_file):
        cfg = FieldConfig(alpha_r=0.1, particle=ParticleModel(0.0, 1.0, 0.0))
        cfg_path = config_file(cfg)
        out = tmp_path / "opt.json"
        rc = main([
            "optimize", "--config", str(cfg_path), "--target", "phase",
            "--out", str(out),
        ])
        assert rc == 2


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
            "snr", "--mode", "mass", "--e-r", "1.0", "--e-s", "0.01",
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
            "snr", "--mode", "mass", "--e-r", "1", "--e-s", "0", "--e-i", "1",
            "--phi-s", "0", "--sweep", "phi_i:0:6.283185307179586:3",
            "--out", str(out),
        ])
        assert rc == 0
        assert [float(r["snr_miscat"]) for r in read_csv(out)] == [0.0] * 3

    def test_zero_field_exits_2(self, tmp_path, capsys):
        out = tmp_path / "snr.csv"
        rc = main([
            "snr", "--mode", "mass", "--e-r", "0", "--e-s", "0", "--e-i", "0",
            "--sweep", "phi_i:0:1:3", "--out", str(out),
        ])
        assert rc == 2
        assert "total destructive interference" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sweep_exits_2(self, tmp_path, capsys):
        # phi_s^2 of the one-arm small-phase SNR overflows a double
        out = tmp_path / "snr.csv"
        rc = main(["snr", "--mode", "phase", "--sweep", "phi_s:0:1e200:3",
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
        rc = main(["snr", "--mode", "phase", *fields, "--sweep", sweep,
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

    def test_negative_amplitude_exits_2(self, tmp_path):
        rc = main([
            "snr", "--mode", "mass", "--e-r", "-1.0",
            "--sweep", "phi_i:0:6.28:5", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2


    @pytest.mark.parametrize(
        "flag, value, field",
        [("--e-r", "nan", "e_r"), ("--e-s", "inf", "e_s"), ("--phi-s", "-inf", "phi_s")],
    )
    def test_non_finite_field_exits_2(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "x.csv"
        rc = main([
            "snr", "--mode", "mass", f"{flag}={value}",
            "--sweep", "phi_i:0:1:3", "--out", str(out),
        ])
        assert rc == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, rc", [("-1e-3", 0), ("-inf", 2), ("-nan", 2)])
    def test_negative_value_forms_are_values(self, tmp_path, capsys, value, rc):
        out = tmp_path / "x.csv"
        argv = ["snr", "--mode", "mass", "--phi-s", value, "--sweep", "phi_i:0:1:3"]
        assert main(argv + ["--out", str(out)]) == rc
        if rc == 0:
            manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
            assert manifest["arguments"]["triple"]["phi_s"] == -0.001
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
            sampled_on[seed] = threading.get_ident()
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
        main_thread = threading.get_ident()
        assert threads_used[0] == [main_thread] * 7
        a, b, c = threads_used[1][0], threads_used[1][2], threads_used[1][4]
        assert threads_used[1] == [a, a, b, b, c, c, c]
        assert a == main_thread and len({a, b, c}) == 3

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
        from iscat_metrology import spectrum as sp

        f = sp.flat_white_spectrum(1.0, 2.0, 101, 220.0, 0.4, mass_kda=66.0)
        path = tmp_path / "flat.csv"
        sp.spectrum_to_csv(f, path)
        out = tmp_path / "flat.json"
        assert main(["spectrum", "--spectrum", str(path), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["relative_mass_bound_sqrt_n"] == pytest.approx(0.5, abs=1e-10)
        assert data["scattered_photons"] == pytest.approx(220.0, abs=1e-10)

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
        ],
        ids=["scattered_photons", "counting_cfi", "mass_bound"],
    )
    @pytest.mark.filterwarnings("error")
    def test_overflowing_spectrum_exits_2(self, tmp_path, capsys, cells, message):
        path = _spectrum_row(tmp_path, **cells)
        out = tmp_path / "o.json"
        assert main(["spectrum", "--spectrum", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
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
    ],
    ids=["alpha_r_number", "null_mass", "top_level_list", "reference_number",
         "short_spectrum_row", "bool_re", "string_im", "bool_mass"],
)
def test_malformed_input_shape_exits_2(tmp_path, capsys, write_input, name):
    out = tmp_path / "o.json"
    assert main(write_input(tmp_path) + ["--out", str(out)]) == 2
    assert f"{name} " in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def subcommand_argv(tmp_path, config_file, mc_saturated_cfg):
    """A small valid argv, without --out, for every subcommand."""
    cfg = str(config_file(fig2_config()))
    band = tmp_path / "band.csv"
    sp.spectrum_to_csv(sp.flat_white_spectrum(1.0, 2.0, 5, 9.0, 0.4), band)
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


class TestManifestRoundTrip:
    @pytest.mark.parametrize(
        "subcommand",
        ["fisher", "scan", "optimize", "snr", "montecarlo", "spectrum"],
    )
    def test_manifest_lists_what_was_written(
        self, tmp_path, subcommand_argv, subcommand
    ):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "result.dat"
        assert main(subcommand_argv[subcommand] + ["--out", str(out)]) == 0
        sidecar = out_dir / "result.dat.manifest.json"
        manifest = json.loads(sidecar.read_text())
        assert manifest["subcommand"] == subcommand
        assert manifest["outputs"][0] == str(out)
        written = {str(p) for p in out_dir.iterdir()} - {str(sidecar)}
        assert sorted(manifest["outputs"]) == sorted(written)
        if subcommand == "montecarlo":
            top = 2**64 - 1
            assert manifest["seed"] == top
            seeds = [row["seed"] for row in read_csv(manifest["outputs"][1])]
            assert seeds == [str(top + k) for k in range(4)]
        else:
            assert manifest["seed"] is None

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
        assert manifest["arguments"]["x"]["name"] == "phi_s"
        second = tmp_path / "second.csv"
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


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
            (["snr", "--preset", "figsnr1", "--e-r", "5", "--mode", "phase"],
             "--mode, --e-r"),
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
        assert arguments["mode"] == "mass"
        assert arguments["triple"] == {
            "e_r": 1.0, "e_s": 0.01, "e_i": 1.0, "phi_s": 0.0, "phi_i": 0.0
        }
        out = tmp_path / "scan.csv"
        cfg = str(config_file(fig2_config()))
        argv = ["scan", "--config", cfg, "--x-axis", "phi_s:0:1:3"]
        assert main([*argv, "--out", str(out)]) == 0
        arguments = json.loads((tmp_path / "scan.csv.manifest.json").read_text())[
            "arguments"
        ]
        assert arguments["preset"] is None
        assert arguments["target"] == "mass" and arguments["y"] is None


def test_cli_import_leaves_scipy_out():
    code = "import sys, iscat_metrology.cli; print('scipy' in sys.modules)"
    assert run_fresh("-c", code).strip() == "False"


#: What every cold CLI process loads: the package and the modules all
#: subcommands use.
COLD_MODULES = ["cli", "errors", "field", "fisher", "textio"]


@pytest.mark.parametrize(
    "run, adds",
    [
        (None, []),
        ("fisher", []),
        ("optimize", ["tuner"]),
        ("scan", ["tuner"]),
        (["snr", "--preset", "figsnr1"], ["snr"]),
        ("snr", ["snr", "tuner"]),  # --sweep parses its axis as a tuner.AxisSpec
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


def test_tuner_exports_load_on_first_access():
    code = (
        "from iscat_metrology import phase_solutions, saturating_reference_set\n"
        "import iscat_metrology.tuner as tuner\n"
        "assert phase_solutions is tuner.phase_solutions\n"
        "assert saturating_reference_set is tuner.saturating_reference_set\n"
        "try:\n"
        "    from iscat_metrology import no_such_name\n"
        "except ImportError:\n"
        "    print('ok')\n"
    )
    assert run_fresh("-c", code).strip() == "ok"
