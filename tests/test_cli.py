import csv
import json
import math

import numpy as np
import pytest

from conftest import (
    fig2_config,
    vacuum_config,
    worked_example_config,
)
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

    def test_negative_amplitude_exits_2(self, tmp_path):
        rc = main([
            "snr", "--mode", "mass", "--e-r", "-1.0",
            "--sweep", "phi_i:0:6.28:5", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2


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

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("omega,weight\n1.0,1.0\n")
        rc = main(["spectrum", "--spectrum", str(bad), "--out", str(tmp_path / "o.json")])
        assert rc == 2


class TestManifestRoundTrip:
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
