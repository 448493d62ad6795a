"""Command-line interface.

Subcommands map one-to-one onto the library surfaces:

    fisher      information report + bounds for one config
    scan        saturation-ratio grids (figure presets available)
    optimize    saturating reference-arm solutions
    snr         signal-to-noise sweeps (figure presets available)
    montecarlo  Monte Carlo MLE validation of the Cramer-Rao bound
    spectrum    broadband bounds from a spectrum CSV

Exit codes: 0 success, 2 input/config error, 3 well-formed but
non-estimable configuration (vacuum detector field, zero information).

Every data file is accompanied by a ``<out>.manifest.json`` sidecar holding
the resolved inputs, seed, tool version and timestamp.  Data files contain
no timestamps, so identical inputs reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__, fisher, photonstats, snr, spectrum, tuner
from .errors import BracketError, NotEstimableError
from .field import (
    EstimationTarget,
    FieldConfig,
    ParticleModel,
    ReferenceArm,
    config_to_dict,
    load_config,
)
from .textio import dump_json

PI = math.pi


def _target(name: str) -> EstimationTarget:
    return EstimationTarget(name)


# --- manifests ----------------------------------------------------------------


@dataclass
class RunManifest:
    subcommand: str
    arguments: dict
    outputs: list[str] = dc_field(default_factory=list)
    seed: int | None = None
    tool_version: str = __version__
    timestamp: str = ""

    def write(self, primary_out: str) -> None:
        self.timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        dump_json(
            str(primary_out) + ".manifest.json",
            {
                "subcommand": self.subcommand,
                "arguments": self.arguments,
                "outputs": self.outputs,
                "seed": self.seed,
                "tool_version": self.tool_version,
                "timestamp": self.timestamp,
            },
        )


# --- scan presets (figure parameter sets) --------------------------------------

_PHASE_TRIPLE = [PI / 3.0, 2.0 * PI / 3.0, 5.0 * PI / 6.0]


def _particle(mass_s: float, phi_s: float) -> ParticleModel:
    # unit mass carrying the full scattered magnitude keeps |alpha_s| explicit
    return ParticleModel(mass_kda=1.0, scale_per_kda=mass_s, phi_s=phi_s)


def _scan_presets() -> dict:
    iscat_base = FieldConfig(
        alpha_r=2.3e-5, particle=_particle(2e-5, 2.0 * PI / 3.0)
    )
    fig2bc_base = FieldConfig(
        alpha_r=2.3e-5,
        particle=_particle(2e-5, 5.0 * PI / 6.0),
        reference=ReferenceArm(4.5e-5, 0.0),
    )
    fig2d_base = FieldConfig(
        alpha_r=1e-2,
        particle=_particle(2e-5, 5.0 * PI / 6.0),
        reference=ReferenceArm(4.5e-5, 0.0),
    )
    fig3b_base = FieldConfig(
        alpha_r=1e-2,
        particle=_particle(2e-5, 5.0 * PI / 6.0),
        reference=ReferenceArm(0.045, 0.0),
    )
    phases = tuner.AxisSpec("phi_s", np.array(_PHASE_TRIPLE))
    return {
        "fig2a": dict(
            base=iscat_base,
            target=EstimationTarget.MASS,
            x=tuner.AxisSpec.logspace("alpha_r_mag", 1e-6, 1e-1, 121),
            y=phases,
        ),
        "fig2b": dict(
            base=fig2bc_base,
            target=EstimationTarget.MASS,
            x=tuner.AxisSpec.linspace("phi_s", 0.0, 2.0 * PI, 73),
            y=tuner.AxisSpec.linspace("phi_i", 0.0, 2.0 * PI, 721),
        ),
        "fig2c": dict(
            base=fig2bc_base,
            target=EstimationTarget.MASS,
            x=tuner.AxisSpec.linspace("mag_i", 0.0, 9e-5, 181),
            y=tuner.AxisSpec.linspace("phi_i", 0.0, 2.0 * PI, 721),
        ),
        "fig2d": dict(
            base=fig2d_base,
            target=EstimationTarget.MASS,
            x=tuner.AxisSpec.linspace("mag_i", 0.0, 2e-2, 201),
            y=tuner.AxisSpec.linspace("phi_i", 0.0, 2.0 * PI, 721),
        ),
        "fig3a": dict(
            base=iscat_base,
            target=EstimationTarget.SCATTER_PHASE,
            x=tuner.AxisSpec.logspace("alpha_r_mag", 1e-6, 1e-1, 121),
            y=phases,
        ),
        "fig3b": dict(
            base=fig3b_base,
            target=EstimationTarget.SCATTER_PHASE,
            x=tuner.AxisSpec.linspace("phi_s", 0.0, 2.0 * PI, 73),
            y=tuner.AxisSpec.linspace("phi_i", 0.0, 2.0 * PI, 721),
        ),
    }


def _snr_presets() -> dict:
    return {
        "figsnr1": dict(
            mode="mass",
            triple=snr.RealFieldTriple(
                e_r=1.0, e_s=0.01, e_i=1.0, phi_s=PI / 2.0
            ),
            sweep=("phi_i", np.linspace(0.0, 2.0 * PI, 721)),
            log_scale=False,
        ),
        "figsnr2": dict(
            mode="phase",
            triple=snr.RealFieldTriple(
                e_r=1.0, e_s=0.01, e_i=1.0, phi_s=0.0, phi_i=PI / 2.0
            ),
            sweep=("phi_s", np.logspace(-4, -2, 101)),
            log_scale=True,
        ),
    }


def _parse_axis(spec: str) -> tuner.AxisSpec:
    """Axis argument NAME:LO:HI:STEPS[:log]."""
    parts = spec.split(":")
    if len(parts) not in (4, 5):
        raise ValueError(
            f"axis spec {spec!r} is not NAME:LO:HI:STEPS[:log]"
        )
    name, lo, hi, steps = parts[0], float(parts[1]), float(parts[2]), int(parts[3])
    if len(parts) == 5:
        if parts[4] != "log":
            raise ValueError(f"unknown axis scale {parts[4]!r}")
        return tuner.AxisSpec.logspace(name, lo, hi, steps)
    return tuner.AxisSpec.linspace(name, lo, hi, steps)


# --- subcommand implementations -------------------------------------------------


def cmd_fisher(args) -> int:
    cfg = load_config(args.config)
    target = _target(args.target)
    report = fisher.fisher_report(cfg, target)
    out = Path(args.out)
    if args.format == "csv":
        fisher.write_report_csv(out, [(cfg, target, report)])
    else:
        dump_json(
            out,
            {
                "setup": cfg.setup,
                "target": target.value,
                "report": report.to_dict(),
                "qcrb_coherent": fisher.qcrb(report.qfi_coherent),
                "qcrb_photon_counting": fisher.qcrb(report.cfi_photon_number),
            },
        )
    manifest = RunManifest(
        "fisher",
        {
            "config": config_to_dict(cfg),
            "target": target.value,
            "format": args.format,
        },
        outputs=[str(out)],
    )
    manifest.write(out)
    return 0


def cmd_scan(args) -> int:
    presets = _scan_presets()
    if args.preset is not None:
        if args.preset not in presets:
            raise ValueError(
                f"unknown preset {args.preset!r}; "
                f"expected one of {sorted(presets)}"
            )
        p = presets[args.preset]
        base, target, x, y = p["base"], p["target"], p["x"], p["y"]
    else:
        if args.config is None or args.x_axis is None:
            raise ValueError("scan needs either --preset or --config + --x-axis")
        base = load_config(args.config)
        target = _target(args.target)
        x = _parse_axis(args.x_axis)
        y = _parse_axis(args.y_axis) if args.y_axis else None
    grid = tuner.scan_ratio_grid(base, target, x, y)
    out = Path(args.out)
    if args.format == "json":
        values = [
            [None if math.isnan(v) else float(v) for v in row]
            for row in grid.values
        ]
        dump_json(out, {"header": grid.header_dict(), "ratio": values})
        outputs = [str(out)]
    else:
        grid.to_csv(out)
        header_path = out.with_suffix(out.suffix + ".header.json")
        dump_json(header_path, grid.header_dict())
        outputs = [str(out), str(header_path)]
    manifest = RunManifest(
        "scan",
        {
            "preset": args.preset,
            "baseline": config_to_dict(base),
            "target": target.value,
            "x": x.to_dict(),
            "y": y.to_dict() if y is not None else None,
            "format": args.format,
        },
        outputs=outputs,
    )
    manifest.write(out)
    return 0


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    target = _target(args.target)
    sol = tuner.saturating_reference_set(cfg, target)
    phases = None
    if cfg.reference is not None:
        phases = list(sol.solutions_at(cfg.reference.mag))
    out = Path(args.out)
    dump_json(
        out,
        {
            "setup": cfg.setup,
            "target": target.value,
            "min_mag_i": sol.min_mag_i,
            "psi": sol.psi,
            "feasible": sol.feasible,
            "reference_mag": cfg.reference.mag if cfg.reference else None,
            "phi_solutions_at_reference_mag": phases,
        },
    )
    manifest = RunManifest(
        "optimize",
        {"config": config_to_dict(cfg), "target": target.value},
        outputs=[str(out)],
    )
    manifest.write(out)
    return 0


def cmd_snr(args) -> int:
    presets = _snr_presets()
    log_scale = False
    if args.preset is not None:
        if args.preset not in presets:
            raise ValueError(
                f"unknown preset {args.preset!r}; "
                f"expected one of {sorted(presets)}"
            )
        p = presets[args.preset]
        mode, triple = p["mode"], p["triple"]
        sweep_var, sweep_values = p["sweep"]
        log_scale = p["log_scale"]
    else:
        mode = args.mode
        triple = snr.RealFieldTriple(
            e_r=args.e_r,
            e_s=args.e_s,
            e_i=args.e_i,
            phi_s=args.phi_s,
            phi_i=args.phi_i,
        )
        if args.sweep is None:
            raise ValueError("snr needs either --preset or --sweep")
        axis = _parse_axis(args.sweep)  # reuse NAME:LO:HI:STEPS[:log]
        sweep_var, sweep_values = axis.name, axis.values
        log_scale = axis.scale == "log"
    if mode == "mass":
        if sweep_var != "phi_i":
            raise ValueError("mass-mode sweeps run over phi_i")
        sweep = snr.mass_snr_sweep(triple, sweep_values)
    else:
        if sweep_var != "phi_s":
            raise ValueError("phase-mode sweeps run over phi_s")
        sweep = snr.phase_snr_sweep(triple, sweep_values)
    out = Path(args.out)
    meta = [f"mode: {mode}", f"log_scale: {str(log_scale).lower()}"]
    if args.format == "json":
        dump_json(
            out,
            {
                "mode": mode,
                "log_scale": log_scale,
                "sweep": {k: [float(v) for v in vals] for k, vals in sweep.items()},
            },
        )
    else:
        snr.write_sweep_csv(out, sweep, meta)
    manifest = RunManifest(
        "snr",
        {
            "preset": args.preset,
            "mode": mode,
            "triple": {
                "e_r": triple.e_r,
                "e_s": triple.e_s,
                "e_i": triple.e_i,
                "phi_s": triple.phi_s,
                "phi_i": triple.phi_i,
            },
            "sweep_var": sweep_var,
            "sweep_values": [float(v) for v in sweep_values],
            "log_scale": log_scale,
            "format": args.format,
        },
        outputs=[str(out)],
    )
    manifest.write(out)
    return 0


def cmd_montecarlo(args) -> int:
    cfg = load_config(args.config)
    target = _target(args.target)
    report = photonstats.crb_validation(
        cfg,
        target,
        samples_per_trial=args.samples,
        n_trials=args.trials,
        seed=args.seed,
    )
    out = Path(args.out)
    dump_json(out, {"setup": cfg.setup, **report.to_dict()})
    trials_path = out.with_suffix(out.suffix + ".trials.csv")
    photonstats.write_trials_csv(trials_path, report)
    manifest = RunManifest(
        "montecarlo",
        {
            "config": config_to_dict(cfg),
            "target": target.value,
            "samples": args.samples,
            "trials": args.trials,
        },
        outputs=[str(out), str(trials_path)],
        seed=args.seed,
    )
    manifest.write(out)
    return 0


def cmd_spectrum(args) -> int:
    f = spectrum.spectrum_from_csv(args.spectrum)
    target = _target(args.target)
    qfi = spectrum.qfi_multifrequency(f, target)
    cfi = spectrum.qfi_multifrequency_phase_averaged(f, target)
    photons = spectrum.scattered_photons(f)
    result = {
        "target": target.value,
        "points": int(len(f.omega)),
        "scattered_photons": photons,
        "qfi_coherent": qfi,
        "qfi_phase_averaged": cfi,
        "cfi_photon_counting": cfi,
        "qcrb_coherent": fisher.qcrb(qfi),
        "qcrb_photon_counting": fisher.qcrb(cfi),
    }
    if target is EstimationTarget.MASS:
        result["relative_mass_bound_sqrt_n"] = (
            spectrum.relative_mass_bound_multifrequency(f)
        )
    out = Path(args.out)
    dump_json(out, result)
    manifest = RunManifest(
        "spectrum",
        {"spectrum": str(args.spectrum), "target": target.value},
        outputs=[str(out)],
    )
    manifest.write(out)
    return 0


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iscat-metrology",
        description=(
            "Fisher-information bounds, reference-arm tuning and shot-noise "
            "Monte Carlo for interferometric scattering photometry"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, fmt_default="json"):
        p.add_argument("--out", required=True, help="output path")
        p.add_argument(
            "--format", choices=["csv", "json"], default=fmt_default
        )
        p.add_argument("--threads", type=int, help="accepted; has no effect")

    p = sub.add_parser("fisher", help="information report for one config")
    p.add_argument("--config", required=True)
    p.add_argument("--target", choices=["mass", "phase"], default="mass")
    common(p)
    p.set_defaults(func=cmd_fisher)

    p = sub.add_parser("scan", help="saturation-ratio grid scans")
    p.add_argument("--config")
    p.add_argument("--target", choices=["mass", "phase"], default="mass")
    p.add_argument("--preset", help="fig2a|fig2b|fig2c|fig2d|fig3a|fig3b")
    p.add_argument("--x-axis", help="NAME:LO:HI:STEPS[:log]")
    p.add_argument("--y-axis", help="NAME:LO:HI:STEPS[:log]")
    common(p, fmt_default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("optimize", help="saturating reference-arm solutions")
    p.add_argument("--config", required=True)
    p.add_argument("--target", choices=["mass", "phase"], default="mass")
    common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("snr", help="signal-to-noise sweeps")
    p.add_argument("--preset", help="figsnr1|figsnr2")
    p.add_argument("--mode", choices=["mass", "phase"], default="mass")
    p.add_argument("--e-r", type=float, default=1.0)
    p.add_argument("--e-s", type=float, default=0.01)
    p.add_argument("--e-i", type=float, default=1.0)
    p.add_argument("--phi-s", type=float, default=0.0)
    p.add_argument("--phi-i", type=float, default=0.0)
    p.add_argument("--sweep", help="VAR:LO:HI:STEPS[:log over phi_i or phi_s]")
    common(p, fmt_default="csv")
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser("montecarlo", help="Monte Carlo CRB validation")
    p.add_argument("--config", required=True)
    p.add_argument("--target", choices=["mass", "phase"], default="mass")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("spectrum", help="broadband bounds from a spectrum CSV")
    p.add_argument("--spectrum", required=True, help="spectrum CSV path")
    p.add_argument("--target", choices=["mass", "phase"], default="mass")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotEstimableError, BracketError) as exc:
        print(f"not estimable: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
