"""Command-line interface.

Subcommands map one-to-one onto the library surfaces:

    fisher      information report + bounds for one config
    scan        saturation-ratio grids (figure presets available)
    optimize    saturating reference-arm solutions
    snr         signal-to-noise sweeps (figure presets available)
    montecarlo  Monte Carlo MLE validation of the Cramer-Rao bound
    spectrum    broadband bounds from a spectrum CSV

The parser is built from the ``SUBCOMMANDS`` table.  Each subcommand is a
``run_<name>(args, out)`` function that writes its data files and returns
``(arguments, outputs, seed)``: the resolved inputs, the paths it wrote and
the seed (None unless the run samples).  :func:`main` owns the rest: it
writes one ``<out>.manifest.json`` sidecar per successful run (those three
plus tool version and timestamp) and maps errors to exit codes: 0 success,
2 input/config error, 3 well-formed but non-estimable configuration (vacuum
detector field, zero information).  Data files contain no timestamps, so
identical inputs reproduce them byte for byte.

A process runs one subcommand, so this module loads only what every
subcommand uses (``errors``, ``field``, ``fisher``, ``textio``).  Each
runner imports ``tuner``, ``snr``, ``photonstats`` or ``spectrum`` itself,
so a cold process compiles and executes only the modules its subcommand
runs.  Runners call through the module object (``tuner.scan_ratio_grid``),
so a function replaced on its module is the one called.

Only ``fisher``, ``scan`` and ``snr`` take ``--format``; the others always
write JSON.  Every subcommand accepts ``--threads N`` (N >= 1); only
``montecarlo`` uses it, sampling its trials on up to N threads (default: the
available cores), and its outputs do not depend on N.  Option values such
as ``-1e-3``, ``-inf`` or ``-nan`` are read as numbers, not as flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, fisher
from .errors import BracketError, NotEstimableError
from .field import (
    EstimationTarget,
    FieldConfig,
    ParticleModel,
    ReferenceArm,
    _require_finite,
    config_to_dict,
    load_config,
)
from .textio import dump_json

PI = math.pi


# --- presets (figure parameter sets) -------------------------------------------

_PHASE_TRIPLE = [PI / 3.0, 2.0 * PI / 3.0, 5.0 * PI / 6.0]


def _particle(mass_s: float, phi_s: float) -> ParticleModel:
    # unit mass carrying the full scattered magnitude keeps |alpha_s| explicit
    return ParticleModel(mass_kda=1.0, scale_per_kda=mass_s, phi_s=phi_s)


def _scan_presets() -> dict:
    """name: (baseline config, target, x axis, y axis)."""
    from . import tuner

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
    mass, phase = EstimationTarget.MASS, EstimationTarget.SCATTER_PHASE
    linspace, logspace = tuner.AxisSpec.linspace, tuner.AxisSpec.logspace
    phases = tuner.AxisSpec("phi_s", np.array(_PHASE_TRIPLE))
    phi_i = linspace("phi_i", 0.0, 2.0 * PI, 721)
    return {
        "fig2a": (
            iscat_base, mass, logspace("alpha_r_mag", 1e-6, 1e-1, 121), phases
        ),
        "fig2b": (fig2bc_base, mass, linspace("phi_s", 0.0, 2.0 * PI, 73), phi_i),
        "fig2c": (fig2bc_base, mass, linspace("mag_i", 0.0, 9e-5, 181), phi_i),
        "fig2d": (fig2d_base, mass, linspace("mag_i", 0.0, 2e-2, 201), phi_i),
        "fig3a": (
            iscat_base, phase, logspace("alpha_r_mag", 1e-6, 1e-1, 121), phases
        ),
        "fig3b": (fig3b_base, phase, linspace("phi_s", 0.0, 2.0 * PI, 73), phi_i),
    }


def _snr_presets() -> dict:
    """name: (mode, field triple, sweep variable, sweep values, log scale)."""
    from . import snr

    return {
        "figsnr1": (
            "mass",
            snr.RealFieldTriple(e_r=1.0, e_s=0.01, e_i=1.0, phi_s=PI / 2.0),
            "phi_i",
            np.linspace(0.0, 2.0 * PI, 721),
            False,
        ),
        "figsnr2": (
            "phase",
            snr.RealFieldTriple(
                e_r=1.0, e_s=0.01, e_i=1.0, phi_s=0.0, phi_i=PI / 2.0
            ),
            "phi_s",
            np.logspace(-4, -2, 101),
            True,
        ),
    }


def _preset(presets: dict, name: str):
    if name not in presets:
        raise ValueError(
            f"unknown preset {name!r}; expected one of {sorted(presets)}"
        )
    return presets[name]


def _uses_preset(args, defaults: dict) -> bool:
    """Whether --preset is given.  A preset sets the options in ``defaults``,
    so none may be given with it; an option not given takes its default."""
    given = [name for name in defaults if getattr(args, name) is not None]
    if args.preset is not None and given:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        raise ValueError(f"--preset {args.preset} conflicts with {flags}")
    for name in defaults.keys() - given:
        setattr(args, name, defaults[name])
    return args.preset is not None


def _parse_axis(spec: str):
    """Axis argument NAME:LO:HI:STEPS[:log] as a ``tuner.AxisSpec``."""
    from . import tuner

    parts = spec.split(":")
    if len(parts) not in (4, 5):
        raise ValueError(
            f"axis spec {spec!r} is not NAME:LO:HI:STEPS[:log]"
        )
    name, numbers = parts[0], []
    for label, text, kind in zip(("LO", "HI", "STEPS"), parts[1:], (float, float, int)):
        try:
            numbers.append(kind(text))
        except ValueError:
            what = f"a valid {kind.__name__}"
            raise ValueError(f"axis {name!r}: {label} {text!r} is not {what}") from None
    lo, hi, steps = numbers
    if len(parts) == 5:
        if parts[4] != "log":
            raise ValueError(f"unknown axis scale {parts[4]!r}")
        return tuner.AxisSpec.logspace(name, lo, hi, steps)
    return tuner.AxisSpec.linspace(name, lo, hi, steps)


# --- subcommands: each returns (arguments, outputs, seed) -----------------------


def run_fisher(args, out: Path):
    cfg = load_config(args.config)
    target = EstimationTarget(args.target)
    report = fisher.fisher_report(cfg, target)
    # both bounds first: zero information exits 3 whatever the format
    qcrb_coherent = fisher.qcrb(report.qfi_coherent)
    qcrb_counting = fisher.qcrb(report.cfi_photon_number)
    if args.format == "csv":
        fisher.write_report_csv(out, cfg, target, report)
    else:
        dump_json(
            out,
            {
                "setup": cfg.setup,
                "target": target.value,
                "report": report.to_dict(),
                "qcrb_coherent": qcrb_coherent,
                "qcrb_photon_counting": qcrb_counting,
            },
        )
    arguments = {
        "config": config_to_dict(cfg),
        "target": target.value,
        "format": args.format,
    }
    return arguments, [out], None


def run_scan(args, out: Path):
    from . import tuner

    defaults = {"config": None, "target": "mass", "x_axis": None, "y_axis": None}
    if _uses_preset(args, defaults):
        base, target, x, y = _preset(_scan_presets(), args.preset)
    elif args.config is None or args.x_axis is None:
        raise ValueError("scan needs either --preset or --config + --x-axis")
    else:
        base = load_config(args.config)
        target = EstimationTarget(args.target)
        x = _parse_axis(args.x_axis)
        y = _parse_axis(args.y_axis) if args.y_axis else None
    grid = tuner.scan_ratio_grid(base, target, x, y)
    outputs = [out]
    if args.format == "json":
        ratio = [
            [None if math.isnan(v) else v for v in row]
            for row in grid.values.tolist()
        ]
        dump_json(out, {"header": grid.header_dict(), "ratio": ratio})
    else:
        grid.to_csv(out)
        outputs.append(out.with_suffix(out.suffix + ".header.json"))
        dump_json(outputs[1], grid.header_dict())
    arguments = {
        "preset": args.preset,
        "baseline": config_to_dict(base),
        "target": target.value,
        "x": x.to_dict(),
        "y": y.to_dict() if y is not None else None,
        "format": args.format,
    }
    return arguments, outputs, None


def run_optimize(args, out: Path):
    from . import tuner

    cfg = load_config(args.config)
    target = EstimationTarget(args.target)
    sol = tuner.saturating_reference_set(cfg, target)
    ref = cfg.reference
    dump_json(
        out,
        {
            "setup": cfg.setup,
            "target": target.value,
            "min_mag_i": sol.min_mag_i,
            "psi": sol.psi,
            "feasible": sol.feasible,
            "reference_mag": ref.mag if ref is not None else None,
            "phi_solutions_at_reference_mag": (
                list(sol.solutions_at(ref.mag)) if ref is not None else None
            ),
        },
    )
    return {"config": config_to_dict(cfg), "target": target.value}, [out], None


def run_snr(args, out: Path):
    from . import snr

    defaults = {
        "mode": "mass", "e_r": 1.0, "e_s": 0.01, "e_i": 1.0,
        "phi_s": 0.0, "phi_i": 0.0, "sweep": None,
    }
    if _uses_preset(args, defaults):
        mode, triple, sweep_var, sweep_values, log_scale = _preset(
            _snr_presets(), args.preset
        )
    else:
        mode = args.mode
        triple = snr.RealFieldTriple(
            args.e_r, args.e_s, args.e_i, args.phi_s, args.phi_i
        )
        if args.sweep is None:
            raise ValueError("snr needs either --preset or --sweep")
        axis = _parse_axis(args.sweep)  # reuse NAME:LO:HI:STEPS[:log]
        sweep_var, sweep_values = axis.name, axis.values
        log_scale = axis.scale == "log"
    swept, sweep_fn = {
        "mass": ("phi_i", snr.mass_snr_sweep),
        "phase": ("phi_s", snr.phase_snr_sweep),
    }[mode]
    if sweep_var != swept:
        raise ValueError(f"{mode}-mode sweeps run over {swept}")
    sweep = sweep_fn(triple, sweep_values)
    for name, values in sweep.items():
        if not np.all(np.isfinite(values)):
            raise ValueError(f"snr column {name} overflows a double")
    if args.format == "json":
        columns = {name: values.tolist() for name, values in sweep.items()}
        dump_json(out, {"mode": mode, "log_scale": log_scale, "sweep": columns})
    else:
        meta = [f"mode: {mode}", f"log_scale: {str(log_scale).lower()}"]
        snr.write_sweep_csv(out, sweep, meta)
    arguments = {
        "preset": args.preset,
        "mode": mode,
        "triple": dataclasses.asdict(triple),
        "sweep_var": sweep_var,
        "sweep_values": sweep_values.tolist(),
        "log_scale": log_scale,
        "format": args.format,
    }
    return arguments, [out], None


def run_montecarlo(args, out: Path):
    from . import photonstats

    cfg = load_config(args.config)
    target = EstimationTarget(args.target)
    report = photonstats.crb_validation(
        cfg,
        target,
        samples_per_trial=args.samples,
        n_trials=args.trials,
        seed=args.seed,
        threads=args.threads,
    )
    dump_json(out, {"setup": cfg.setup, **report.to_dict()})
    trials_path = out.with_suffix(out.suffix + ".trials.csv")
    photonstats.write_trials_csv(trials_path, report)
    arguments = {
        "config": config_to_dict(cfg),
        "target": target.value,
        "samples": args.samples,
        "trials": args.trials,
    }
    return arguments, [out, trials_path], args.seed


def run_spectrum(args, out: Path):
    from . import spectrum

    f = spectrum.spectrum_from_csv(args.spectrum)
    target = EstimationTarget(args.target)
    qfi = spectrum.qfi_multifrequency(f, target)
    cfi = spectrum.qfi_multifrequency_phase_averaged(f, target)
    integrals = {
        "scattered_photons": spectrum.scattered_photons(f),
        "qfi_coherent": qfi,
        "qfi_phase_averaged": cfi,
    }
    # an integral that overflows doubles exits 2 here, not 3 in qcrb
    _require_finite(integrals)
    result = {
        "target": target.value,
        "points": int(len(f.omega)),
        **integrals,
        "cfi_photon_counting": cfi,
        "qcrb_coherent": fisher.qcrb(qfi),
        "qcrb_photon_counting": fisher.qcrb(cfi),
    }
    if target is EstimationTarget.MASS:
        result["relative_mass_bound_sqrt_n"] = (
            spectrum.relative_mass_bound_multifrequency(f)
        )
    dump_json(out, result)
    return {"spectrum": args.spectrum, "target": target.value}, [out], None


# --- parser -------------------------------------------------------------------

# Options several subcommands share; a subcommand's entry adds to these.
_SHARED = {
    "--config": {"help": "JSON config path"},
    "--target": {"choices": ["mass", "phase"], "default": "mass"},
    "--format": {"choices": ["csv", "json"]},
}
_REQUIRED = {"required": True}
_AXIS = "NAME:LO:HI:STEPS[:log]"

# name: (runner, help, options beyond --out and --threads)
SUBCOMMANDS = {
    "fisher": (
        run_fisher,
        "information report for one config",
        {"--config": _REQUIRED, "--target": {}, "--format": {"default": "json"}},
    ),
    "scan": (
        run_scan,
        "saturation-ratio grid scans",
        {
            "--config": {},
            "--target": {"default": None},
            "--preset": {"help": "fig2a|fig2b|fig2c|fig2d|fig3a|fig3b"},
            "--x-axis": {"help": _AXIS},
            "--y-axis": {"help": _AXIS},
            "--format": {"default": "csv"},
        },
    ),
    "optimize": (
        run_optimize,
        "saturating reference-arm solutions",
        {"--config": _REQUIRED, "--target": {}},
    ),
    "snr": (
        run_snr,
        "signal-to-noise sweeps",
        {
            "--preset": {"help": "figsnr1|figsnr2"},
            "--mode": {"choices": ["mass", "phase"]},
            "--e-r": {"type": float},
            "--e-s": {"type": float},
            "--e-i": {"type": float},
            "--phi-s": {"type": float},
            "--phi-i": {"type": float},
            "--sweep": {"help": "VAR:LO:HI:STEPS[:log] over phi_i or phi_s"},
            "--format": {"default": "csv"},
        },
    ),
    "montecarlo": (
        run_montecarlo,
        "Monte Carlo CRB validation",
        {
            "--config": _REQUIRED,
            "--target": {},
            "--trials": {"type": int, "default": 1000},
            "--samples": {"type": int, "default": 1000},
            "--seed": {"type": int, "required": True},
        },
    ),
    "spectrum": (
        run_spectrum,
        "broadband bounds from a spectrum CSV",
        {
            "--spectrum": {"required": True, "help": "spectrum CSV path"},
            "--target": {},
        },
    ),
}

# argparse reads only the -1 and -1.5 forms as values and any other word
# starting with '-' as a flag; this adds exponents, inf and nan.  It replaces
# the private pattern argparse sets on each parser in __init__.
_NEGATIVE_NUMBER = re.compile(
    r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads -1e-3, -inf and -nan as values, not flags.

    Subparsers are built with the parser's own class, so they inherit it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="iscat-metrology",
        description=(
            "Fisher-information bounds, reference-arm tuning and shot-noise "
            "Monte Carlo for interferometric scattering photometry"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (run, help_text, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options.items():
            p.add_argument(flag, **{**_SHARED.get(flag, {}), **kwargs})
        p.add_argument("--out", required=True, help="output path")
        p.add_argument(
            "--threads",
            type=int,
            help="montecarlo sampling threads (default: available cores); "
            "other subcommands run in one thread",
        )
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.threads is not None and args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        arguments, outputs, seed = args.run(args, out)
        dump_json(
            f"{out}.manifest.json",
            {
                "subcommand": args.subcommand,
                "arguments": arguments,
                "outputs": [str(path) for path in outputs],
                "seed": seed,
                "tool_version": __version__,
                "timestamp": datetime.datetime.now(
                    datetime.timezone.utc
                ).isoformat(),
            },
        )
    except (NotEstimableError, BracketError) as exc:
        print(f"not estimable: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
