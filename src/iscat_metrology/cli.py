"""Command-line interface.

Subcommands map one-to-one onto the library surfaces:

    fisher      information report + bounds for one config
    scan        saturation-ratio grids (figure presets available)
    optimize    saturating reference-arm solutions
    snr         signal-to-noise sweeps (figure presets available)
    montecarlo  Monte Carlo MLE validation of the Cramer-Rao bound
    spectrum    broadband bounds from a spectrum CSV

The parser is built once per process from the ``SUBCOMMANDS`` table.  Each
subcommand is a ``run_<name>(args)`` function that loads, checks and
computes, and returns only its files: each output suffix (``""`` for
``--out`` itself) mapped to a one-argument writer of that file.  A runner
names no path and writes no file, and leaves each option on ``args`` at the
value it resolved.  :func:`main` owns the rest.  It names each file
``<out><suffix>`` and lists them in one ``<out>.manifest.json`` sidecar
(the subcommand's own table options as resolved, which replay the run,
outputs, the sha256 of a ``--spectrum`` input, tool version and timestamp).
It refuses a ``--spectrum`` that is not a regular file, and an output that
exists and is not a regular file or is the run's input.  It writes every
file under a staged name beside its own, then moves each into place with
``os.replace``, the manifest last; on any exception it removes every file
it staged or moved, so a run's files appear together or not at all.  It
maps errors to exit codes: 0 success, 3 a ``fisher.NotEstimableError``
(vacuum detector field, vanishing target derivative, zero information, a
fit at the bracket edge), 2 any other input/config error (a failed write or
an ``--out`` with no file name included).  Data files contain no timestamps, so
identical inputs reproduce them byte for byte.

A process runs one subcommand, so this module loads only what every
subcommand uses (``field``, ``fisher``, ``textio``).  Each runner imports
``tuner``, ``snr``, ``photonstats`` or ``spectrum`` itself, so a cold
process compiles and executes only the modules its subcommand runs.
Runners call through the module object (``tuner.scan_ratio_grid``), so a
function replaced on its module is the one called.

Only ``fisher``, ``scan`` and ``snr`` take ``--format``; the others always
write JSON.  Every subcommand accepts ``--threads N`` (N >= 1); only
``montecarlo`` uses it, running its trials on up to N threads (default: the
available cores), and its outputs do not depend on N.  Option values such
as ``-1e-3``, ``-inf`` or ``-nan`` are read as numbers, not as flags.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, fisher
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


# --- presets: each the command line it stands for -----------------------------


def _particle(phi_s: float) -> ParticleModel:
    # unit mass carrying the full scattered magnitude keeps |alpha_s| explicit
    return ParticleModel(mass_kda=1.0, scale_per_kda=2e-5, phi_s=phi_s)


_ISCAT = FieldConfig(alpha_r=2.3e-5, particle=_particle(2.0 * PI / 3.0))
_FIG2BC = FieldConfig(2.3e-5, _particle(5.0 * PI / 6.0), ReferenceArm(4.5e-5, 0.0))
_FIG2D = FieldConfig(1e-2, _particle(5.0 * PI / 6.0), ReferenceArm(4.5e-5, 0.0))
_FIG3B = FieldConfig(1e-2, _particle(5.0 * PI / 6.0), ReferenceArm(0.045, 0.0))
_R_MAG = "alpha_r_mag:1e-06:0.1:121:log"
# pi/3, 2*pi/3 and 5*pi/6, as repr writes them
_PHASES = "phi_s:1.0471975511965976,2.0943951023931953,2.6179938779914944"
_PHI_S = "phi_s:0:6.283185307179586:73"
_PHI_I = "phi_i:0:6.283185307179586:721"

#: name: the scan options a preset stands for, as option strings but
#: ``config``, which no option string holds: it is the loaded config.
SCAN_PRESETS = {
    "fig2a": dict(config=_ISCAT, target="mass", x_axis=_R_MAG, y_axis=_PHASES),
    "fig2b": dict(config=_FIG2BC, target="mass", x_axis=_PHI_S, y_axis=_PHI_I),
    "fig2c": dict(config=_FIG2BC, target="mass", x_axis="mag_i:0:9e-05:181",
                  y_axis=_PHI_I),
    "fig2d": dict(config=_FIG2D, target="mass", x_axis="mag_i:0:0.02:201",
                  y_axis=_PHI_I),
    "fig3a": dict(config=_ISCAT, target="phase", x_axis=_R_MAG, y_axis=_PHASES),
    "fig3b": dict(config=_FIG3B, target="phase", x_axis=_PHI_S, y_axis=_PHI_I),
}

#: name: the snr options a preset stands for; the others keep their defaults.
SNR_PRESETS = {
    "figsnr1": dict(phi_s=PI / 2.0, sweep="phi_i:0:6.283185307179586:721"),
    "figsnr2": dict(phi_i=PI / 2.0, sweep="phi_s:1e-4:1e-2:101:log"),
}


def _preset_help(presets: dict) -> str:
    """Each preset as the options it stands for."""
    return "; ".join(
        name + " = " + " ".join(f"--{k.replace('_', '-')} {v}" for k, v in opts.items())
        for name, opts in presets.items()
    )


def _apply_preset(args, presets: dict, defaults: dict):
    """Set the options in ``defaults`` from --preset, or else each one not
    given to its default, and return the names given or set by the preset.

    A preset sets the options in ``defaults``, so none may be given with it.
    """
    given = {n: getattr(args, n) for n in defaults if getattr(args, n) is not None}
    if args.preset is not None:
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ValueError(f"--preset {args.preset} conflicts with {flags}")
        if args.preset not in presets:
            raise ValueError(
                f"unknown preset {args.preset!r}; expected one of {sorted(presets)}"
            )
        given = presets[args.preset]
    for name, default in defaults.items():
        setattr(args, name, given.get(name, default))
    return given.keys()


def _parse_axis(spec: str):
    """Axis argument as a ``tuner.AxisSpec``: NAME:LO:HI:STEPS[:log], STEPS
    values from LO to HI, or NAME:V1[,V2,...], the one or more values listed."""
    from . import tuner

    parts = spec.split(":")
    listed = len(parts) == 2
    if not listed and len(parts) not in (4, 5):
        raise ValueError(f"axis spec {spec!r} is not {_AXIS}")
    name, numbers = parts[0], []
    fields = zip(("LO", "HI", "STEPS"), parts[1:], (float, float, int))
    if listed:
        fields = [("value", text, float) for text in parts[1].split(",")]
    for label, text, kind in fields:
        try:
            numbers.append(kind(text))
        except ValueError:
            what = f"a valid {kind.__name__}"
            raise ValueError(f"axis {name!r}: {label} {text!r} is not {what}") from None
    if listed:
        return tuner.AxisSpec(name, numbers)
    lo, hi, steps = numbers
    if len(parts) == 5:
        if parts[4] != "log":
            raise ValueError(f"axis {name!r}: unknown scale {parts[4]!r}")
        return tuner.AxisSpec.logspace(name, lo, hi, steps)
    return tuner.AxisSpec.linspace(name, lo, hi, steps)


# --- subcommands: each returns its files ------------------------------------


def _json(obj):
    """A writer of ``obj`` as a JSON document."""
    return lambda path: dump_json(path, obj)


def run_fisher(args):
    cfg = args.config = load_config(args.config)
    target = EstimationTarget(args.target)
    report = fisher.fisher_report(cfg, target)
    # both bounds first: zero information exits 3 whatever the format
    qcrb_coherent = fisher.qcrb(report.qfi_coherent)
    qcrb_counting = fisher.qcrb(report.cfi_photon_number)
    if args.format == "csv":
        write = lambda path: fisher.write_report_csv(path, cfg, target, report)
    else:
        write = _json({
            "setup": cfg.setup,
            "target": target.value,
            "report": report.to_dict(),
            "qcrb_coherent": qcrb_coherent,
            "qcrb_photon_counting": qcrb_counting,
        })
    return {"": write}


def run_scan(args):
    from . import tuner

    defaults = {"config": None, "target": "mass", "x_axis": None, "y_axis": None}
    _apply_preset(args, SCAN_PRESETS, defaults)
    if args.config is None or args.x_axis is None:
        raise ValueError("scan needs either --preset or --config + --x-axis")
    target = EstimationTarget(args.target)
    if args.preset is None:  # a preset's config is loaded already
        args.config = load_config(args.config)
    x = _parse_axis(args.x_axis)
    y = _parse_axis(args.y_axis) if args.y_axis is not None else None
    grid = tuner.scan_ratio_grid(args.config, target, x, y)
    header = grid.header_dict()
    if args.format == "json":
        ratio = [
            [None if math.isnan(v) else v for v in row]
            for row in grid.values.tolist()
        ]
        files = {"": _json({"header": header, "ratio": ratio})}
    else:
        files = {"": grid.to_csv, ".header.json": _json(header)}
    return files


def run_optimize(args):
    from . import tuner

    cfg = args.config = load_config(args.config)
    target = EstimationTarget(args.target)
    sol = tuner.saturating_reference_set(cfg, target)
    ref = cfg.reference
    result = {
        "setup": cfg.setup,
        "target": target.value,
        "min_mag_i": sol.min_mag_i,
        "psi": sol.psi,
        # saturating_reference_set passed the budget check, so
        # min_mag_i <= |alpha_r + alpha_s| <= alpha0_mag/2 always
        "feasible": True,
        "reference_mag": ref.mag if ref is not None else None,
        "phi_solutions_at_reference_mag": (
            list(sol.solutions_at(ref.mag)) if ref is not None else None
        ),
    }
    return {"": _json(result)}


def run_snr(args):
    from . import snr

    defaults = dict(e_r=1.0, e_s=0.01, e_i=1.0, phi_s=0.0, phi_i=0.0, sweep=None)
    given = _apply_preset(args, SNR_PRESETS, defaults)
    triple = snr.RealFieldTriple(args.e_r, args.e_s, args.e_i, args.phi_s, args.phi_i)
    if args.sweep is None:
        raise ValueError("snr needs either --preset or --sweep")
    sweeps = {  # the swept phase picks the SNR
        "phi_i": ("mass", snr.mass_snr_sweep),
        "phi_s": ("phase", snr.phase_snr_sweep),
    }
    # checked before _parse_axis, whose message lists the scan axes
    sweep_var = args.sweep.split(":")[0]
    if sweep_var not in sweeps:
        raise ValueError(f"--sweep runs over phi_i or phi_s, not {sweep_var!r}")
    mode, sweep_fn = sweeps[sweep_var]
    if sweep_var in given:
        flag = "--" + sweep_var.replace("_", "-")
        raise ValueError(f"--sweep over {sweep_var} conflicts with {flag}")
    setattr(args, sweep_var, None)  # no single value: the sweep gives its values
    axis = _parse_axis(args.sweep)  # the scan axis grammar
    log_scale = axis.scale == "log"
    sweep = sweep_fn(triple, axis.values)
    _require_finite({f"snr column {name}": values for name, values in sweep.items()})
    if args.format == "json":
        columns = {name: values.tolist() for name, values in sweep.items()}
        write = _json({"mode": mode, "log_scale": log_scale, "sweep": columns})
    else:
        meta = [f"mode: {mode}", f"log_scale: {str(log_scale).lower()}"]
        write = lambda path: snr.write_sweep_csv(path, sweep, meta)
    return {"": write}


def run_montecarlo(args):
    from . import photonstats

    cfg = args.config = load_config(args.config)
    target = EstimationTarget(args.target)
    report = photonstats.crb_validation(
        cfg,
        target,
        samples_per_trial=args.samples,
        n_trials=args.trials,
        seed=args.seed,
        threads=args.threads,
    )
    return {
        "": _json({"setup": cfg.setup, **report.to_dict()}),
        ".trials.csv": lambda path: photonstats.write_trials_csv(path, report),
    }


def run_spectrum(args):
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
    return {"": _json(result)}


# --- parser -------------------------------------------------------------------

# Options several subcommands share; a subcommand's entry adds to these.
_SHARED = {
    "--config": {"help": "JSON config path"},
    "--target": {"choices": ["mass", "phase"], "default": "mass"},
    "--format": {"choices": ["csv", "json"]},
}
_REQUIRED = {"required": True}
_AXIS = "NAME:LO:HI:STEPS[:log] or NAME:V1[,V2,...]"

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
            "--preset": {"help": "|".join(SCAN_PRESETS)},
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
            "--preset": {"help": _preset_help(SNR_PRESETS)},
            "--e-r": {"type": float},
            "--e-s": {"type": float},
            "--e-i": {"type": float},
            "--phi-s": {"type": float},
            "--phi-i": {"type": float},
            "--sweep": {"help": _AXIS + ", NAME phi_i (mass SNR) or phi_s "
                                "(small-phase SNR)"},
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


@functools.cache  # one parser per process; main parses into a new namespace
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
    for name, (_, help_text, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options.items():
            p.add_argument(flag, **{**_SHARED.get(flag, {}), **kwargs})
        p.add_argument("--out", required=True, help="output path")
        p.add_argument(
            "--threads",
            type=int,
            help="montecarlo trial threads (default: available cores); "
            "other subcommands run in one thread",
        )
    return parser


def _recorded(value):
    """An option's resolved value as its manifest records it."""
    if isinstance(value, FieldConfig):
        return config_to_dict(value)
    return value


def _input(option: str, path: str) -> dict:
    """A file a run read, identified by the sha256 and size of its bytes."""
    import hashlib  # here only, so other subcommands never load it

    data = Path(path).read_bytes()  # a second read, after the runner's
    sha256 = hashlib.sha256(data).hexdigest()
    return {"option": option, "path": path, "sha256": sha256, "bytes": len(data)}


def _commit(files: dict, inputs: dict) -> None:
    """Write each path's file under a staged name beside it, remove the earlier
    manifest (the last path), then move each into place in order; refuse first
    a path in ``inputs`` (option: path).  On any exception, remove every file
    staged or moved and re-raise; an OSError names the path, not its staged name."""
    for path in files:  # os.replace would replace a device node too
        if os.path.exists(path) and not os.path.isfile(path):
            raise ValueError(f"{path} exists and is not a regular file")
        for option, source in inputs.items():
            if os.path.exists(path) and os.path.samefile(path, source):
                raise ValueError(f"{path} would overwrite the {option} input")
    staged = {f"{path}.{os.getpid()}.staged": path for path in files}
    placed = 0
    try:
        for name, write in zip(staged, files.values()):
            write(name)
        if os.path.exists(manifest := list(files)[-1]):  # it would list files
            os.remove(manifest)  # that a failed move removes
        for name, path in staged.items():
            os.replace(name, path)
            placed += 1
    except BaseException as exc:
        for k, (name, path) in enumerate(staged.items()):
            try:
                os.remove(path if k < placed else name)
            except OSError:
                pass
        if isinstance(exc, OSError) and exc.filename in staged:
            raise OSError(exc.errno, exc.strerror, staged[exc.filename]) from None
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Path("") is the working directory, and Path("d/") drops the slash
        if not args.out or args.out.endswith(("/", os.sep)):
            raise ValueError(f"--out needs a file name, got {args.out!r}")
        # the input paths as given, before a runner loads --config in place
        inputs = {o: getattr(args, o[2:], None) for o in ("--config", "--spectrum")}
        inputs = {option: path for option, path in inputs.items() if path is not None}
        for option, path in {"--out": args.out, **inputs}.items():
            if "\0" in path:
                raise ValueError(f"{option} holds a NUL byte: {path!r}")
        if args.threads is not None and args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
        spectrum = inputs.get("--spectrum")
        # read twice, to parse and to hash, where a pipe would hash empty
        if spectrum and os.path.exists(spectrum) and not os.path.isfile(spectrum):
            raise ValueError(f"--spectrum {spectrum} is not a regular file")
        runner, _, options = SUBCOMMANDS[args.subcommand]
        files = runner(args)
        out = Path(args.out)
        files = {f"{out}{suffix}": write for suffix, write in files.items()}
        names = (flag[2:].replace("-", "_") for flag in options)
        manifest = {
            "subcommand": args.subcommand,
            "arguments": {name: _recorded(getattr(args, name)) for name in names},
            "outputs": list(files),
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        if spectrum is not None:  # a config is recorded inline instead
            manifest["inputs"] = [_input("--spectrum", spectrum)]
        _commit({**files, f"{out}.manifest.json": _json(manifest)}, inputs)
    except fisher.NotEstimableError as exc:
        print(f"not estimable: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
