#!/usr/bin/env python3
"""Digest every data file the CLI writes, so two checkouts can be compared
byte for byte.

Into OUT_DIR (new or empty) it writes: every figure dataset of
make_figure_data.py, and ``fig2a``, ``fig3a``, ``figsnr1`` and ``figsnr2``
also as JSON; ``fisher`` (JSON and CSV), ``optimize`` and
``montecarlo`` (50 trials x 200 samples, seed 7) for every ``configs/``
file and both targets; and ``spectrum`` for both targets on a seeded
2001-point band that it writes itself with ``spectrum_to_csv``.  It prints
one line per data file, sorted by name:

    sha256  bytes  exit-code  name

A run that writes nothing prints "-" for the digest and size.  Manifests
are left out: they hold a timestamp.  Run it on each checkout and diff:

    PYTHONPATH=src python scripts/output_digests.py OUT_DIR > digests.txt
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

from iscat_metrology.cli import main
from iscat_metrology.spectrum import SpectralField, spectrum_to_csv
from make_figure_data import presets

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TARGETS = ["mass", "phase"]
#: Presets also run with --format json: one scan per target, both SNR sweeps.
JSON_PRESETS = [
    ("scan", "fig2a"), ("scan", "fig3a"), ("snr", "figsnr1"), ("snr", "figsnr2")
]


def write_band(path: Path, points: int = 2001, seed: int = 7) -> None:
    """Smooth source arms with per-point random phases and scattering."""
    rng = np.random.default_rng(seed)
    omega = np.linspace(0.8, 1.4, points)
    envelope = np.sqrt(1.0 / omega)
    scale_s = 1e-4 * (1.0 + 0.5 * rng.random(points))
    phi_s = rng.uniform(0.0, 2.0 * np.pi, points)
    phi_i = rng.uniform(0.0, 2.0 * np.pi, points)
    band = SpectralField(
        omega=omega,
        alpha_r=0.02 * envelope + 0j,
        alpha_s=66.0 * scale_s * np.exp(1j * phi_s),
        alpha_i=0.03 * envelope * np.exp(1j * phi_i),
        scale_s=scale_s,
        phi_s=phi_s,
    )
    spectrum_to_csv(band, path)


def runs(band: Path):
    """(output name, CLI arguments before --out) of every run."""
    for subcommand, preset in presets():
        yield f"{preset}.csv", [subcommand, "--preset", preset]
    for subcommand, preset in JSON_PRESETS:
        yield f"{preset}.json", [subcommand, "--preset", preset, "--format", "json"]
    for config in sorted(CONFIGS.glob("*.json")):
        for target in TARGETS:
            given = ["--config", str(config), "--target", target]
            stem = f"{config.stem}_{target}"
            yield f"fisher_{stem}.json", ["fisher", *given]
            yield f"fisher_{stem}.csv", ["fisher", *given, "--format", "csv"]
            yield f"optimize_{stem}.json", ["optimize", *given]
            yield f"montecarlo_{stem}.json", [
                "montecarlo", *given,
                "--trials", "50", "--samples", "200", "--seed", "7",
            ]
    for target in TARGETS:
        yield f"spectrum_{target}.json", [
            "spectrum", "--spectrum", str(band), "--target", target
        ]


def digests(out_dir: Path) -> list[str]:
    """Write the band, make every run, and return the sorted digest lines."""
    band = out_dir / "band.csv"
    write_band(band)
    written = {band: 0}
    for name, argv in runs(band):
        rc = main([*argv, "--out", str(out_dir / name)])
        files = [p for p in out_dir.glob(name + "*")
                 if not p.name.endswith(".manifest.json")]
        written.update({p: rc for p in files} or {out_dir / name: rc})
    lines = []
    for path, rc in sorted(written.items()):
        digest, size = "-", "-"
        if path.exists():
            data = path.read_bytes()
            digest, size = hashlib.sha256(data).hexdigest(), len(data)
        lines.append(f"{digest}  {size}  {rc}  {path.name}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: output_digests.py OUT_DIR")
    out_dir = Path(sys.argv[1])
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        raise SystemExit(f"{out_dir} is not empty")
    print("\n".join(digests(out_dir)))
