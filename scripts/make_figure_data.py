#!/usr/bin/env python3
"""Regenerate every figure dataset (ratio scans and SNR sweeps) via the CLI
presets into an output directory.

Usage: python scripts/make_figure_data.py [OUT_DIR]
"""

import sys
from pathlib import Path

from iscat_metrology.cli import SCAN_PRESETS, SNR_PRESETS, main


def presets():
    """(subcommand, preset name) of every figure preset the CLI defines."""
    yield from (("scan", name) for name in SCAN_PRESETS)
    yield from (("snr", name) for name in SNR_PRESETS)


def run(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    for subcommand, preset in presets():
        out = out_dir / f"{preset}.csv"
        rc = main([subcommand, "--preset", preset, "--out", str(out)])
        if rc != 0:
            return rc
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("figure_data")
    raise SystemExit(run(target))
