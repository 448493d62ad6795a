#!/usr/bin/env python3
"""Monte Carlo check that the MLE variance tracks the Cramer-Rao bound.

Runs the two desk-scale two-arm configurations of ``configs/``, which share
the same particle and detector photon number: ``monte_carlo_saturated.json``
with the reference arm tuned to saturation (cos^2 = 1) and
``monte_carlo_quarter.json`` parked at cos^2 = 1/4, whose variance should
come out four times larger.

Usage: python scripts/validate_crb.py [--trials N] [--samples N] [--seed N]
"""

import argparse
from pathlib import Path

from iscat_metrology import photonstats
from iscat_metrology.field import EstimationTarget, load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(trials: int, samples: int, seed: int) -> None:
    tuned = load_config(CONFIGS / "monte_carlo_saturated.json")
    quarter = load_config(CONFIGS / "monte_carlo_quarter.json")
    print(f"trials={trials} samples_per_trial={samples} seed={seed}")
    reports = {}
    for name, cfg in (("saturated", tuned), ("cos^2=1/4", quarter)):
        rep = photonstats.crb_validation(
            cfg, EstimationTarget.MASS, samples, trials, seed
        )
        reports[name] = rep
        print(
            f"{name:>10}: var={rep.empirical_variance:.5f} kDa^2  "
            f"crb={rep.crb:.5f} kDa^2  var/crb={rep.ratio_var_over_crb:.4f} "
            f"(+-{rep.ratio_standard_error:.4f})  bias={rep.bias:+.4f} kDa"
        )
    ratio = (
        reports["cos^2=1/4"].empirical_variance
        / reports["saturated"].empirical_variance
    )
    print(f"variance ratio quarter/saturated = {ratio:.3f} (expected 4)")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--samples", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    run(args.trials, args.samples, args.seed)
