"""Workload definitions and seeded input generation.

Every input the program sees is written here from the workload seed: band
CSVs, the over-budget, vacuum and cos^2 = 1/4 configs, and the Monte Carlo
seeds.  The figure presets and the repository's own configs take no seed, so
``figure_data`` and most of ``cold_cli`` run the same traffic for every seed.

This module does not import ``iscat_metrology``; the configs it needs are
built with the same float operations the package uses, so they match the
package's own construction bit for bit.
"""

import cmath
import json
import math
import os
import random

import numpy as np

TAU = 2.0 * math.pi

SCAN_PRESETS = ["fig2a", "fig2b", "fig2c", "fig2d", "fig3a", "fig3b"]
SNR_PRESETS = ["figsnr1", "figsnr2"]
BAND_POINTS = 100_000
SMALL_BAND_POINTS = 65
MC_TRIALS, MC_SAMPLES = 1000, 1000
SMALL_MC_TRIALS, SMALL_MC_SAMPLES = 20, 100

WORKLOADS = ["figure_data", "crb_montecarlo", "broadband", "cold_cli"]


def wrap_angle(theta):
    r = math.fmod(theta, TAU)
    if r < 0.0:
        r += TAU
    if r >= TAU:
        r = 0.0
    return r


def config_dict(alpha_r, mass, scale, phi_s, reference, alpha0=1.0):
    ref = None if reference is None else {"mag": reference[0], "phi_i": reference[1]}
    return {
        "alpha0_mag": alpha0,
        "alpha_r": {"re": alpha_r.real, "im": alpha_r.imag},
        "particle": {"mass_kda": mass, "scale_per_kda": scale, "phi_s": phi_s},
        "reference": ref,
    }


def quarter_config():
    """The cos^2 = 1/4 desk-scale config.

    Same construction as ``scripts/validate_crb.py``: a two-arm setup with
    |alpha_i| = 4.5 tuned to saturate mass estimation (the solution with the
    larger detector field; that is ``configs/monte_carlo_saturated.json``),
    then a reference that keeps the detector photon number but turns the
    detector phase by pi/3 off the derivative direction.
    """
    alpha_r, mass, scale, alpha0 = 2.3 + 0j, 66.0, 2.0 / 66.0, 10.0
    phi_s = wrap_angle(5 * math.pi / 6)
    psi = wrap_angle(cmath.phase(cmath.rect(scale, phi_s)))
    first = alpha_r + cmath.rect(mass * scale, phi_s)
    rotated = first * cmath.exp(-1j * psi)
    r = math.sqrt(max(4.5 * 4.5 - rotated.imag**2, 0.0))
    phases = [
        wrap_angle(cmath.phase(t * cmath.exp(1j * psi) - first))
        for t in (rotated.real - r, rotated.real + r)
    ]
    phi_i = max(phases, key=lambda p: abs(first + cmath.rect(4.5, p)))
    t_mag = abs(first + cmath.rect(4.5, phi_i))
    alpha_i = t_mag * cmath.exp(1j * (psi - math.pi / 3)) - first
    return config_dict(alpha_r, mass, scale, phi_s,
                       (abs(alpha_i), wrap_angle(cmath.phase(alpha_i))), alpha0)


def band(rng, points):
    """Seeded broadband field: smooth source arms, per-point random phases."""
    lo = 0.8 + 0.1 * rng.random()
    hi = lo + 0.4 + 0.2 * rng.random()
    omega = np.linspace(lo, hi, points)
    w = np.empty(points)
    w[0] = 0.5 * (omega[1] - omega[0])
    w[-1] = 0.5 * (omega[-1] - omega[-2])
    w[1:-1] = 0.5 * (omega[2:] - omega[:-2])
    envelope = np.sqrt(1.0 / omega)
    alpha_r = 0.02 * envelope * (1.0 + 0.0j)
    alpha_i = 0.03 * envelope * np.exp(1j * rng.uniform(0.0, TAU, points))
    scale_s = 1e-4 * (1.0 + 0.5 * rng.random(points))
    phi_s = rng.uniform(0.0, TAU, points)
    alpha_s = 66.0 * scale_s * np.exp(1j * phi_s)
    return {
        "omega": omega, "weight": w, "alpha_r": alpha_r, "alpha_s": alpha_s,
        "alpha_i": alpha_i, "scale_s": scale_s, "phi_s": phi_s,
    }


def write_band(path, f):
    cols = np.column_stack([
        f["omega"], f["weight"], f["alpha_r"].real, f["alpha_r"].imag,
        f["alpha_s"].real, f["alpha_s"].imag, f["alpha_i"].real,
        f["alpha_i"].imag, f["scale_s"], f["phi_s"],
    ])
    header = ("omega,weight,alpha_r_re,alpha_r_im,alpha_s_re,alpha_s_im,"
              "alpha_i_re,alpha_i_im,scale_s,phi_s")
    np.savetxt(path, cols, fmt="%.17g", delimiter=",", header=header, comments="")


def over_budget_config(rng):
    """Sample arm |alpha_r + alpha_s| above alpha0_mag/2: exit 2."""
    alpha_r = complex(0.51 + 0.3 * rng.random(), 0.0)
    return config_dict(alpha_r, 1.0, 1e-5 * (1.0 + rng.random()),
                       TAU * rng.random(), None)


def vacuum_config(rng):
    """alpha_r cancels alpha_s exactly, so the detector field is vacuum: exit 3."""
    mass = 1.0 + 99.0 * rng.random()
    scale = 1e-4 * (1.0 + rng.random())
    phi_s = wrap_angle(TAU * rng.random())
    return config_dict(-cmath.rect(mass * scale, phi_s), mass, scale, phi_s, None)


def _dump(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)


def build(workload, seed, inputs_dir, out_dir, repo, threads):
    """Write the workload's inputs; return its processes and check facts.

    Returns ``(processes, facts)``: ``processes`` is a list of processes,
    each a list of ops ``{"argv", "expect", "check"}``; ``facts`` holds what
    the checks need (band arrays, configs).  Processes run in ``out_dir``
    and every path in argv is relative to it, so manifests, which record
    some paths, do not depend on where the checkout lives.
    """
    rng = random.Random(f"{workload}:{seed}")
    nprng = np.random.default_rng(rng.randrange(2**63))
    t = ["--threads", str(threads)]
    configs = repo / "configs"
    facts = {}

    def rel(path):
        return os.path.relpath(path, out_dir)

    def op(argv, check=None, expect=0):
        return {"argv": argv, "expect": expect, "check": check}

    def load(name):
        with open(configs / name, encoding="utf-8") as fh:
            return json.load(fh)

    if workload == "figure_data":
        ops = [op(["scan", "--preset", p, "--out", f"{p}.csv", *t], ["scan", f"{p}.csv"])
               for p in SCAN_PRESETS]
        ops += [op(["snr", "--preset", p, "--out", f"{p}.csv", *t], ["snr", f"{p}.csv", p])
                for p in SNR_PRESETS]
        return [ops], facts

    if workload == "crb_montecarlo":
        quarter = quarter_config()
        quarter_path = inputs_dir / "quarter.json"
        _dump(quarter_path, quarter)
        saturated_path = configs / "monte_carlo_saturated.json"
        facts["configs"] = {"saturated": load("monte_carlo_saturated.json"), "quarter": quarter}
        ops = []
        for name, path, target in (("saturated", saturated_path, "mass"),
                                   ("quarter", quarter_path, "mass"),
                                   ("quarter", quarter_path, "phase")):
            out = f"mc_{name}_{target}.json"
            ops.append(op(
                ["montecarlo", "--config", rel(path), "--target", target,
                 "--trials", str(MC_TRIALS), "--samples", str(MC_SAMPLES),
                 "--seed", str(rng.randrange(2**31)), "--out", out, *t],
                ["montecarlo", out, name, target],
            ))
        return [ops], facts

    if workload == "broadband":
        facts["band"] = band(nprng, BAND_POINTS)
        write_band(inputs_dir / "band.csv", facts["band"])
        ops = [op(["spectrum", "--spectrum", rel(inputs_dir / "band.csv"), "--target", tg,
                   "--out", f"band_{tg}.json", *t], ["spectrum", f"band_{tg}.json", "band", tg])
               for tg in ("mass", "phase")]
        return [ops], facts

    if workload == "cold_cli":
        facts["band65"] = band(nprng, SMALL_BAND_POINTS)
        write_band(inputs_dir / "band65.csv", facts["band65"])
        for name, cfg in (("over_budget", over_budget_config(rng)),
                          ("vacuum", vacuum_config(rng))):
            _dump(inputs_dir / f"{name}.json", cfg)
        facts["configs"] = {
            "worked_example": load("worked_example.json"),
            "two_arm": load("two_arm_baseline.json"),
            "saturated": load("monte_carlo_saturated.json"),
        }
        two_arm = rel(configs / "two_arm_baseline.json")
        processes = [
            op(["fisher", "--config", rel(configs / "worked_example.json"),
                "--out", "fisher.json", *t], ["fisher_json", "fisher.json", "worked_example"]),
            op(["fisher", "--config", two_arm, "--format", "csv", "--out", "fisher.csv", *t],
               ["fisher_csv", "fisher.csv", "two_arm"]),
            op(["optimize", "--config", two_arm, "--out", "optimize.json", *t],
               ["optimize", "optimize.json", "two_arm"]),
            op(["snr", "--preset", "figsnr2", "--out", "figsnr2.csv", *t],
               ["snr", "figsnr2.csv", "figsnr2"]),
            op(["scan", "--preset", "fig3a", "--out", "fig3a.csv", *t], ["scan", "fig3a.csv"]),
            op(["spectrum", "--spectrum", rel(inputs_dir / "band65.csv"),
                "--out", "band65.json", *t], ["spectrum", "band65.json", "band65", "mass"]),
            op(["montecarlo", "--config", rel(configs / "monte_carlo_saturated.json"),
                "--trials", str(SMALL_MC_TRIALS), "--samples", str(SMALL_MC_SAMPLES),
                "--seed", str(rng.randrange(2**31)), "--out", "mc_small.json", *t],
               ["montecarlo", "mc_small.json", "saturated", "mass"]),
            op(["fisher", "--config", rel(inputs_dir / "over_budget.json"),
                "--out", "over_budget.json", *t], expect=2),
            op(["fisher", "--config", rel(inputs_dir / "vacuum.json"),
                "--out", "vacuum.json", *t], expect=3),
        ]
        return [[p] for p in processes], facts

    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
