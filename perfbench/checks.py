"""Independent correctness checks of the program's outputs.

They recompute each output with numpy from its inputs and closed forms, and
never import ``iscat_metrology``.  Each check returns a list of problems
(empty when the output is correct) and may add diagnostics to ``stats``.
"""

import json
import math

import numpy as np

TAU = 2.0 * math.pi

#: Scan ratios may drift by round-off when the kernel is refactored (the
#: vectorized kernel differs by <= 1.1e-15 on fig2c); anything this large is
#: a wrong result, not drift.
SCAN_ABS_TOL = 1e-12
REL_TOL = 1e-9
VACUUM_TOL = 1e-12
#: MLE estimates must sit on a root of lam(mu) = S/N within this share of the
#: search bracket; golden-section refinement on a flat log-likelihood leaves
#: ~1e-8 of the bracket, a closed-form root leaves round-off.
MLE_BRACKET_TOL = 1e-6
#: Criterion 7's band for var/CRB at 1000 trials.
CRB_BAND = (0.9, 1.15)

SNR_PRESETS = {
    "figsnr1": dict(mode="mass", e_r=1.0, e_s=0.01, e_i=1.0, phi_s=math.pi / 2,
                    phi_i=None, sweep=("phi_i", np.linspace(0.0, TAU, 721))),
    "figsnr2": dict(mode="phase", e_r=1.0, e_s=0.01, e_i=1.0, phi_s=None,
                    phi_i=math.pi / 2, sweep=("phi_s", np.logspace(-4, -2, 101))),
}


def _close(got, want, rel=REL_TOL, abs_=0.0):
    return abs(got - want) <= max(rel * abs(want), abs_)


def _angle_close(a, b, tol=1e-12):
    d = math.fmod(abs(a - b), TAU)
    return min(d, TAU - d) <= tol


def _fields(cfg):
    """(alpha_r, alpha_s, alpha_i, mass-derivative) of a config dict."""
    p = cfg["particle"]
    alpha_r = complex(cfg["alpha_r"]["re"], cfg["alpha_r"]["im"])
    alpha_s = p["mass_kda"] * p["scale_per_kda"] * np.exp(1j * p["phi_s"])
    ref = cfg["reference"]
    alpha_i = 0j if ref is None else ref["mag"] * np.exp(1j * ref["phi_i"])
    d = p["scale_per_kda"] * np.exp(1j * p["phi_s"])
    return alpha_r, complex(alpha_s), complex(alpha_i), complex(d)


def _derivative(cfg, target):
    _, _, _, d = _fields(cfg)
    return d if target == "mass" else 1j * cfg["particle"]["mass_kda"] * d


def _info(alpha_d, dalpha):
    """(qfi, cfi, ratio) of one detector field and target derivative."""
    qfi = 4.0 * abs(dalpha) ** 2
    proj = (alpha_d.conjugate() * dalpha).real / abs(alpha_d)
    cfi = 4.0 * proj * proj
    return qfi, cfi, cfi / qfi


def _read_csv(path):
    """(column names, float matrix) of a CSV with optional '#' comment lines."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    names = lines[0].strip().split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2) if len(lines) > 1 else np.empty((0, len(names)))
    return names, data


# --- scans ---------------------------------------------------------------------


def _apply_axis(cell, name, values):
    alpha_r, mass, scale, phi_s, ref_mag, ref_phi = cell
    if name == "alpha_r_mag":
        phase = math.atan2(alpha_r.imag, alpha_r.real) if alpha_r != 0 else 0.0
        alpha_r = values * np.exp(1j * phase)
    elif name == "phi_s":
        phi_s = values
    elif name == "mag_i":
        ref_mag = values
    elif name == "phi_i":
        ref_phi = values
    else:
        raise ValueError(f"unknown axis {name!r}")
    return alpha_r, mass, scale, phi_s, ref_mag, ref_phi


def check_scan(out_dir, csv_name, stats):
    """Recompute a saturation-ratio grid from its header's axes and baseline."""
    header = json.loads((out_dir / (csv_name + ".header.json")).read_text())
    names, data = _read_csv(out_dir / csv_name)
    if names != ["x", "y", "ratio", "defined_flag"]:
        return [f"{csv_name}: columns {names}"]
    base = header["baseline"]
    ny, nx = header["shape"]
    xv = np.asarray(header["x"]["values"], dtype=float)
    yv = np.asarray(header["y"]["values"], dtype=float) if header["y"] else np.array([np.nan])
    if (ny, nx) != (len(yv), len(xv)) or data.shape[0] != nx * ny:
        return [f"{csv_name}: shape {header['shape']} vs {data.shape[0]} rows"]
    X, Y = np.meshgrid(xv, yv)
    p = base["particle"]
    ref = base["reference"]
    cell = (complex(base["alpha_r"]["re"], base["alpha_r"]["im"]), p["mass_kda"],
            p["scale_per_kda"], p["phi_s"],
            0.0 if ref is None else ref["mag"], 0.0 if ref is None else ref["phi_i"])
    if header["y"]:
        cell = _apply_axis(cell, header["y"]["name"], Y)
    cell = _apply_axis(cell, header["x"]["name"], X)
    alpha_r, mass, scale, phi_s, ref_mag, ref_phi = (np.broadcast_to(v, X.shape) for v in cell)
    direction = np.exp(1j * phi_s)
    alpha_d = alpha_r + mass * scale * direction + ref_mag * np.exp(1j * ref_phi)
    dalpha = scale * direction if header["target"] == "mass" else 1j * mass * scale * direction
    undefined = (dalpha == 0) | (np.abs(alpha_d) <= VACUUM_TOL * base["alpha0_mag"])
    with np.errstate(invalid="ignore", divide="ignore"):
        want = (alpha_d.conjugate() * dalpha).real ** 2 / (np.abs(alpha_d) ** 2 * np.abs(dalpha) ** 2)
    want = np.where(undefined, np.nan, want).ravel()

    problems = []
    if not (np.array_equal(data[:, 0], X.ravel())
            and (not header["y"] or np.array_equal(data[:, 1], Y.ravel()))):
        problems.append(f"{csv_name}: axis columns differ from the header axes")
    got = data[:, 2]
    got_nan = np.isnan(got)
    mismatches = int(np.count_nonzero(got_nan != np.isnan(want)))
    if not np.array_equal(data[:, 3], (~got_nan).astype(float)):
        problems.append(f"{csv_name}: defined_flag disagrees with the ratio column")
    both = ~got_nan & ~np.isnan(want)
    err = float(np.max(np.abs(got[both] - want[both]), initial=0.0))
    stats["check.nan_mask_mismatches"] += mismatches
    stats["check.ratio_max_abs_err"] = max(stats["check.ratio_max_abs_err"], err)
    if mismatches:
        problems.append(f"{csv_name}: NaN mask differs in {mismatches} cells")
    if err > SCAN_ABS_TOL:
        problems.append(f"{csv_name}: ratio off by {err:.3g} (tolerance {SCAN_ABS_TOL})")
    return problems


# --- SNR -----------------------------------------------------------------------


def check_snr(out_dir, csv_name, preset):
    """Compare an SNR preset sweep with its closed forms."""
    p = SNR_PRESETS[preset]
    var, sweep = p["sweep"]
    names, data = _read_csv(out_dir / csv_name)
    if names != [var, "snr_iscat", "snr_miscat"] or data.shape[0] != sweep.size:
        return [f"{csv_name}: columns {names}, {data.shape[0]} rows"]
    e_r, e_s, e_i = p["e_r"], p["e_s"], p["e_i"]
    # Near destructive interference the intensity is a small difference of
    # O(1) terms, so its rounding error grows by sum(|terms|) / intensity.
    conditioning = np.ones(sweep.size)
    if p["mode"] == "mass":
        phi_s, phi_i = p["phi_s"], sweep
        i1 = e_r**2 + 2 * e_r * e_s * math.cos(phi_s) + e_s**2
        terms = (e_i**2, 2 * e_i * e_r * np.cos(phi_i), 2 * e_i * e_s * np.cos(phi_i - phi_s))
        i2 = i1 + sum(terms)
        conditioning = (i1 + sum(np.abs(t) for t in terms)) / i2
        iscat = np.full(sweep.size, 2 * e_r * e_s * math.cos(phi_s) / math.sqrt(i1))
        miscat = (2 * e_r * e_s * math.cos(phi_s)
                  + 2 * e_i * e_s * np.cos(phi_i - phi_s)) / np.sqrt(i2)
    else:
        phi_s, phi_i = sweep, p["phi_i"]
        iscat = 2 * phi_s**2 * e_r * e_s / math.sqrt(e_r**2 + 2 * e_r * e_s + e_s**2)
        miscat = (2 * e_i * e_s * phi_s * math.sin(phi_i)
                  / math.sqrt(e_i**2 + 2 * e_i * e_r * math.cos(phi_i) + e_r**2))
    problems = []
    for k, (name, want) in enumerate(((var, sweep), ("snr_iscat", iscat), ("snr_miscat", miscat))):
        tol = (1e-12 + 1e-14 * conditioning) * np.abs(want) + 1e-15 * np.max(np.abs(want))
        if not np.all(np.abs(data[:, k] - want) <= tol):
            problems.append(f"{csv_name}: column {name} differs from the closed form")
    return problems


# --- fisher / optimize -------------------------------------------------------------


def check_fisher_json(out_dir, name, cfg, target="mass"):
    out = json.loads((out_dir / name).read_text())
    alpha_r, alpha_s, alpha_i, _ = _fields(cfg)
    alpha_d = alpha_r + alpha_s + alpha_i
    dalpha = _derivative(cfg, target)
    qfi, cfi, ratio = _info(alpha_d, dalpha)
    rep = out["report"]
    ok = (_close(rep["qfi_coherent"], qfi) and _close(rep["cfi_photon_number"], cfi)
          and _close(rep["qfi_phase_averaged"], cfi)
          and _close(rep["saturation_ratio"], ratio, abs_=1e-12)
          and _angle_close(rep["psi"], math.atan2(dalpha.imag, dalpha.real))
          and _angle_close(rep["chi"], math.atan2(alpha_d.imag, alpha_d.real))
          and _close(out["qcrb_coherent"], 1 / math.sqrt(qfi))
          and _close(out["qcrb_photon_counting"], 1 / math.sqrt(cfi))
          and out["target"] == target
          and out["setup"] == ("iscat" if cfg["reference"] is None else "miscat"))
    return [] if ok else [f"{name}: report differs from the closed forms"]


def check_fisher_csv(out_dir, name, cfg, target="mass"):
    with open(out_dir / name, encoding="utf-8") as fh:
        head, row = fh.read().splitlines()
    rec = dict(zip(head.split(","), row.split(",")))
    alpha_r, alpha_s, alpha_i, _ = _fields(cfg)
    qfi, cfi, ratio = _info(alpha_r + alpha_s + alpha_i, _derivative(cfg, target))
    ok = (rec["target"] == target and _close(float(rec["qfi_coherent"]), qfi)
          and _close(float(rec["cfi"]), cfi) and _close(float(rec["ratio"]), ratio, abs_=1e-12))
    return [] if ok else [f"{name}: CSV row differs from the closed forms"]


def check_optimize(out_dir, name, cfg, target="mass"):
    """Minimal reference magnitude is a point-to-line distance; each phase
    returned must align the detector field with the derivative."""
    out = json.loads((out_dir / name).read_text())
    alpha_r, alpha_s, _, _ = _fields(cfg)
    first = alpha_r + alpha_s
    dalpha = _derivative(cfg, target)
    psi = math.atan2(dalpha.imag, dalpha.real)
    min_mag = abs((first * complex(math.cos(-psi), math.sin(-psi))).imag)
    problems = []
    if not (_close(out["min_mag_i"], min_mag, abs_=1e-15 * abs(first))
            and _angle_close(out["psi"], psi)):
        problems.append(f"{name}: min_mag_i/psi differ from the geometry")
    mag = cfg["reference"]["mag"]
    phases = out["phi_solutions_at_reference_mag"]
    if len(phases) != (2 if mag > min_mag * (1 + 1e-9) else 0 if mag < min_mag * (1 - 1e-9) else 1):
        problems.append(f"{name}: {len(phases)} phase solutions at |alpha_i| = {mag}")
    for phi in phases:
        _, _, ratio = _info(first + mag * complex(math.cos(phi), math.sin(phi)), dalpha)
        if not ratio >= 1 - 1e-9:
            problems.append(f"{name}: phase {phi} gives cos^2 = {ratio}")
    return problems


# --- spectrum ----------------------------------------------------------------------


def check_spectrum(out_dir, name, f, target):
    out = json.loads((out_dir / name).read_text())
    w = f["weight"]
    alpha_d = f["alpha_r"] + f["alpha_s"] + f["alpha_i"]
    mag = np.abs(alpha_d)
    direction = np.exp(1j * f["phi_s"])
    dalpha = f["scale_s"] * direction if target == "mass" else 1j * f["alpha_s"]
    qfi = 4.0 * np.sum(w * np.abs(dalpha) ** 2)
    cfi = 4.0 * np.sum(w * ((alpha_d.conjugate() * dalpha).real / mag) ** 2)
    want = {
        "scattered_photons": np.sum(w * np.abs(f["alpha_s"]) ** 2),
        "qfi_coherent": qfi,
        "qfi_phase_averaged": cfi,
        "cfi_photon_counting": cfi,
        "qcrb_coherent": 1 / math.sqrt(qfi),
        "qcrb_photon_counting": 1 / math.sqrt(cfi),
    }
    if target == "mass":
        s2 = f["scale_s"] ** 2
        cos2 = ((alpha_d.conjugate() * direction).real / mag) ** 2
        want["relative_mass_bound_sqrt_n"] = 0.5 * math.sqrt(np.sum(w * s2) / np.sum(w * s2 * cos2))
    bad = [k for k, v in want.items() if not _close(out.get(k, math.nan), float(v))]
    if out.get("points") != len(w) or out.get("target") != target:
        bad.append("points/target")
    return [f"{name}: {', '.join(bad)} differ from the quadrature"] if bad else []


# --- Monte Carlo -------------------------------------------------------------------


def _mle_roots(cfg, target, level):
    """Parameter values whose counting mean |alpha_d(mu)|^2 equals ``level``,
    or the vertex/extremum of the mean when ``level`` is out of reach."""
    alpha_r, alpha_s, alpha_i, d = _fields(cfg)
    if target == "mass":
        a = alpha_r + alpha_i
        b = (a.conjugate() * d).real
        dd = abs(d) ** 2
        disc = b * b - dd * (abs(a) ** 2 - level)
        if disc < 0:
            return [-b / dd]
        r = math.sqrt(disc)
        return [(-b - r) / dd, (-b + r) / dd]
    b = alpha_r + alpha_i
    c = abs(alpha_s)
    arg_b = math.atan2(b.imag, b.real)
    cosine = (level - abs(b) ** 2 - c * c) / (2 * abs(b) * c)
    if cosine >= 1:
        return [arg_b]
    if cosine <= -1:
        return [arg_b + math.pi]
    delta = math.acos(cosine)
    return [arg_b - delta, arg_b + delta]


def check_montecarlo(out_dir, name, cfg, target, stats):
    """Every estimate solves lam(estimate) = S/N for its own regenerated
    counts (either root), and var/CRB is recomputed from the estimates."""
    out = json.loads((out_dir / name).read_text())
    names, data = _read_csv(out_dir / (name + ".trials.csv"))
    n, samples, seed = out["n_trials"], out["samples_per_trial"], out["seed"]
    problems = []
    if names != ["trial", "seed", "estimate"] or data.shape[0] != n:
        return [f"{name}: trials CSV has columns {names} and {data.shape[0]} rows"]
    if not np.array_equal(data[:, 1], seed + np.arange(n)):
        problems.append(f"{name}: trial seeds are not seed + k")
    alpha_r, alpha_s, alpha_i, _ = _fields(cfg)
    p = cfg["particle"]
    # same float operations as the program, so the Poisson draws match
    first = complex(cfg["alpha_r"]["re"], cfg["alpha_r"]["im"]) + complex(
        p["mass_kda"] * p["scale_per_kda"] * math.cos(p["phi_s"]),
        p["mass_kda"] * p["scale_per_kda"] * math.sin(p["phi_s"]))
    ref = cfg["reference"]
    lam = abs(first + complex(ref["mag"] * math.cos(ref["phi_i"]),
                              ref["mag"] * math.sin(ref["phi_i"]))) ** 2
    true = p["mass_kda"] if target == "mass" else p["phi_s"]
    width = 9.9 * true if target == "mass" else math.pi
    tol = MLE_BRACKET_TOL * width
    worst = 0.0
    for k, est in enumerate(data[:, 2]):
        rng = np.random.Generator(np.random.PCG64(seed + k))
        level = rng.poisson(lam, size=samples).sum() / samples
        roots = _mle_roots(cfg, target, level)
        if target == "mass":
            dist = min(abs(est - r) for r in roots)
        else:
            dist = min(abs(math.remainder(est - r, TAU)) for r in roots)
        worst = max(worst, dist)
    if worst > tol:
        problems.append(f"{name}: an estimate is {worst:.3g} from every MLE root (tolerance {tol:.3g})")
    est = data[:, 2]
    variance = float(np.var(est, ddof=1))
    _, cfi, _ = _info(alpha_r + alpha_s + alpha_i, _derivative(cfg, target))
    crb = 1.0 / (samples * cfi)
    if not (_close(out["empirical_variance"], variance) and _close(out["crb"], crb)
            and _close(out["ratio_var_over_crb"], variance / crb)):
        problems.append(f"{name}: variance, CRB or their ratio differ from the estimates")
    stats["mc_ratios"].append((variance / crb, n))
    return problems


def check_crb_band(stats):
    """Criterion 7 on the pooled 1000-trial calls, plus a per-call 5-sigma band.

    A single 1000-trial ratio has a standard error of sqrt(2/999) ~ 0.045, so
    about one seed in 70 puts it below 0.9 by chance; the mean over the three
    calls has a standard error of ~0.026 and leaves [0.9, 1.15] only when the
    estimator is wrong.
    """
    ratios = [r for r, n in stats["mc_ratios"] if n >= 1000]
    if not ratios:
        return []
    problems = []
    for r in ratios:
        if abs(r - 1.0) > 5 * math.sqrt(2.0 / 999):
            problems.append(f"var/CRB = {r:.4f} is more than 5 standard errors from 1")
    mean = sum(ratios) / len(ratios)
    if not CRB_BAND[0] <= mean <= CRB_BAND[1]:
        problems.append(f"mean var/CRB = {mean:.4f} outside {CRB_BAND}")
    return problems
