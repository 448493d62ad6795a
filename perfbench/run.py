#!/usr/bin/env python3
"""Benchmark of the iscat-metrology CLI: cold-process workloads, end-to-end
metrics, an optional traced run that splits the time across the package's
modules, and independent checks of every output.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (closed loop: one client starts the next process when the previous
one has exited; every call passes --threads equal to the affinity core count):

    figure_data     one process: the six scan presets and both SNR presets
    crb_montecarlo  one process: three 1000 x 1000 Monte Carlo CRB checks
    broadband       one process: spectrum bounds, both targets, 1e5-point band
    cold_cli        nine cold processes, one small call each (two must fail)

BENCHMARK.json lists all but ``broadband``; see perfbench/README.md.

The workload is repeated for ``--seconds``; times are medians over the
repetitions.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  Full results, provenance, output digests
and spans go to ``.bench_work/<run>/``.

The program is run from ``src/`` of the checkout; nothing there is modified.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402

#: A process that has not exited after this long is killed and its ops fail.
PROCESS_TIMEOUT_S = 150.0
#: Cold ``-X importtime`` processes per traced run.
IMPORT_SAMPLES = 3

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "process_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> (unit, end-to-end metric and workload it should move).
PER_LAYER = {
    "import.cli_s": ("s", "setup_s on every workload; process_p50_s on cold_cli"),
    "import.scipy_s": ("s", "setup_s on every workload"),
    "import.numpy_s": ("s", "setup_s on every workload"),
    "import.modules": ("count", "setup_s on every workload"),
    "cli.self_s": ("s", "process_p50_s on cold_cli"),
    "cli.calls": ("count", "process_p50_s on cold_cli"),
    "field.load_config_s": ("s", "process_p50_s on cold_cli, slightly"),
    "field.load_config_calls": ("count", "process_p50_s on cold_cli, slightly"),
    "fisher.report_s": ("s", "process_p50_s on cold_cli, slightly"),
    "fisher.report_calls": ("count", "process_p50_s on cold_cli, slightly"),
    "tuner.scan_s": ("s", "wall_s on figure_data; none on crb_montecarlo or broadband"),
    "tuner.cells": ("count", "wall_s on figure_data"),
    "tuner.undefined_cells": ("count", "wall_s on figure_data"),
    "tuner.ns_per_cell": ("ns", "wall_s on figure_data"),
    "tuner.optimize_s": ("s", "process_p50_s on cold_cli, slightly"),
    "snr.sweep_s": ("s", "wall_s on figure_data, slightly"),
    "snr.points": ("count", "wall_s on figure_data, slightly"),
    "photonstats.crb_s": ("s", "wall_s and peak_rss_mb on crb_montecarlo"),
    "photonstats.trials": ("count", "wall_s on crb_montecarlo"),
    "photonstats.us_per_trial": ("us", "wall_s on crb_montecarlo"),
    "photonstats.sample_s": ("s", "wall_s on crb_montecarlo"),
    "photonstats.mle_s": ("s", "wall_s on crb_montecarlo"),
    "photonstats.model_mean_calls": ("count", "wall_s on crb_montecarlo"),
    "spectrum.read_s": ("s", "wall_s and peak_rss_mb on broadband"),
    "spectrum.points": ("count", "wall_s and peak_rss_mb on broadband"),
    "spectrum.integrals_s": ("s", "wall_s on broadband"),
    "textio.csv_write_s": ("s", "wall_s and peak_rss_mb on figure_data"),
    "textio.json_write_s": ("s", "process_p50_s on cold_cli"),
    "textio.bytes_written": ("count", "wall_s on figure_data"),
    "textio.ns_per_byte": ("ns", "wall_s on figure_data"),
    "trace.overhead_s": ("s", "none: traced minus untraced wall_s"),
    "check.ratio_max_abs_err": ("1", "none: largest scan-ratio error"),
    "check.nan_mask_mismatches": ("count", "none: scan NaN-mask mismatches"),
    "check.outputs_changed": ("count", "none: data files differing from the seed commit"),
}

#: Per-layer busy time: metric -> span name recorded by child.py.
SPAN_TIMES = {
    "field.load_config_s": "field.load_config",
    "fisher.report_s": "fisher.report",
    "tuner.scan_s": "tuner.scan",
    "tuner.optimize_s": "tuner.optimize",
    "snr.sweep_s": "snr.sweep",
    "photonstats.crb_s": "photonstats.crb",
    "photonstats.sample_s": "photonstats.sample",
    "photonstats.mle_s": "photonstats.mle",
    "spectrum.read_s": "spectrum.read",
    "spectrum.integrals_s": "spectrum.integrals",
    "textio.csv_write_s": "textio.csv_write",
    "textio.json_write_s": "textio.json_write",
}
#: Per-layer counts: metric -> count key recorded by child.py.
SPAN_COUNTS = {
    "cli.calls": "cli.main_calls",
    "field.load_config_calls": "field.load_config_calls",
    "fisher.report_calls": "fisher.report_calls",
    "tuner.cells": "tuner.cells",
    "tuner.undefined_cells": "tuner.undefined_cells",
    "snr.points": "snr.points",
    "photonstats.trials": "photonstats.trials",
    "photonstats.model_mean_calls": "photonstats.model_mean_calls",
    "spectrum.points": "spectrum.points",
}


# --- processes ---------------------------------------------------------------------


def spawn(argv, cwd, env, log):
    """Run one process to completion; return (rc, launch, exit, maxrss_kb).

    The child's own rusage comes from wait4.  A watchdog kills a child that
    outlives PROCESS_TIMEOUT_S, so every process started here has ended when
    this returns.
    """
    with open(log, "ab") as fh:
        launch = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=fh,
                                stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 already
    return proc.returncode, launch, end, rusage.ru_maxrss


def digests(out_dir):
    """{file name: [sha256, bytes]} of every file the program wrote."""
    result = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        result[path.name] = [hashlib.sha256(data).hexdigest(), len(data)]
    return result


def data_digests(outputs):
    """Digests of the data files; manifests carry a timestamp and are left out."""
    return {k: v for k, v in outputs.items() if not k.endswith(".manifest.json")}


class Run:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, root, workload, seed, trace):
        self.root = root
        self.workload = workload
        self.threads = len(os.sched_getaffinity(0))
        self.work = root / ".bench_work" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.inputs_dir = self.work / "inputs"
        self.out_dir = self.work / "out"
        self.inputs_dir.mkdir(parents=True)
        self.log = self.work / "child.log"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.processes, self.facts = inputs.build(
            workload, seed, self.inputs_dir, self.out_dir, root, self.threads)
        self.reps = []  # one dict per repetition
        self.kept = {}  # rep index -> output directory kept for checking
        self.spans = []

    def warm_up(self):
        """Byte-compile the package and fill the page cache; not timed."""
        rc, *_ = spawn([sys.executable, "-c", "import iscat_metrology.cli"],
                       self.root, self.env, self.log)
        if rc != 0:
            raise SystemExit(f"cannot import iscat_metrology.cli from {self.root / 'src'}; "
                             f"see {self.log}")

    def rep(self, traced):
        index = len(self.reps)
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        self.out_dir.mkdir()
        specs = []
        for k, ops in enumerate(self.processes):
            spec = self.work / f"spec{k}.json"
            spec.write_text(json.dumps({
                "src": str(self.root / "src"), "trace": traced,
                "ops": [o["argv"] for o in ops], "result": str(self.work / f"child{k}.json"),
            }))
            specs.append(spec)
        procs = []
        for k, spec in enumerate(specs):
            child_result = self.work / f"child{k}.json"
            if child_result.exists():
                child_result.unlink()
            rc, launch, end, maxrss = spawn([sys.executable, str(HERE / "child.py"), str(spec)],
                                            self.out_dir, self.env, self.log)
            procs.append({"rc": rc, "launch": launch, "exit": end, "maxrss_kb": maxrss,
                          "result": child_result})
        rep = {"traced": traced, "wall_s": procs[-1]["exit"] - procs[0]["launch"],
               "processes": [], "rcs": []}
        for k, (ops, p) in enumerate(zip(self.processes, procs)):
            child = json.loads(p["result"].read_text()) if p["rc"] == 0 and p["result"].exists() else None
            rcs = [c["rc"] for c in child["calls"]] if child else [None] * len(ops)
            rep["rcs"].extend(rcs)
            rep["processes"].append({
                "rc": p["rc"], "time_s": p["exit"] - p["launch"],
                "setup_s": child["t_import"] - p["launch"] if child else None,
                "maxrss_kb": p["maxrss_kb"],
            })
            if child and traced:
                rep["missing"] = child.get("missing", [])
                for span_id, parent, name, start, end in child["spans"]:
                    self.spans.append({"run": index, "process": k, "id": span_id, "parent": parent,
                                       "name": name, "start": start, "end": end,
                                       "workload": self.workload})
                rep.setdefault("counts", {})
                for key, n in child["counts"].items():
                    rep["counts"][key] = rep["counts"].get(key, 0) + n
        rep["outputs"] = digests(self.out_dir)
        data = data_digests(rep["outputs"])
        matches = next((i for i in self.kept if data_digests(self.reps[i]["outputs"]) == data), None)
        rep["checked_as"] = index if matches is None else matches
        if matches is None:
            self.out_dir.rename(self.work / f"out{index}")
            self.kept[index] = self.work / f"out{index}"
        self.reps.append(rep)
        return rep

    def measure(self, seconds, traced):
        """Repeat the workload while another repetition fits in ``seconds``."""
        start = time.monotonic()
        longest = 0.0
        while True:
            t0 = time.monotonic()
            self.rep(traced)
            longest = max(longest, time.monotonic() - t0)
            if time.monotonic() - start + longest > seconds:
                return

    # --- checks ------------------------------------------------------------------

    def check(self):
        """Run the independent checks; return (attempted, failed, problems, stats)."""
        stats = {"check.ratio_max_abs_err": 0.0, "check.nan_mask_mismatches": 0,
                 "mc_ratios": []}
        ops = [o for p in self.processes for o in p]
        verdicts = {}  # kept rep -> list of per-op problem lists
        for index, out_dir in self.kept.items():
            verdicts[index] = [self._check_op(o, out_dir, stats) if o["check"] else [] for o in ops]
            band = checks.check_crb_band(stats)
            stats["mc_ratios"] = []
            if band:
                for k, o in enumerate(ops):
                    if o["check"] and o["check"][0] == "montecarlo":
                        verdicts[index][k] = verdicts[index][k] + band
        attempted = failed = 0
        problems = []
        for rep_index, rep in enumerate(self.reps):
            for k, (o, rc) in enumerate(zip(ops, rep["rcs"])):
                attempted += 1
                bad = []
                if rc != o["expect"]:
                    bad.append(f"{' '.join(o['argv'][:3])}: exit {rc}, expected {o['expect']}")
                elif o["expect"] == 0:
                    bad.extend(verdicts[rep["checked_as"]][k])
                if bad:
                    failed += 1
                    problems.extend(f"rep {rep_index}: {b}" for b in bad)
        baseline = json.loads((HERE / "baseline.json").read_text())["outputs"].get(self.workload, {})
        first = self.reps[0]["outputs"]
        stats["check.outputs_changed"] = sum(
            1 for name, sha in baseline.items() if first.get(name, [None])[0] != sha)
        return attempted, failed, problems, stats

    def _check_op(self, op, out_dir, stats):
        kind, name, *rest = op["check"]
        configs = self.facts.get("configs", {})
        try:
            if kind == "scan":
                return checks.check_scan(out_dir, name, stats)
            if kind == "snr":
                return checks.check_snr(out_dir, name, rest[0])
            if kind == "fisher_json":
                return checks.check_fisher_json(out_dir, name, configs[rest[0]])
            if kind == "fisher_csv":
                return checks.check_fisher_csv(out_dir, name, configs[rest[0]])
            if kind == "optimize":
                return checks.check_optimize(out_dir, name, configs[rest[0]])
            if kind == "spectrum":
                return checks.check_spectrum(out_dir, name, self.facts[rest[0]], rest[1])
            if kind == "montecarlo":
                return checks.check_montecarlo(out_dir, name, configs[rest[0]], rest[1], stats)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{name}: unreadable output ({type(exc).__name__}: {exc})"]
        raise ValueError(f"unknown check {kind!r}")

    # --- metrics -----------------------------------------------------------------

    def end_to_end(self, reps):
        procs = [p for r in reps for p in r["processes"]]
        setups = [p["setup_s"] for p in procs if p["setup_s"] is not None]
        return {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(setups) if setups else float("nan"),
            # median per repetition first: the host's speed switches between
            # two levels every few seconds, and one median over all processes
            # jumps between them from run to run
            "process_p50_s": statistics.median(
                statistics.median(p["time_s"] for p in r["processes"]) for r in reps),
            "peak_rss_mb": max(p["maxrss_kb"] for p in procs) / 1024.0,
        }

    def import_split(self):
        """Import metrics from cold ``python -X importtime`` processes (medians)."""
        code = ("import sys, time\nt = time.perf_counter()\nimport iscat_metrology.cli\n"
                "print(time.perf_counter() - t, len(sys.modules))")
        rows = []
        for k in range(IMPORT_SAMPLES):
            log = self.work / f"importtime{k}.log"
            out = self.work / f"importtime{k}.out"
            with open(out, "wb") as fh_out, open(log, "wb") as fh_err:
                proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=self.root,
                                      env=self.env, stdout=fh_out, stderr=fh_err,
                                      timeout=PROCESS_TIMEOUT_S)
            if proc.returncode != 0:
                raise SystemExit(f"import timing failed; see {log}")
            cli_s, modules = out.read_text().split()
            selfs = {"numpy": 0, "scipy": 0}
            for line in log.read_text().splitlines():
                if not line.startswith("import time:") or "self [us]" in line:
                    continue
                _, self_us, _, name = (f.strip() for f in line.replace("import time:", "|").split("|"))
                top = name.split(".")[0]
                if top in selfs:
                    selfs[top] += int(self_us)
            rows.append({"import.cli_s": float(cli_s), "import.modules": int(modules),
                         "import.numpy_s": selfs["numpy"] / 1e6, "import.scipy_s": selfs["scipy"] / 1e6})
        return {k: statistics.median(r[k] for r in rows) for k in rows[0]}

    def per_layer(self, stats):
        traced_reps = [r for r in self.reps if r["traced"]]
        untraced_reps = [r for r in self.reps if not r["traced"]]
        per_rep = []
        for index, rep in enumerate(self.reps):
            if not rep["traced"]:
                continue
            spans = [s for s in self.spans if s["run"] == index]
            m = {metric: sum(s["end"] - s["start"] for s in spans if s["name"] == name)
                 for metric, name in SPAN_TIMES.items()}
            m.update({metric: rep["counts"].get(key, 0) for metric, key in SPAN_COUNTS.items()})
            m["cli.self_s"] = self_time(spans, "cli.main")
            bytes_written = sum(n for _, n in rep["outputs"].values())
            m["textio.bytes_written"] = bytes_written
            m["textio.ns_per_byte"] = (
                (m["textio.csv_write_s"] + m["textio.json_write_s"]) / bytes_written * 1e9
                if bytes_written else 0.0)
            m["tuner.ns_per_cell"] = m["tuner.scan_s"] / m["tuner.cells"] * 1e9 if m["tuner.cells"] else 0.0
            m["photonstats.us_per_trial"] = (
                m["photonstats.crb_s"] / m["photonstats.trials"] * 1e6 if m["photonstats.trials"] else 0.0)
            per_rep.append(m)
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        metrics.update(self.import_split())
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_reps)
                                       - statistics.median(r["wall_s"] for r in untraced_reps))
        for key in ("check.ratio_max_abs_err", "check.nan_mask_mismatches", "check.outputs_changed"):
            metrics[key] = stats[key]
        return metrics


def self_time(spans, name):
    """Total duration of ``name`` spans minus the time their children cover."""
    children = {}
    for s in spans:
        children.setdefault((s["process"], s["parent"]), []).append(s)
    total = 0.0
    for s in spans:
        if s["name"] != name:
            continue
        covered, cursor = 0.0, s["start"]
        for c in sorted(children.get((s["process"], s["id"]), []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        total += s["end"] - s["start"] - covered
    return total


def provenance(root, threads):
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():  # a plain source tree has no commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "affinity_cores": threads, "cpu_model": cpu,
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"), "git_commit": commit,
        "src_sha256": src.hexdigest(), "threads_passed": threads,
        "platform": platform.platform(),
    }


def run_workload(root, workload, seed, seconds, trace):
    run = Run(root, workload, seed, trace)
    run.warm_up()
    if trace:
        run.measure(seconds / 2, traced=False)
        run.measure(seconds / 2, traced=True)
    else:
        run.measure(seconds, traced=False)
    attempted, failed, problems, stats = run.check()
    e2e = run.end_to_end([r for r in run.reps if not r["traced"]])
    metrics = run.per_layer(stats) if trace else e2e
    units = {k: PER_LAYER[k][0] for k in PER_LAYER} if trace else END_TO_END
    missing = sorted({m for r in run.reps for m in r.get("missing", [])})
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": provenance(root, run.threads),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "problems": problems,
        "end_to_end": e2e, "metrics": metrics, "missing_wrap_targets": missing,
        "checks": {k: v for k, v in stats.items() if k != "mc_ratios"},
        "reps": [{k: v for k, v in r.items() if k != "counts"} for r in run.reps],
    }
    (run.work / "result.json").write_text(json.dumps(record, indent=1))
    if run.spans:
        with open(run.work / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in run.spans:
                fh.write(json.dumps(s) + "\n")
    for out_dir in [run.inputs_dir, run.out_dir, *run.kept.values()]:
        shutil.rmtree(out_dir, ignore_errors=True)
    record["units"] = units
    record["results_dir"] = str(run.work.relative_to(root))
    return record


def report(record):
    """Human-readable lines for one workload."""
    print(f"workload {record['workload']}: seed {record['seed']}, {len(record['reps'])} repetitions, "
          f"threads {record['provenance']['threads_passed']}, results in {record['results_dir']}")
    for name, value in record["end_to_end"].items():
        print(f"  {name:<16} {value:12.6g} {END_TO_END[name]}")
    print(f"  {'failed_frac':<16} {record['failed_frac']:12.6g} ({record['failed']} of "
          f"{record['attempted']} operations)")
    if record["trace"]:
        for name, value in record["metrics"].items():
            unit, moves = PER_LAYER[name]
            print(f"  {name:<30} {value:14.6g} {unit:<6} moves: {moves}")
        for target in record["missing_wrap_targets"]:
            print(f"  missing wrap target: {target} (its metrics read 0)")
    for problem in record["problems"][:20]:
        print(f"  FAILED {problem}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so spawn() kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "iscat_metrology" / "cli.py").is_file():
        print(f"error: {root} holds no src/iscat_metrology; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = inputs.WORKLOADS if args.workload == "all" else [args.workload]
    records = [run_workload(root, w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for record in records:
        report(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
        units = records[0]["units"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
        units = {f"{r['workload']}.{k}": u for r in records for k, u in r["units"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
