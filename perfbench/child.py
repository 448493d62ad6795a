"""One cold benchmark process: import the CLI, run its operations, report.

Usage: python3 perfbench/child.py SPEC.json

SPEC.json holds ``{"src": <package source dir>, "ops": [argv, ...],
"trace": bool, "result": <path>}``.  The process records the monotonic time
at which ``import iscat_metrology.cli`` returned (the parent knows the launch
time; CLOCK_MONOTONIC is shared by all processes), calls ``cli.main`` once
per argv, and writes exit codes, per-call times and -- when tracing -- the
spans and counts of the wrapped library functions to ``result``.

Tracing wraps public functions of the package from outside, for the life of
this process only; nothing under ``src/`` is modified.
"""

# Only these three modules load before the package, so the time to import
# the CLI is the package's own.
import json
import sys
import time

# (module, attribute, span name, post-hook or None, count_only)
# Post-hooks turn a call's result into work counts for its layer.
WRAPS = [
    ("iscat_metrology.cli", "main", "cli.main", None, False),
    ("iscat_metrology.cli", "load_config", "field.load_config", None, False),
    ("iscat_metrology.cli", "dump_json", "textio.json_write", None, False),
    ("iscat_metrology.fisher", "fisher_report", "fisher.report", None, False),
    ("iscat_metrology.fisher", "write_report_csv", "textio.csv_write", None, False),
    ("iscat_metrology.tuner", "scan_ratio_grid", "tuner.scan", "cells", False),
    ("iscat_metrology.tuner", "saturating_reference_set", "tuner.optimize", None, False),
    ("iscat_metrology.tuner", "ScanGrid.to_csv", "textio.csv_write", None, False),
    ("iscat_metrology.snr", "mass_snr_sweep", "snr.sweep", "points", False),
    ("iscat_metrology.snr", "phase_snr_sweep", "snr.sweep", "points", False),
    ("iscat_metrology.snr", "write_sweep_csv", "textio.csv_write", None, False),
    ("iscat_metrology.photonstats", "crb_validation", "photonstats.crb", "trials", False),
    ("iscat_metrology.photonstats", "sample_counts", "photonstats.sample", None, False),
    ("iscat_metrology.photonstats", "mle_estimate", "photonstats.mle", None, False),
    ("iscat_metrology.photonstats", "model_mean", "photonstats.model_mean", None, True),
    ("iscat_metrology.photonstats", "write_trials_csv", "textio.csv_write", None, False),
    ("iscat_metrology.spectrum", "spectrum_from_csv", "spectrum.read", "omega", False),
    ("iscat_metrology.spectrum", "qfi_multifrequency", "spectrum.integrals", None, False),
    (
        "iscat_metrology.spectrum",
        "qfi_multifrequency_phase_averaged",
        "spectrum.integrals",
        None,
        False,
    ),
    ("iscat_metrology.spectrum", "scattered_photons", "spectrum.integrals", None, False),
    (
        "iscat_metrology.spectrum",
        "relative_mass_bound_multifrequency",
        "spectrum.integrals",
        None,
        False,
    ),
]


def _post_counts(kind, result):
    """Work counts carried by a wrapped call's return value."""
    import numpy as np

    if kind == "cells":
        values = result.values
        return {"tuner.cells": int(values.size),
                "tuner.undefined_cells": int(np.isnan(values).sum())}
    if kind == "points":
        return {"snr.points": len(next(iter(result.values())))}
    if kind == "trials":
        return {"photonstats.trials": int(result.n_trials)}
    if kind == "omega":
        return {"spectrum.points": len(result.omega)}
    raise ValueError(kind)


class Tracer:
    """Spans and counts kept in memory, one buffer per thread.

    A span's parent is the innermost open span of its own thread; a span
    opened on a worker thread with nothing open there takes the innermost
    open span of the main thread, which is blocked in the pool call that
    started the worker.
    """

    def __init__(self):
        import itertools
        import threading

        self._threading = threading
        self._local = threading.local()
        self._buffers = []  # list.append is atomic; one entry per thread
        self._next_id = itertools.count(1).__next__  # atomic under the GIL
        self._main = threading.main_thread().ident
        self._main_stack = None

    def _buf(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = {"spans": [], "counts": {}, "stack": []}
            self._local.buf = buf
            self._buffers.append(buf)
            if self._threading.get_ident() == self._main:
                self._main_stack = buf["stack"]
        return buf

    def _count(self, buf, key, n):
        buf["counts"][key] = buf["counts"].get(key, 0) + n

    def wrap(self, owner, attr, name, post, count_only):
        inner = getattr(owner, attr)
        tracer = self

        if count_only:
            def counted(*args, **kwargs):
                tracer._count(tracer._buf(), name + "_calls", 1)
                return inner(*args, **kwargs)

            setattr(owner, attr, counted)
            return

        def spanned(*args, **kwargs):
            buf = tracer._buf()
            stack = buf["stack"]
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            span_id = tracer._next_id()
            stack.append(span_id)
            start = time.monotonic()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                buf["spans"].append([span_id, parent, name, start, end])
                tracer._count(buf, name + "_calls", 1)
            if post is not None:
                for key, n in _post_counts(post, result).items():
                    tracer._count(buf, key, n)
            return result

        setattr(owner, attr, spanned)

    def install(self):
        """Wrap every target; return the names of targets not found."""
        import importlib

        missing = []
        for module_name, path, name, post, count_only in WRAPS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}:{path}")
                continue
            self.wrap(owner, attr, name, post, count_only)
        return missing

    def dump(self):
        spans, counts = [], {}
        for buf in self._buffers:
            spans.extend(buf["spans"])
            for key, n in buf["counts"].items():
                counts[key] = counts.get(key, 0) + n
        return spans, counts


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import iscat_metrology.cli as cli

    t_import = time.monotonic()
    if not cli.__file__.startswith(spec["src"]):
        print(f"imported {cli.__file__}, expected a module under {spec['src']}",
              file=sys.stderr)
        return 1
    result = {"t_import": t_import, "calls": []}
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        result["missing"] = tracer.install()
    for argv in spec["ops"]:
        start = time.monotonic()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv
            rc = exc.code if isinstance(exc.code, int) else 2
        result["calls"].append({"rc": rc, "start": start, "end": time.monotonic()})
    if tracer is not None:
        result["spans"], result["counts"] = tracer.dump()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
