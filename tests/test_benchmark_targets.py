"""The functions the benchmark's tracer wraps still exist in the package.

``perfbench/child.py`` wraps package functions by ``(module, path)`` name
and records a target it cannot find as missing; that target's per-layer
metric then reads 0.  This test reads the list without installing the
tracer, so a rename in ``src/`` that would zero a live metric fails here.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Targets whose metrics already read 0; the benchmark retires them.
KNOWN_MISSING = {
    "iscat_metrology.photonstats:model_mean",
    "iscat_metrology.photonstats:mle_estimate",
}


def _wraps():
    spec = importlib.util.spec_from_file_location(
        "perfbench_child", ROOT / "perfbench" / "child.py"
    )
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.WRAPS


def _resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return callable(owner)


def test_every_live_wrap_target_resolves():
    targets = [(module, path) for module, path, *_ in _wraps()]
    missing = {f"{m}:{p}" for m, p in targets if not _resolves(m, p)}
    assert missing == KNOWN_MISSING
