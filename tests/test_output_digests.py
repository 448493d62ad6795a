"""Every data file the CLI writes stays byte-identical to the recorded digests.

``tests/data/output_digests.txt`` holds the lines that
``scripts/output_digests.py`` prints, under a first comment line naming the
Python and numpy versions they were recorded with.  Another numpy may round
or sample differently, so under other versions the test is skipped.  After a
deliberate change of output, re-record the file:

    (echo "# python X.Y.Z, numpy A.B.C"; \\
     PYTHONPATH=src python scripts/output_digests.py OUT_DIR) \\
        > tests/data/output_digests.txt
"""

import platform
from pathlib import Path

import numpy as np
import pytest

from conftest import run_fresh

ROOT = Path(__file__).resolve().parents[1]


def test_data_files_match_recorded_digests(tmp_path):
    lines = (ROOT / "tests/data/output_digests.txt").read_text().splitlines()
    recorded, *expected = lines
    running = f"# python {platform.python_version()}, numpy {np.__version__}"
    if recorded != running:
        pytest.skip(f"recorded with {recorded[2:]!r}, running {running[2:]!r}")
    script = str(ROOT / "scripts/output_digests.py")
    assert run_fresh(script, str(tmp_path / "out")).splitlines() == expected
