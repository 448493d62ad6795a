#!/usr/bin/env python3
"""Measure what the tier-1 tests catch: apply each one-line mutant of the
table below to a fresh copy of the tree and run the tests on it.

Each row names a file, a line of it (compared without its indentation; it
must occur exactly once), the line that replaces it (indented as the old
one), and either the test expected to kill the mutant or ``equivalent:``
with the reason no test can.  For every row the script extracts
``git archive REV`` into a new temporary directory, applies the row, runs
the expected test with ``pytest -x``, and if that passes, the whole tier-1
suite with ``-x``.  It prints one line per row:

    killed    <first failing test>   <file>: <old> -> <new>
    survived  -                      <file>: <old> -> <new>

and exits 1 when a row expected to be killed survives.  A mutant is not
part of tier-1: one costs 2-40 s.  Run it from the repository root:

    python scripts/mutants.py              # every row, on HEAD
    python scripts/mutants.py 5 9          # rows 5 and 9 only
    python scripts/mutants.py --rev $(git stash create)   # uncommitted
                                           # changes of tracked files

``git stash create`` makes a commit of the working tree without touching
it or any ref; a new file is included once it is added to the index.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    expect: str  # the killing test id, or "equivalent: <reason>"


SRC = "src/iscat_metrology/"
MUTANTS = [
    Mutant(
        SRC + "fisher.py", "vacuum = mag <= vacuum_tol", "vacuum = mag < vacuum_tol",
        "tests/test_fisher.py::TestMismatchAngles::test_vacuum_angle_is_nan",
    ),
    Mutant(
        SRC + "spectrum.py", "dead = vacuum & (dal != 0)", "dead = vacuum",
        "tests/test_spectrum.py::TestQfiPhaseAveraged::"
        "test_vacuum_at_silent_point_is_fine",
    ),
    Mutant(
        SRC + "photonstats.py", "ambiguous += len(found) > 1",
        "ambiguous += len(found) > 2",
        "tests/test_photonstats.py::TestClosedFormMle::"
        "test_two_roots_return_nearest_and_count_as_ambiguous",
    ),
    Mutant(
        SRC + "photonstats.py", "edge = 1e-6 * (hi - lo)", "edge = 1e-3 * (hi - lo)",
        "tests/test_photonstats.py::TestClosedFormMle::"
        "test_agrees_with_golden_section_oracle",
    ),
    Mutant(
        SRC + "photonstats.py", "return sorted(inside, key=lambda r: abs(r - mu))",
        "return sorted(inside)",
        "tests/test_photonstats.py::TestClosedFormMle::"
        "test_two_roots_return_nearest_when_it_is_the_larger",
    ),
    Mutant(
        SRC + "tuner.py",
        "return tuple(phi for phi, t in points if reached and abs(t) > vacuum)",
        "return tuple(phi for phi, t in points if reached and abs(t) >= vacuum)",
        "equivalent: the two differ only where |t| equals VACUUM_TOL * alpha0_mag"
        " exactly, a single double that no config is built to reach",
    ),
    Mutant(  # the reference arm conjugated in the detector field
        SRC + "field.py", "return first_arm_amplitude(cfg) + reference_amplitude(cfg)",
        "return first_arm_amplitude(cfg) + reference_amplitude(cfg).conjugate()",
        "tests/test_acceptance.py::test_cfi_oracle_equivalence",
    ),
    Mutant(  # a per-trial seed off by one
        SRC + "photonstats.py",
        "total = float(sample_counts(lam, samples_per_trial, seed + k).sum())",
        "total = float(sample_counts(lam, samples_per_trial, seed + k + 1).sum())",
        "tests/test_photonstats.py::TestClosedFormMle::"
        "test_two_roots_return_nearest_and_count_as_ambiguous",
    ),
    Mutant(  # an snr manifest that records a value for its swept phase
        SRC + "cli.py",
        "setattr(args, sweep_var, None)  # no single value: the sweep gives its values",
        "pass",
        "tests/test_cli.py::TestSnrCommand::test_preset_is_the_command_line_it_stands_for",
    ),
    Mutant(  # a spectrum manifest that does not identify its input
        SRC + "cli.py", 'manifest["inputs"] = [_input("--spectrum", spectrum)]',
        "pass",
        "tests/test_cli.py::TestSpectrumCommand::"
        "test_manifest_identifies_the_spectrum_by_its_bytes",
    ),
    Mutant(  # a Monte Carlo chunk that drops its last trial
        SRC + "photonstats.py",
        "for k in range(n_trials * w // workers, n_trials * (w + 1) // workers):",
        "for k in range(n_trials * w // workers, n_trials * (w + 1) // workers - 1):",
        "tests/test_photonstats.py::TestCrbValidation::"
        "test_same_report_for_any_worker_count",
    ),
    Mutant(  # the ambiguous trials of one chunk, not of all
        SRC + "photonstats.py",
        "ambiguous = sum(pool.map(fit_chunk, range(workers)))",
        "ambiguous = max(pool.map(fit_chunk, range(workers)))",
        "tests/test_photonstats.py::TestCrbValidation::"
        "test_ambiguous_trials_summed_over_chunks",
    ),
    Mutant(  # the photon budget without its round-off slack
        SRC + "field.py", "if worst > bound + BUDGET_TOL * alpha0_mag:",
        "if worst > bound:",
        "tests/test_field.py::TestValidateEnergy::test_boundary_tolerance",
    ),
    Mutant(  # a config recorded as the FieldConfig, not its JSON schema
        SRC + "cli.py", "return config_to_dict(value)", "return value",
        "tests/test_cli.py::TestFisherCommand::test_manifest_sidecar",
    ),
    Mutant(  # a run that may write over its own input
        SRC + "cli.py",
        "if os.path.exists(path) and os.path.samefile(path, source):",
        "if False:",
        "tests/test_cli.py::test_output_that_is_the_input_exits_2",
    ),
    Mutant(  # a spectrum read from a pipe, which hashes empty
        SRC + "cli.py",
        "if spectrum and os.path.exists(spectrum) and not os.path.isfile(spectrum):",
        "if False:",
        "tests/test_cli.py::TestSpectrumCommand::test_spectrum_from_a_pipe_exits_2",
    ),
    Mutant(  # a sweep over phi_i that computes the small-phase SNR
        SRC + "cli.py", '"phi_i": ("mass", snr.mass_snr_sweep),',
        '"phi_i": ("phase", snr.phase_snr_sweep),',
        "tests/test_snr.py::test_preset_csv_matches_cell_by_cell_oracle[figsnr1]",
    ),
    Mutant(  # an --out of newdir/ written as the file newdir
        SRC + "cli.py", 'if not args.out or args.out.endswith(("/", os.sep)):',
        "if not args.out:",
        "tests/test_cli.py::test_out_without_a_file_name_exits_2",
    ),
    Mutant(  # a config phase of -0.0 kept, and recorded, as -0.0
        SRC + "field.py", "return r + 0.0  # -0.0 becomes 0.0", "return r",
        "tests/test_cli.py::TestFisherCommand::test_negative_zero_phase_writes_zero",
    ),
    Mutant(  # arg(1 - 0j) reported as -0.0
        SRC + "field.py",
        "return np.where(theta >= TAU, 0.0, theta) + 0.0  # -0.0 becomes 0.0",
        "return np.where(theta >= TAU, 0.0, theta)",
        "tests/test_field.py::"
        "test_phase_of_a_negative_zero_imaginary_part_is_positive_zero",
    ),
    Mutant(  # a reference arm of magnitude 0 refused by optimize
        SRC + "tuner.py", "if not (mag_i >= 0.0):", "if not (mag_i > 0.0):",
        "tests/test_cli.py::TestOptimizeCommand::"
        "test_zero_reference_magnitude_has_no_solutions",
    ),
    Mutant(  # a log axis of one value, LO == HI, accepted
        SRC + "tuner.py", "if not (0.0 < lo < hi):", "if not (0.0 < lo <= hi):",
        "tests/test_cli.py::TestScanCommand::"
        "test_ill_posed_axis_exits_2[log_axis_of_one_value]",
    ),
    Mutant(  # a repeated frequency accepted
        SRC + "spectrum.py",
        "if len(self.omega) > 1 and not np.all(np.diff(self.omega) > 0):",
        "if len(self.omega) > 1 and not np.all(np.diff(self.omega) >= 0):",
        "tests/test_cli.py::TestSpectrumCommand::"
        "test_ill_formed_grid_exits_2[repeated_omega]",
    ),
    Mutant(  # a zero quadrature weight accepted
        SRC + "spectrum.py", "elif not np.all(self.weights > 0):",
        "elif not np.all(self.weights >= 0):",
        "tests/test_cli.py::TestSpectrumCommand::"
        "test_ill_formed_grid_exits_2[zero_weight]",
    ),
    Mutant(  # a band that scatters nothing called orthogonal instead
        SRC + "spectrum.py", "if not (qfi > 0.0):", "if not (qfi >= 0.0):",
        "tests/test_spectrum.py::TestRelativeMassBound::test_empty_scattering_errors",
    ),
    Mutant(  # a config mass of -0.0 kept, and recorded, as -0.0
        SRC + "field.py",
        'object.__setattr__(self, "mass_kda", self.mass_kda + 0.0)  # -0.0 becomes 0.0',
        'object.__setattr__(self, "mass_kda", self.mass_kda)',
        "tests/test_cli.py::TestFisherCommand::test_negative_zero_mass_writes_zero",
    ),
    Mutant(  # a reference magnitude of -0.0 written as -0.0
        SRC + "field.py",
        'object.__setattr__(self, "mag", self.mag + 0.0)  # -0.0 becomes 0.0',
        'object.__setattr__(self, "mag", self.mag)',
        "tests/test_cli.py::TestOptimizeCommand::"
        "test_negative_zero_reference_magnitude_writes_zero",
    ),
    Mutant(  # an axis of exactly MAX_CELLS steps refused
        SRC + "tuner.py", "if steps > MAX_CELLS:", "if steps >= MAX_CELLS:",
        "tests/test_tuner.py::TestScanGrid::"
        "test_axis_steps_cap_admits_the_cap_itself",
    ),
    Mutant(  # an arm exactly at the bound plus its slack refused
        SRC + "field.py", "if worst > bound + BUDGET_TOL * alpha0_mag:",
        "if worst >= bound + BUDGET_TOL * alpha0_mag:",
        "tests/test_field.py::TestValidateEnergy::"
        "test_bound_plus_slack_is_admitted_and_the_next_double_is_not",
    ),
    Mutant(  # a listed axis value handed on unparsed
        SRC + "cli.py",
        'fields = [("value", text, float) for text in parts[1].split(",")]',
        'fields = [("value", text, str) for text in parts[1].split(",")]',
        "tests/test_cli.py::TestScanCommand::"
        "test_hostile_listed_axis_exits_2[non_numeric_cell-scan]",
    ),
]


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    hits = [k for k, line in enumerate(lines) if line.strip() == mutant.old]
    if len(hits) != 1:
        raise SystemExit(f"{mutant.path}: {mutant.old!r} occurs {len(hits)} times")
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + mutant.new + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def first_failure(tree: Path, *tests: str) -> str | None:
    """The first failing test of a ``pytest -x`` run in ``tree``, or None."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [*PYTEST, *tests], cwd=tree, env=env, capture_output=True, text=True
    )
    if done.returncode == 0:
        return None
    if done.returncode not in (1, 2):  # a usage error, or no test collected
        raise SystemExit(f"pytest {' '.join(tests)} exited {done.returncode}:\n"
                         f"{done.stdout}{done.stderr}")
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return failed.group(1) if failed else "collection"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rows", nargs="*", type=int, help="1-based rows to run")
    parser.add_argument("--rev", default="HEAD", help="tree to mutate")
    args = parser.parse_args()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", args.rev],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    missed = 0
    for row in args.rows or range(1, len(MUTANTS) + 1):
        mutant = MUTANTS[row - 1]
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            tree = Path(tmp)
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
            apply(tree, mutant)
            equivalent = mutant.expect.startswith("equivalent:")
            killer = None if equivalent else first_failure(tree, mutant.expect)
            killer = killer or first_failure(tree)
        missed += killer is None and not equivalent
        status = "killed" if killer else "survived"
        print(f"{row:2d} {status:9s} {killer or '-'}   "
              f"{mutant.path}: {mutant.old} -> {mutant.new or '(deleted)'}")
        if equivalent:
            print(f"   {mutant.expect}")
        sys.stdout.flush()
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
