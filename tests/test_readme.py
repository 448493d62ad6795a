"""README's examples against the CLI they document: every `iscat-metrology`
line of its `sh` blocks parses, the ones whose inputs are repo files run,
and its JSON config example loads."""

import json
import re
import shlex
from pathlib import Path

import pytest

from iscat_metrology import cli
from iscat_metrology.field import config_from_dict

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def readme_commands():
    """The argv of each `iscat-metrology` line, continuations joined."""
    commands = []
    for block in readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("iscat-metrology "):
                commands.append(shlex.split(line)[1:])
    return commands


def option(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


COMMANDS = readme_commands()
# named by what a line writes, so a line added above others renames none
IDS = [f"{argv[0]}-{option(argv, '--out')}" for argv in COMMANDS]


def runnable(argv):
    """argv with repo-relative inputs made absolute, or None when an input
    is not a file of the repo (README's `band.csv`)."""
    argv = list(argv)
    for name in ("--config", "--spectrum"):
        if name in argv:
            k = argv.index(name) + 1
            path = ROOT / argv[k]
            if not path.is_file():
                return None
            argv[k] = str(path)
    return argv


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == set(cli.SUBCOMMANDS)


def test_readme_command_ids_are_unique():
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
def test_readme_command_parses(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.subcommand == argv[0]


@pytest.mark.parametrize(
    "argv",
    [runnable(a) for a in COMMANDS if runnable(a)],
    ids=[k for k, a in zip(IDS, COMMANDS) if runnable(a)],
)
def test_readme_command_runs(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # the relative --out lands here
    assert cli.main(argv) == 0
    assert (tmp_path / option(argv, "--out")).is_file()


@pytest.mark.parametrize("preset", ["figsnr1", "figsnr2"])
def test_readme_snr_forms_write_the_preset_bytes(tmp_path, monkeypatch, preset):
    (argv,) = [a for a in COMMANDS if option(a, "--out") == f"{preset}.csv"]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert cli.main(["snr", "--preset", preset, "--out", "preset.csv"]) == 0
    assert (tmp_path / f"{preset}.csv").read_bytes() == (
        tmp_path / "preset.csv"
    ).read_bytes()
    form, by_name = (
        json.loads((tmp_path / f"{name}.manifest.json").read_text())["arguments"]
        for name in (f"{preset}.csv", "preset.csv")
    )
    assert form.pop("preset") is None and by_name.pop("preset") == preset
    assert form == by_name
    assert form["sweep"] == option(argv, "--sweep")


def test_readme_config_example_loads():
    (block,) = readme_blocks("json")
    cfg = config_from_dict(json.loads(block))
    assert cfg.setup == "miscat" and cfg.particle.mass_kda == 66.0
