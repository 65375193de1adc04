"""The README's library example and command lines run as written, and it
documents every command-line flag."""

import math
import re
import shlex
from pathlib import Path

import pytest

from dfalopt.cli import main as cli_main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _library_example() -> str:
    blocks = re.findall(r"```python\n(.*?)```", _section("Library"), flags=re.DOTALL)
    assert len(blocks) == 1, "the Library section should hold one python block"
    return blocks[0]


def _command_lines() -> list[list[str]]:
    """Every ``dfalopt`` line of the Command line section's shell blocks, with
    continuation lines joined."""
    blocks = re.findall(r"```sh\n(.*?)```", _section("Command line"), flags=re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("dfalopt ")]


def test_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {})
    printed = [float(v) for v in capsys.readouterr().out.split()]
    assert printed and all(math.isfinite(v) for v in printed)


def test_command_lines_run(tmp_path, monkeypatch):
    # in order, so ``ref`` finds the instance ``gen`` wrote; the default
    # ``bench`` matrix is criterion 7 of the acceptance suite
    monkeypatch.chdir(tmp_path)
    commands = [argv for argv in _command_lines() if argv[1] != "bench"]
    assert [argv[1] for argv in commands][:3] == ["gen", "ref", "solve"]
    for argv in commands:
        assert cli_main(argv[1:]) == 0, argv


@pytest.mark.parametrize("command", ["gen", "ref", "solve", "bench"])
def test_every_cli_flag_is_documented(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert flags
    section = _section("Command line")
    # "--c" must not count as documented through "--case" or "--c-admm"
    missing = [f for f in sorted(flags) if not re.search(rf"{f}(?![\w-])", section)]
    assert not missing, f"{command}: {missing} not in the README's Command line section"
