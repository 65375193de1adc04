"""The line-reachability report of ``tools/reach.py``: its hook marks the
lines a call runs in ``src/dfalopt``, and no line of code the call skips."""

import importlib.util
from pathlib import Path

import pytest

from dfalopt import dfal_solve, generate_instance
from dfalopt.cli import main as cli_main

PATH = Path(__file__).resolve().parents[1] / "tools" / "reach.py"


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach_tool", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def body(reach, func):
    """The file and the executable lines of ``func`` past its ``def`` line."""
    code = func.__code__
    return code.co_filename, reach.code_lines(code) - {code.co_firstlineno}


def test_a_gen_call_marks_the_generator_and_not_the_solver(reach, tmp_path, capsys):
    with reach.tracing() as seen:
        assert cli_main(["gen", "--case", "1", "--seed", "1",
                         "--out", str(tmp_path / "inst.json")]) == 0
    assert "wrote instance" in capsys.readouterr().out
    assert all(path.startswith(str(reach.SRC)) for path, _ in seen)
    path, lines = body(reach, generate_instance)
    assert {line for p, line in seen if p == path} & lines
    path, lines = body(reach, dfal_solve)
    assert lines and not {line for p, line in seen if p == path} & lines


@pytest.mark.parametrize("argv, status", [(["--help"], 0), (["--all"], 2), (["x"], 2)])
def test_arguments_are_read_before_anything_runs(reach, monkeypatch, capsys, argv, status):
    # --help once ran the whole report
    def ran():
        raise AssertionError("the report ran")

    monkeypatch.setattr(reach, "traffic", ran)
    with pytest.raises(SystemExit) as stop:
        reach.main(argv)
    assert stop.value.code == status
    out, err = capsys.readouterr()
    assert (out if status == 0 else err).startswith("usage: ")
