"""The line-reachability report of ``tools/reach.py``: its hook marks the
lines a call runs in ``src/dfalopt``, and no line of code the call skips."""

import importlib.util
from pathlib import Path

import pytest

from dfalopt import build_topology, dfal_solve, generate_instance
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


def test_a_file_that_fails_to_import_costs_only_its_own_tests(reach, tmp_path, capsys):
    # one such file once stopped the whole run, and the report then gave no
    # line to the tests alone
    (tmp_path / "test_reach_probe_broken.py").write_text("import dfalopt_has_no_such_module\n")
    (tmp_path / "test_reach_probe_star.py").write_text(
        "from dfalopt import build_topology\n\n\n"
        "def test_star():\n    assert build_topology('star', 3).num_nodes == 3\n")
    with reach.tracing() as seen:
        status, errors = reach.tests((str(tmp_path),))
    out = capsys.readouterr().out
    assert errors == 1 and status != 0
    assert "1 passed" in out and "1 error" in out
    path, lines = body(reach, build_topology)
    assert {line for p, line in seen if p == path} & lines
