"""The in-process A/B of ``tools/ab.py`` on its cheapest operation: this tree
against its last commit, one JSON line per operation with the ratio, the A/A
band, a verdict and whether the outputs hash alike."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PATH = ROOT / "tools" / "ab.py"


def _head() -> str | None:
    """The short hash of HEAD, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(PATH), *args], capture_output=True, text=True,
                          timeout=60)


@pytest.mark.skipif(_head() is None, reason="needs a git checkout to take the base from")
def test_one_operation_against_head_in_under_5_s():
    start = time.perf_counter()
    out = run("HEAD", "--ops", "ref-case1", "--rounds", "3")
    elapsed = time.perf_counter() - start
    assert out.returncode == 0, out.stderr
    (line,) = out.stdout.splitlines()
    summary = json.loads(line)
    assert summary["base"] == _head()
    assert (summary["op"], summary["rounds"]) == ("ref-case1", 3)
    assert summary["base_ms"] > 0 and summary["change_ms"] > 0
    for ratio in (summary["ratio"], summary["aa"]):
        assert 0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
        assert 0 <= ratio["wins"] <= 3
    assert summary["verdict"] in ("faster", "slower", "within the A/A band")
    # the control is this tree a second time, so its outputs are the change's
    assert summary["aa_outputs_equal"] is True
    assert isinstance(summary["outputs_equal"], bool)
    assert elapsed < 5


def test_a_base_without_the_package_is_one_error_line():
    out = run("no-such-commit", "--ops", "ref-case1")
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("ab.py: error: no src/dfalopt at 'no-such-commit'")
    assert len(out.stderr.strip().splitlines()) == 1


def test_rejects_fewer_than_two_rounds():
    out = run("HEAD", "--rounds", "1")
    assert out.returncode == 2 and "--rounds must be at least 2" in out.stderr
