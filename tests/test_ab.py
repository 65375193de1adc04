"""The in-process A/B of ``tools/ab.py`` against this tree's last commit: one
JSON line per operation with the ratio, the A/A band, a verdict and whether
the outputs hash alike; on the star-5 kernel rows, each call's work next to
its time."""

import json
import math
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


needs_git = pytest.mark.skipif(_head() is None,
                               reason="needs a git checkout to take the base from")
ROWS = tuple("""sparse_group_prox sparse_group_min_norm block_gradient stacked_prox
    stacked_loss_gradient laplacian_apply stack_objective consensus_violation sadmm_cv
    charge_activations sync_iteration reference_iteration rbcd_event arbcd_event
    rbcd_tested_event residual_reached_gate residual_reached_exact huber_prox
    sadmm_iteration""".split())


@needs_git
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


@pytest.fixture(scope="module")
def star5():
    """The star-5 kernel rows by row name, and the run's seconds."""
    start = time.perf_counter()
    out = run("HEAD", "--ops", "star-5", "--rounds", "2")
    assert out.returncode == 0, out.stderr
    rows = [json.loads(line) for line in out.stdout.splitlines()]
    seconds = time.perf_counter() - start
    return {row["op"].removeprefix("star-5:"): row for row in rows}, seconds


@needs_git
def test_one_shape_with_every_row(star5):
    rows, seconds = star5
    assert tuple(rows) == ROWS
    for row in rows.values():
        assert row["rounds"] == 2 and row["calls"] >= 1 and row["aa_outputs_equal"] is True
        assert 0 < row["base_us"] < math.inf and 0 < row["change_us"] < math.inf
    assert seconds < 10


@needs_git
def test_counts_next_to_the_times(star5):
    rows = star5[0]
    work = {name: row.get("work_per_call", {}).get("change") for name, row in rows.items()}
    one_event = {"block_gradients": 1.0, "proxes": 1.0, "exact_residuals": 0.0}
    assert work["rbcd_event"] == work["arbcd_event"] == one_event
    assert rows["rbcd_event"]["calls"] == rows["arbcd_event"]["calls"] == 100
    # each of the 100 tests fails at the gate of the block it is handed, the
    # next event's, so the run takes one gradient more than its events: the
    # last test's
    assert rows["rbcd_tested_event"]["calls"] == 500
    assert work["rbcd_tested_event"] == {"block_gradients": 501 / 500, "proxes": 501 / 500,
                                         "exact_residuals": 0.0}
    # the row's calls are the case-1 reference's APG iterations
    reference = rows["reference_iteration"]
    assert reference["calls"] == reference["iterations"] == 454
    assert reference["tolerance"] == 1e-6
    gate, exact = rows["residual_reached_gate"], rows["residual_reached_exact"]
    assert gate["passed"] is False and work["residual_reached_gate"] == one_event
    assert exact["passed"] is True and exact["target"] > 0
    assert work["residual_reached_exact"] == {"block_gradients": 5.0, "proxes": 5.0,
                                              "exact_residuals": 5.0}


@needs_git
def test_newton_work_of_the_split_admm(star5):
    warm, iteration = star5[0]["huber_prox"], star5[0]["sadmm_iteration"]
    # 20 iterations make 20 calls, the first of which primes the warm ones
    assert (warm["calls"], iteration["calls"]) == (19, 20)
    passes, builds = {}, {}
    for name, row in (("warm", warm), ("all", iteration)):
        work = row["work_per_call"]["change"]
        assert set(work) == {"newton_passes", "newton_builds"}
        passes[name] = work["newton_passes"] * row["calls"]
        builds[name] = work["newton_builds"] * row["calls"]
    # each of the 5 nodes makes a pass or more per call, and the cold first
    # call's passes and builds come on top of the warm calls'
    assert 5 * 19 <= round(passes["warm"]) < round(passes["all"])
    assert round(builds["warm"]) < round(builds["all"])
    # a warm call mostly solves with the Newton matrices of the call before
    assert warm["work_per_call"]["change"]["newton_builds"] < 1
