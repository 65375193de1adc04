"""The kernel table of ``tools/kernels.py`` on its smallest shape: one JSON
object whose rows carry finite times next to the work each call does."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "kernels.py"
ROWS = (
    "sparse_group_prox", "sparse_group_min_norm", "block_gradient", "stacked_prox",
    "stacked_loss_gradient", "laplacian_apply", "stack_objective", "consensus_violation",
    "sadmm_cv", "charge_activations", "sync_iteration",
    "rbcd_event", "arbcd_event", "rbcd_tested_event", "residual_reached_gate",
    "residual_reached_exact", "huber_prox", "sadmm_iteration",
)


@pytest.fixture(scope="module")
def table():
    out = subprocess.run([sys.executable, str(PATH), "--shapes", "star-5", "--repeats", "2"],
                         capture_output=True, text=True, timeout=60, check=True)
    return json.loads(out.stdout)


def test_one_shape_with_every_row(table):
    assert table["blas_threads"] == 1 and table["repeats"] == 2
    assert list(table["shapes"]) == ["star-5"]
    shape = table["shapes"]["star-5"]
    assert shape["instance"] == {"case": 1, "topology": "star", "N": 5, "n_g": 10,
                                 "K": 10, "seed": 1, "n": 100, "m": 10}
    assert tuple(shape["rows"]) == ROWS
    for row in shape["rows"].values():
        assert 0 < row["min_us"] <= row["median_us"] and math.isfinite(row["median_us"])
        assert row["calls"] >= 1
    assert table["seconds"] < 5


def test_counts_next_to_the_times(table):
    rows = table["shapes"]["star-5"]["rows"]
    one_event = {"block_gradients": 1.0, "proxes": 1.0, "exact_residuals": 0.0}
    assert rows["rbcd_event"]["work_per_call"] == one_event
    assert rows["arbcd_event"]["work_per_call"] == one_event
    assert rows["rbcd_event"]["calls"] == rows["arbcd_event"]["calls"] == 100
    # each of the 100 tests fails at the gate of the block it is handed, the
    # next event's, so the run takes one gradient more than its events: the
    # last test's
    tested = rows["rbcd_tested_event"]
    assert tested["calls"] == 500
    assert tested["work_per_call"] == {"block_gradients": 501 / 500, "proxes": 501 / 500,
                                       "exact_residuals": 0.0}
    gate, exact = rows["residual_reached_gate"], rows["residual_reached_exact"]
    assert gate["passed"] is False
    assert gate["work_per_call"] == one_event
    assert exact["passed"] is True and exact["target"] > 0
    assert exact["work_per_call"] == {"block_gradients": 5.0, "proxes": 5.0,
                                      "exact_residuals": 5.0}


def test_newton_work_of_the_split_admm(table):
    rows = table["shapes"]["star-5"]["rows"]
    warm, iteration = rows["huber_prox"], rows["sadmm_iteration"]
    # 20 iterations make 20 calls, the first of which primes the warm ones
    assert (warm["calls"], iteration["calls"]) == (19, 20)
    passes, builds = {}, {}
    for name, row in (("warm", warm), ("all", iteration)):
        assert set(row["work_per_call"]) == {"newton_passes", "newton_builds"}
        passes[name] = row["work_per_call"]["newton_passes"] * row["calls"]
        builds[name] = row["work_per_call"]["newton_builds"] * row["calls"]
    # each of the 5 nodes makes a pass or more per call, and the cold first
    # call's passes and builds come on top of the warm calls'
    assert 5 * 19 <= round(passes["warm"]) < round(passes["all"])
    assert round(builds["warm"]) < round(builds["all"])
    # a warm call mostly solves with the Newton matrices of the call before
    assert warm["work_per_call"]["newton_builds"] < 1


def test_rejects_a_repeat_count_below_one():
    out = subprocess.run([sys.executable, str(PATH), "--repeats", "0"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and "--repeats must be at least 1" in out.stderr
