"""Run traces: `RunTrace.record`, the relative gap, wall time, why a run
stopped, and the JSON summary."""

import json
import math

import numpy as np
import pytest

from dfalopt import (
    CommLedger,
    RunTrace,
    admm_solve,
    default_params,
    dfal_solve,
    generate_instance,
    rel_subopt,
    sadmm_solve,
)


class TestRelSubopt:
    def test_relative_gap(self):
        assert rel_subopt(3.0, 2.0) == 0.5
        assert rel_subopt(1.0, -2.0) == 1.5

    def test_absolute_gap_at_zero_reference(self):
        assert rel_subopt(-0.25, 0.0) == 0.25

    def test_nan_without_reference(self):
        assert math.isnan(rel_subopt(1.0, None))


class TestRecord:
    def test_row_reads_the_ledger(self):
        ledger = CommLedger(3)
        ledger.vectors_sent[:] = [4, 9, 1]
        ledger.prox_evals[:] = [1, 2, 3]
        ledger.grad_evals[:] = [5, 5, 5]
        trace = RunTrace("x", ledger, reference=1.0)
        row = trace.record(
            k=1, lam=0.5, F_sum=2.0, CV=0.1, dual_norm=0.3, inner_iters=7,
            stop_reason="cap",
        )
        assert trace.rows == [row]
        assert (row.comm_per_node_max, row.prox_count, row.grad_count) == (9, 6, 15)
        assert row.rel_subopt == 1.0
        assert trace.wall_time > 0.0


def _not_json(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.fixture(scope="module")
def case2():
    return generate_instance(2, "star", 3, 4, 3, seed=5)


def test_library_solves_report_wall_time(case2):
    params = default_params(case2.nodes, case2.graph, outer_cap=3)
    dfal = dfal_solve(case2.nodes, case2.graph, params)
    sadmm = sadmm_solve(case2.nodes, case2.graph, iters=3)
    assert dfal.wall_time > 0.0
    assert sadmm.wall_time > 0.0


@pytest.mark.parametrize("alg", ["dfal", "sadmm"])
def test_summary_is_lossless_json(case2, alg, tmp_path):
    if alg == "dfal":
        params = default_params(case2.nodes, case2.graph, outer_cap=3)
        trace = dfal_solve(case2.nodes, case2.graph, params)
    else:
        trace = sadmm_solve(case2.nodes, case2.graph, iters=3)
    path = tmp_path / "run.summary.json"
    trace.write_summary(str(path))
    summary = json.loads(path.read_text(), parse_constant=_not_json)
    ledger = trace.config["ledger"]
    assert ledger is trace.ledger  # the run's own, not a copy
    state = trace.config["final_state"]
    assert summary["config"]["ledger"]["vectors_sent"] == ledger.vectors_sent.tolist()
    x = np.array(summary["config"]["final_state"]["x"])
    assert x.dtype == np.float64 and np.array_equal(x, state.x)
    assert summary["F_sum"] == trace.final.F_sum
    assert summary["rel_subopt"] is None  # no reference
    # why the run stopped: at its cap, without a reference to converge to
    assert summary["stop_reason"] == trace.stop_reason == "cap"


def test_summary_says_why_the_run_stopped(case2):
    # sadmm's and admm's rows all say "residual", which their summaries once
    # repeated for runs that stopped at the iteration cap
    sadmm = sadmm_solve(case2.nodes, case2.graph, iters=20)
    admm = admm_solve(case2.nodes, case2.graph, iters=2)
    params = default_params(case2.nodes, case2.graph)
    ref = dfal_solve(case2.nodes, case2.graph, params, lam_min=params.lam1 * 0.7**6)
    dfal = dfal_solve(case2.nodes, case2.graph, params, reference=ref.final.F_sum)
    for trace, reason in ((sadmm, "cap"), (admm, "cap"), (dfal, "converged")):
        assert trace.converged == (reason == "converged")
        assert trace.summary()["stop_reason"] == trace.stop_reason == reason
    # the rows keep the inner oracles' reasons
    assert sadmm.final.stop_reason == admm.final.stop_reason == "residual"


def test_summary_is_strict_json_with_every_finite_float_kept(tmp_path):
    # F_sum = inf and CV = NaN were once written as Infinity and NaN, which
    # strict JSON parsers reject
    trace = RunTrace("x", CommLedger(2), reference=2.0, config={
        "scalars": [0.1, math.inf, -math.inf, math.nan, 1e-310, -0.0],
        "nested": {"arr": np.array([[1 / 3, np.nan], [np.inf, -2.5e300]])},
    })
    trace.record(
        k=1, lam=0.7, F_sum=math.inf, CV=math.nan, dual_norm=np.float64(2 / 7),
        inner_iters=3, stop_reason="cap",
    )
    path = tmp_path / "run.summary.json"
    trace.write_summary(str(path))
    summary = json.loads(path.read_text(), parse_constant=_not_json)
    assert summary["F_sum"] is None and summary["CV"] is None
    assert summary["rel_subopt"] is None  # |inf - 2| / 2
    assert summary["dual_norm"] == 2 / 7
    scalars = summary["config"]["scalars"]
    assert scalars == [0.1, None, None, None, 1e-310, 0.0]
    assert math.copysign(1.0, scalars[-1]) == -1.0
    arr = summary["config"]["nested"]["arr"]
    assert arr == [[1 / 3, None], [None, -2.5e300]]
