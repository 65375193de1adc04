"""Tests of the benchmark harness itself: span arithmetic, wrapper
lifetime, run accounting, and a smoke run of every workload on a tiny
instance."""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(REPO_ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from workloads import END_TO_END, PER_LAYER, PROBE_REF_S, WORKLOADS  # noqa: E402


def test_self_times_subtract_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    own = spans.self_times(start, end, parent)
    np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 4.0])
    assert own.sum() == pytest.approx(10.0)


def test_layer_table_adds_up_to_the_root_span():
    tracer = spans.Tracer()

    def leaf(x):
        return x + 1

    leaf_w = tracer.wrap("leaf", leaf)

    def mid(x):
        return leaf_w(leaf_w(x))

    mid_w = tracer.wrap("mid", mid)
    root_w = tracer.wrap("root", lambda: [mid_w(i) for i in range(3)])
    tracer.run_id = 1
    root_w()
    table = spans.layer_table(tracer)
    assert table["leaf.calls"] == 6 and table["mid.calls"] == 3
    root_s = table["root.s"]
    self_sum = table["root.self_s"] + table["mid.self_s"] + table["leaf.self_s"]
    assert self_sum == pytest.approx(root_s, rel=1e-9)
    assert table["trace.self_sum_s"] == pytest.approx(root_s, rel=1e-9)


def _targets():
    return [(spans._resolve(owner), attr) for owner, attr, _, _ in spans.TARGETS]


def test_wrappers_exist_only_inside_the_traced_block():
    before = [obj.__dict__[attr] for obj, attr in _targets()]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.installed(tracer):
            during = [obj.__dict__[attr] for obj, attr in _targets()]
            assert all(a is not b for a, b in zip(before, during))
            raise RuntimeError("restores on error too")
    after = [obj.__dict__[attr] for obj, attr in _targets()]
    assert all(a is b for a, b in zip(before, after))


def test_untraced_worker_never_loads_the_tracer(monkeypatch, capsys):
    monkeypatch.delitem(sys.modules, "spans")
    w = dataclasses.replace(WORKLOADS["async-star5"], N=2, K=2, n_g=2)
    monkeypatch.setitem(worker.WORKLOADS, "async-star5", w)
    assert worker.main(["--workload", "async-star5", "--seed", "1",
                        "--t0", "0", "--mode", "run"]) == 0
    assert "spans" not in sys.modules
    ops = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [op.get("op") for op in ops if "op" in op] == ["ref", *w.solves]


def test_setup_child_reports_its_setup_and_a_probe_window_only(monkeypatch, capsys):
    w = dataclasses.replace(WORKLOADS["baselines-case2"], N=2, K=2, n_g=2)
    monkeypatch.setitem(worker.WORKLOADS, "baselines-case2", w)
    assert worker.main(["--workload", "baselines-case2", "--seed", "1",
                        "--t0", repr(time.monotonic()), "--mode", "setup"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 1 and set(lines[0]) == {"setup_s", "probe_s"}
    assert lines[0]["setup_s"] > 0 and lines[0]["probe_s"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_on_a_tiny_instance(name):
    w = dataclasses.replace(WORKLOADS[name], N=2, K=2, n_g=2)
    inst, params = worker.setup(w)
    records = []
    tracer = spans.Tracer()
    with spans.installed(tracer):
        worker.run_rep(w, inst, params, 3, records.append, tracer)
    assert [r["op"] for r in records] == ["ref", *w.solves]
    assert all(r["ok"] for r in records), records
    table = spans.layer_table(tracer)
    timed = sum(r["s"] for r in records)
    assert table["trace.self_sum_s"] == pytest.approx(timed, rel=0.05)
    # the case-2 reference runs the synchronous DFAL, whose inner iterations
    # the tracer times through gradient_check
    assert (tracer.clock._last is not None) == (w.case == 2)


def test_ops_never_reported_by_a_killed_child_count_as_failed(tmp_path):
    runner = run.Runner(tmp_path, WORKLOADS["async-star5"], seed=1, deadline=0.0)
    runner.children = [
        {"rep": 0, "mode": "setup", "setup_s": 0.3, "setup_probe_s": None, "error": None,
         "done": None, "ops": []},
        {"rep": 0, "mode": "run", "setup_s": 0.2, "setup_probe_s": None,
         "error": "killed after the 38 s limit",
         "done": None, "ops": [{"op": "ref", "ok": True, "reason": None, "s": 2.0}]},
        {"rep": 1, "mode": "run", "setup_s": 0.1, "setup_probe_s": 2 * PROBE_REF_S,
         "error": None, "done": {"peak_rss_mb": 40.0},
         "ops": [{"op": "ref", "ok": True, "reason": None, "s": 1.0}]
         + [{"op": k, "ok": True, "reason": None, "s": 1.0,
             "counters": {"comm_per_node_max": 5, "oracle_evals": 7}}
            for k in ("afal-rbcd", "afal-arbcd")]},
    ]
    attempted, failed, problems = run.tally(runner)
    assert (attempted, failed) == (6, 2)
    assert any("killed" in p for p in problems)
    metrics = run.end_to_end(runner, attempted, failed)
    assert metrics["ok_frac"] == pytest.approx(4 / 6)
    assert metrics["solve_s"] == 2.0 and metrics["comm_per_node_max"] == 10
    assert metrics["ref_s"] == 1.5
    assert metrics["setup_s"] == pytest.approx(0.2)


def test_probe_samples_during_an_operation_and_its_time_is_taken_out():
    handler = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    with probe:
        mark = probe.mark()
        started = time.perf_counter()
        while time.perf_counter() - started < 0.3:
            pass
        spent, probe_s = probe.since(mark)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(probe.samples) >= 3
    assert spent == pytest.approx(sum(probe.samples))
    assert probe_s == pytest.approx(spent / len(probe.samples))
    assert run.at_probe_speed(3.0, 2 * PROBE_REF_S) == pytest.approx(1.5)
    assert run.at_probe_speed(3.0, None) == 3.0


HUNG_WORKER = """\
import json, sys, time
print(json.dumps({"setup_s": 0.1}))
print(json.dumps({"op": "ref", "ok": True, "reason": None, "s": 0.1}))
sys.stdout.write('{"op": "afal-rb')
sys.stdout.flush()
time.sleep(60)
"""

QUICK_WORKER = """\
import json
print(json.dumps({"setup_s": 0.1}))
for op in ("ref", "afal-rbcd", "afal-arbcd"):
    print(json.dumps({"op": op, "ok": True, "reason": None, "s": 0.1}))
print(json.dumps({"done": True, "peak_rss_mb": 10.0}))
"""


def test_a_child_killed_at_its_limit_fails_its_missing_ops_and_the_run_goes_on(tmp_path):
    hung, quick = tmp_path / "hung.py", tmp_path / "quick.py"
    hung.write_text(HUNG_WORKER)
    quick.write_text(QUICK_WORKER)
    runner = run.Runner(tmp_path, WORKLOADS["async-star5"], seed=1,
                        deadline=time.monotonic() + 60.0)
    runner.worker = hung
    killed = runner.spawn(0, "run", 1.0)
    assert killed["error"].startswith("killed")
    assert [op["op"] for op in killed["ops"]] == ["ref"]
    runner.worker = quick
    assert runner.spawn(1, "run", 30.0)["error"] is None
    attempted, failed, problems = run.tally(runner)
    assert (attempted, failed) == (6, 2)
    assert any("killed" in p for p in problems)


def test_run_refuses_a_tree_without_the_library(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "async-star5", "--seed", "1", "--seconds", "1"]) == 2
    assert "correct" not in capsys.readouterr().out


def test_benchmark_json_matches_the_harness():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER]
