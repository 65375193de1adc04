"""The record of the acceptance readings, read from fake test reports."""

import json
from types import SimpleNamespace

import pytest

import conftest
from conftest import acceptance_reading

C = "tests/test_acceptance.py::"


def _report(nodeid, when="call", outcome="passed", out=""):
    return SimpleNamespace(nodeid=nodeid, when=when, outcome=outcome,
                           passed=outcome == "passed", capstdout=out)


def test_reads_each_acceptance_outcome_line_and_numbers():
    report = _report(
        C + "TestC09AsyncGuarantee::test_monte_carlo_success_rate[rbcd]",
        out="warming up\ncriterion 9 (async guarantee (rbcd)): PASS - 20/20 "
            "runs converged, slope -0.987, gap 1.5e-08\n",
    )
    assert acceptance_reading(report) == {
        "test": report.nodeid,
        "criterion": 9,
        "outcome": "passed",
        "name": "async guarantee (rbcd)",
        "detail": "20/20 runs converged, slope -0.987, gap 1.5e-08",
        "numbers": [20, 20, -0.987, 1.5e-08],
    }
    # a test that printed no line is known by its class
    skipped = _report(C + "TestC01ProxOracle::test_prox_matches_numeric_minimization",
                      outcome="skipped")
    assert acceptance_reading(skipped) == {
        "test": skipped.nodeid, "criterion": 1, "outcome": "skipped",
        "name": None, "detail": None, "numbers": [],
    }
    failed = _report(C + "TestC11Determinism::test_trace_csvs_are_byte_identical",
                     when="setup", outcome="failed")
    assert acceptance_reading(failed)["criterion"] == 11
    assert acceptance_reading(failed)["outcome"] == "failed"
    # other tests, and the phases around a call, are not read
    assert acceptance_reading(_report("tests/test_dfal.py::test_x")) is None
    for when in ("setup", "teardown"):
        assert acceptance_reading(_report(C + "TestC02X::test_y", when=when)) is None


@pytest.mark.parametrize("criteria, capture, written", [
    (range(1, 12), "fd", True),
    (range(1, 12), "no", False),  # pytest -s: outcomes only
    ([5], "fd", False),  # pytest -k C05: one record
    (range(1, 11), "sys", False),
])
def test_only_a_whole_captured_record_is_written(
    tmp_path, monkeypatch, criteria, capture, written
):
    # a session that ran one acceptance test once overwrote the record
    readings = [acceptance_reading(_report(
        C + f"TestC{c:02d}X::test_y", out=f"criterion {c} (x): PASS - {c}e-3\n",
    )) for c in criteria]
    monkeypatch.setattr(conftest, "_acceptance", readings)
    path = tmp_path / ".bench_out" / "acceptance.json"
    path.parent.mkdir()
    path.write_text("earlier record\n")
    session = SimpleNamespace(config=SimpleNamespace(
        rootpath=tmp_path, getoption={"capture": capture}.__getitem__,
    ))
    conftest.pytest_sessionfinish(session)
    if written:
        assert json.loads(path.read_text()) == readings
    else:
        assert path.read_text() == "earlier record\n"
