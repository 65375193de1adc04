"""Shared test helpers: random connected graphs, small problem factories,
and dense oracles; and the record of the acceptance readings."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from dfalopt import (
    Graph,
    GroupPartition,
    HuberLoss,
    NodeProblem,
    SparseGroupReg,
    activation_stream,
    build_topology,
)


def random_connected_graph(rng: np.random.Generator, num_nodes: int) -> Graph:
    """Random spanning tree plus a few extra edges."""
    edges = set()
    order = rng.permutation(num_nodes) + 1
    for idx in range(1, num_nodes):
        a = int(order[idx])
        b = int(order[rng.integers(idx)])
        edges.add((min(a, b), max(a, b)))
    extra = rng.integers(0, num_nodes)
    for _ in range(extra):
        a, b = rng.choice(num_nodes, size=2, replace=False) + 1
        edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return Graph(num_nodes, tuple(sorted(edges)))


def random_partition(rng: np.random.Generator, n: int, num_groups: int) -> GroupPartition:
    perm = rng.permutation(n)
    cuts = sorted(rng.choice(np.arange(1, n), size=num_groups - 1, replace=False)) if num_groups > 1 else []
    pieces = np.split(perm, cuts)
    return GroupPartition(n, tuple(np.sort(p) for p in pieces))


def random_reg(rng: np.random.Generator, n: int, num_groups: int | None = None) -> SparseGroupReg:
    if num_groups is None:
        num_groups = int(rng.integers(1, min(n, 3) + 1))
    return SparseGroupReg(
        beta1=float(rng.uniform(0.05, 2.0)),
        beta2=float(rng.uniform(0.05, 2.0)),
        partition=random_partition(rng, n, num_groups),
    )


def schedule_ids(seed: int, num_events: int, num_nodes: int) -> np.ndarray:
    """The first ``num_events`` draws of ``activation_stream(seed, num_nodes)``
    as 1-based node ids."""
    stream = activation_stream(seed, num_nodes)
    return np.fromiter(stream, dtype=np.int64, count=num_events) + 1


def small_node(rng: np.random.Generator, n: int = 6, m: int = 4) -> NodeProblem:
    A = rng.standard_normal((m, n))
    x_true = rng.standard_normal(n)
    return NodeProblem(
        reg=random_reg(rng, n),
        loss=HuberLoss(A=A, b=A @ x_true, delta=1.0),
    )


# the scales of the bit-for-bit pins' stacks, far into both ends of the
# exponent range but with squares and their sums still finite and nonzero
PIN_SCALES = (1e-150, 1e-75, 1e-5, 1.0, 1e5, 1e75, 1e150)


def pin_graphs() -> list[Graph]:
    """The pins' graphs: a star of 5, a clique of 12 and a ring of 8."""
    ring = tuple((i, i + 1) for i in range(1, 8)) + ((1, 8),)
    return [build_topology("star", 5), build_topology("clique", 12), Graph(8, ring)]


def pin_stacks(rng: np.random.Generator, N: int, n: int, per_scale: int = 3):
    """Random ``(N, n)`` stacks at each of ``PIN_SCALES``: normal entries of
    which about a quarter are exact +0 and a sixth exact -0, and one row
    (or, in the last stack of a scale, every row) of zeros of both signs."""
    for scale in PIN_SCALES:
        for k in range(per_scale):
            x = scale * rng.standard_normal((N, n))
            x[rng.random((N, n)) < 0.25] = 0.0
            x[rng.random((N, n)) < 0.17] = -0.0
            rows = slice(None) if k == per_scale - 1 else int(rng.integers(N))
            x[rows] = np.where(rng.random(n) < 0.5, 0.0, -0.0)
            yield x


def bits(a) -> tuple:
    """The shape and float64 bytes of ``a``, so ``==`` on two of them tells
    -0 from +0 and compares NaN by its bits."""
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


# the pass line each test of tests/test_acceptance.py prints, and the numbers
# in its detail (every match is a JSON number)
_CRITERION = re.compile(r"^criterion (\d+) \((.*)\): PASS - (.*)$", re.M)
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_acceptance: list[dict] = []


def acceptance_reading(report) -> dict | None:
    """The record of one acceptance test from its report: the outcome and,
    from the ``criterion N (name): PASS - detail`` line it printed, the name,
    the detail and the numbers in it.  ``None`` for other tests, and for any
    phase but the call unless the setup did not pass.  Under ``pytest -s``
    nothing is captured, so only the outcome is recorded."""
    if "test_acceptance.py::" not in report.nodeid:
        return None
    if report.when == "teardown" or (report.when == "setup" and report.passed):
        return None
    line = _CRITERION.search(report.capstdout)
    name = detail = None
    if line:
        num, name, detail = line.groups()
    else:  # a test that printed nothing is known by its class, TestCNN...
        num = re.search(r"::TestC(\d+)", report.nodeid).group(1)
    return {
        "test": report.nodeid,
        "criterion": int(num),
        "outcome": report.outcome,
        "name": name,
        "detail": detail,
        "numbers": [json.loads(t) for t in _NUMBER.findall(detail or "")],
    }


def pytest_runtest_logreport(report) -> None:
    reading = acceptance_reading(report)
    if reading is not None:
        _acceptance.append(reading)


def pytest_sessionfinish(session) -> None:
    """Write the acceptance readings of this session to
    ``.bench_out/acceptance.json`` when they are a whole record: every one of
    criteria 1-11 read, with output captured (not under ``pytest -s``).  Any
    other session leaves the file as it was."""
    read = {r["criterion"] for r in _acceptance}
    if read >= set(range(1, 12)) and session.config.getoption("capture") != "no":
        path = session.config.rootpath / ".bench_out" / "acceptance.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(_acceptance, indent=2) + "\n")
