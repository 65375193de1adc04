"""Shared test helpers: random connected graphs, small problem factories,
and dense oracles."""

from __future__ import annotations

import numpy as np
import pytest

from dfalopt import (
    Graph,
    GroupPartition,
    HuberLoss,
    NodeProblem,
    SparseGroupReg,
    activation_stream,
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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
