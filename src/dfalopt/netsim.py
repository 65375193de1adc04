"""Deterministic message-passing simulator.

A synchronous exchange (:meth:`SyncNetwork.broadcast_state`) delivers every
node's freshly computed block to all of its neighbors: delivery copies the
blocks into one ``(N, n)`` snapshot, :attr:`SyncNetwork.delivered`, and a node
may read only its own row and its neighbours' rows of that snapshot.  Asynchronous execution draws node
activations from one seeded uniform stream (:func:`activation_stream`); the
randomized solvers consume it directly and report how often each node fired,
which :func:`charge_activations` charges for a whole subproblem at once.  A
ledger counts vector transmissions and per-node proximal and gradient
evaluations, since communication totals are the quantity the solver
comparisons are about.  One unit of communication is one block-length vector
over one directed edge, charged from the degree vector: by
:meth:`SyncNetwork.broadcast_state` for an exchange, by
:func:`charge_activations` for a subproblem's activations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .graph import Graph


@dataclass
class CommLedger:
    """Per-node counters for vector traffic and oracle calls."""

    num_nodes: int
    vectors_sent: np.ndarray = field(init=False)
    vectors_received: np.ndarray = field(init=False)
    prox_evals: np.ndarray = field(init=False)
    grad_evals: np.ndarray = field(init=False)
    control_msgs: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name in ("vectors_sent", "vectors_received", "prox_evals",
                     "grad_evals", "control_msgs"):
            setattr(self, name, np.zeros(self.num_nodes, dtype=np.int64))

    def charge_send(self, node: int, count: int = 1) -> None:
        self.vectors_sent[node - 1] += count

    def charge_receive(self, node: int, count: int = 1) -> None:
        self.vectors_received[node - 1] += count

    def charge_prox(self, node: int, count: int = 1) -> None:
        self.prox_evals[node - 1] += count

    def charge_grad(self, node: int, count: int = 1) -> None:
        self.grad_evals[node - 1] += count

    def charge_control(self, node: int, count: int = 1) -> None:
        self.control_msgs[node - 1] += count

    def snapshot(self) -> "CommLedger":
        """Consistent point-in-time copy."""
        return copy.deepcopy(self)


def charge_activations(ledger: CommLedger, graph: Graph, counts: np.ndarray) -> None:
    """Charge node ``i`` for ``counts[i - 1]`` asynchronous activations: each
    is one gradient, one prox and a push of its block to its ``d_i``
    neighbours, so node ``i`` sends ``d_i * c_i`` vectors and each neighbour
    receives ``c_i``.  Event order is virtual time from a seeded stream."""
    counts = np.asarray(counts, dtype=np.int64)
    ledger.vectors_sent += graph.degrees * counts
    ledger.vectors_received += graph.neighbor_sum(counts)
    ledger.grad_evals += counts
    ledger.prox_evals += counts


class SyncNetwork:
    """Synchronous neighbor exchange over a fixed graph.

    :meth:`broadcast_state` delivers every node's fresh block to its
    neighbours by replacing the ``(N, n)`` snapshot ``delivered`` with a copy
    of the blocks; node ``i`` may read only row ``i`` and its neighbours'
    rows of that snapshot (:meth:`node_inputs`).
    """

    def __init__(self, graph: Graph, init_blocks: np.ndarray):
        init_blocks = np.asarray(init_blocks, dtype=float)
        if init_blocks.shape[0] != graph.num_nodes:
            raise ValueError("need one initial block per node")
        self.graph = graph
        self.ledger = CommLedger(graph.num_nodes)
        # Initial blocks count as local state, not traffic.
        self.delivered = init_blocks.copy()

    def node_inputs(self, i: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Everything node ``i`` is allowed to read: its block and its
        neighbours' delivered blocks."""
        nbrs = self.graph.neighbors(i)
        return self.delivered[i - 1], {j: self.delivered[j - 1] for j in nbrs}

    def broadcast_state(self, blocks: np.ndarray) -> None:
        """Overwrite all blocks and deliver them to neighbors, charging one
        vector per directed edge."""
        blocks = np.asarray(blocks, dtype=float)
        if blocks.shape != self.delivered.shape:
            raise ValueError(
                f"block shape {blocks.shape} does not match {self.delivered.shape}"
            )
        self.delivered = blocks.copy()
        # node i sends d_i vectors and receives one from each neighbour
        self.ledger.vectors_sent += self.graph.degrees
        self.ledger.vectors_received += self.graph.degrees


def activation_stream(seed: int, num_nodes: int) -> Iterator[int]:
    """Seeded i.i.d. uniform node activations as 0-based indices: the ``k``-th
    is the ``k``-th ``integers(num_nodes)`` of ``np.random.default_rng(seed)``.
    Drawn lazily in chunks, so memory stays flat even when the nominal event
    budget is astronomically large."""
    if num_nodes < 1:
        raise ValueError("need at least one node")
    rng = np.random.default_rng(seed)
    while True:
        # a memoryview iterates as Python ints, with no per-chunk copy
        yield from memoryview(rng.integers(0, num_nodes, size=1 << 16))
