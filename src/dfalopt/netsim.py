"""Deterministic message-passing simulator.

Synchronous rounds deliver every node's freshly computed block to all of its
neighbors: delivery copies the blocks into one ``(N, n)`` snapshot,
:attr:`SyncNetwork.delivered`, and a node may read only its own block and its
neighbours' rows of that snapshot.  Asynchronous execution draws node
activations from one seeded uniform stream (:class:`ActivationSchedule`); the
randomized solvers consume it directly and report how often each node fired,
which :meth:`AsyncNetwork.activate` charges for a whole subproblem at once.  A
ledger counts vector transmissions and per-node proximal and gradient
evaluations, since communication totals are the quantity the solver
comparisons are about.  One unit of communication is one block-length vector
over one directed edge; :func:`charge_exchange` charges it from the degree
vector for both kinds of network.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .graph import Graph


@dataclass
class CommLedger:
    """Per-node counters for vector traffic and oracle calls."""

    num_nodes: int
    vectors_sent: np.ndarray = field(default=None)
    vectors_received: np.ndarray = field(default=None)
    prox_evals: np.ndarray = field(default=None)
    grad_evals: np.ndarray = field(default=None)
    control_msgs: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        for name in ("vectors_sent", "vectors_received", "prox_evals",
                     "grad_evals", "control_msgs"):
            if getattr(self, name) is None:
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


def charge_exchange(ledger: CommLedger, graph: Graph, counts: np.ndarray | int) -> None:
    """Charge ``counts[i - 1]`` pushes of node ``i``'s block to its neighbours:
    node ``i`` sends ``d_i * c_i`` vectors and each neighbour receives ``c_i``."""
    counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), graph.degrees.shape)
    ledger.vectors_sent += graph.degrees * counts
    ledger.vectors_received += graph.neighbor_sum(counts)


# Per-node update rule: (node_id, own_block, {neighbor_id: block}) -> new block.
Producer = Callable[[int, np.ndarray, Mapping[int, np.ndarray]], np.ndarray]


class SyncNetwork:
    """Synchronous neighbor-exchange rounds over a fixed graph.

    Every node computes its next block from its own block and the round-start
    snapshot ``delivered``; afterwards the new blocks are delivered, which
    replaces the snapshot with a copy of them.  The round result is
    independent of the evaluation order because all reads see the pre-round
    snapshot.
    """

    def __init__(self, graph: Graph, init_blocks: np.ndarray):
        init_blocks = np.asarray(init_blocks, dtype=float)
        if init_blocks.shape[0] != graph.num_nodes:
            raise ValueError("need one initial block per node")
        self.graph = graph
        self.block_len = init_blocks.shape[1]
        self.blocks = init_blocks.copy()
        self.ledger = CommLedger(graph.num_nodes)
        # Initial blocks count as local state, not traffic.
        self.delivered = init_blocks.copy()

    def node_inputs(self, i: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Everything node ``i`` is allowed to read: its block and its
        neighbours' delivered blocks."""
        nbrs = self.graph.neighbors(i)
        return self.blocks[i - 1], {j: self.delivered[j - 1] for j in nbrs}

    def sync_round(self, producer: Producer, order: list[int] | None = None) -> None:
        g = self.graph
        nodes = order if order is not None else list(range(1, g.num_nodes + 1))
        if sorted(nodes) != list(range(1, g.num_nodes + 1)):
            raise ValueError("order must be a permutation of all node ids")
        new_blocks = np.empty_like(self.blocks)
        for i in nodes:
            own, mailbox = self.node_inputs(i)
            out = np.asarray(producer(i, own, mailbox), dtype=float)
            if out.shape != (self.block_len,):
                raise ValueError(
                    f"node {i} produced a block of shape {out.shape}, "
                    f"expected ({self.block_len},)"
                )
            new_blocks[i - 1] = out
        self.broadcast_state(new_blocks)

    def broadcast_state(self, blocks: np.ndarray, charge: bool = True) -> None:
        """Overwrite all blocks and deliver them to neighbors.

        Used at synchronization points where every node shares a fresh block
        (for example, the iterate adopted at the end of an outer iteration).
        """
        blocks = np.asarray(blocks, dtype=float)
        if blocks.shape != self.blocks.shape:
            raise ValueError("block shape mismatch")
        self.blocks = blocks.copy()
        self.delivered = blocks.copy()
        if charge:
            charge_exchange(self.ledger, self.graph, 1)

    def ledger_snapshot(self) -> CommLedger:
        return self.ledger.snapshot()


class ActivationSchedule:
    """Seeded i.i.d. uniform node activations, drawn lazily in chunks.

    ``integers()`` returns the next 0-based node index, the one method of a
    numpy generator the randomized solvers call; chunking keeps memory flat
    even when the nominal event budget is astronomically large.
    """

    CHUNK = 1 << 16

    def __init__(self, seed: int, num_nodes: int):
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self._rng = np.random.default_rng(seed)
        self._num_nodes = num_nodes
        self._buf = iter(())

    def integers(self, *args, **kwargs) -> int:
        i = next(self._buf, None)
        if i is None:
            draws = self._rng.integers(0, self._num_nodes, size=self.CHUNK)
            # a memoryview iterates as Python ints, with no per-chunk copy
            self._buf = iter(memoryview(draws))
            i = next(self._buf)
        return i


def async_schedule(seed: int, num_events: int, num_nodes: int) -> np.ndarray:
    """The first ``num_events`` activations of ``ActivationSchedule(seed,
    num_nodes)`` as 1-based node ids."""
    sched = ActivationSchedule(seed, num_nodes)
    ids = (sched.integers() for _ in range(num_events))
    return np.fromiter(ids, dtype=np.int64, count=num_events) + 1


class AsyncNetwork:
    """Asynchronous activation bookkeeping over a fixed graph.

    Event order is virtual time from a seeded schedule, not wall time.  On
    activation a node updates its own block with one gradient and one prox
    and pushes it to its neighbors (``d_i`` vector units); termination
    notices are zero-length control messages counted separately.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.ledger = CommLedger(graph.num_nodes)

    def activate(self, counts: np.ndarray) -> None:
        """Charge node ``i`` for ``counts[i - 1]`` activations: it sends
        ``d_i`` vectors and each neighbor receives one per activation."""
        counts = np.asarray(counts, dtype=np.int64)
        charge_exchange(self.ledger, self.graph, counts)
        self.ledger.grad_evals += counts
        self.ledger.prox_evals += counts

    def terminate_notice(self, i: int) -> None:
        self.ledger.charge_control(i, self.graph.degree(i))

    def ledger_snapshot(self) -> CommLedger:
        return self.ledger.snapshot()
