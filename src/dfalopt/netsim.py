"""Synchronous exchange reference.

A synchronous exchange (:meth:`SyncNetwork.broadcast_state`) delivers every
node's block to all of its neighbours as one ``(N, n)`` snapshot,
:attr:`SyncNetwork.delivered`, of which a node may read only its own row and
its neighbours' rows, and charges one vector per directed edge to its own
:class:`trace.CommLedger`.  No solve calls it: the DFAL solves charge their
ledgers through :func:`dfal.charge_activations`, and the tests check those
charges against the exchange law (sent = received = degrees per gradient).
No module of the package imports it; it stays only as a span target of
``benchmark/spans.py``, which imports it, until that tracer stops naming it.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
# benchmark/spans.py patches its charge_* methods as dfalopt.netsim:CommLedger
from .trace import CommLedger


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
        neighbours' delivered blocks, keyed by 1-based node id."""
        g = self.graph
        nbrs = g.nbr_idx[g.nbr_ptr[i - 1]:g.nbr_ptr[i]]
        return self.delivered[i - 1], {j + 1: self.delivered[j] for j in nbrs.tolist()}

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
