"""The synchronous exchange reference of ``dfalopt.netsim``: delivery, the
delivered snapshot and its traffic.  No module of the package imports
``netsim``; ``benchmark/spans.py`` loads it when it traces."""

import ast
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dfalopt
import dfalopt.netsim
from dfalopt import Graph, build_topology
from dfalopt.netsim import SyncNetwork
from conftest import random_connected_graph


class TestSyncRounds:
    def test_two_node_round_traffic(self):
        net = SyncNetwork(Graph(2, ((1, 2),)), np.zeros((2, 3)))
        net.broadcast_state(np.ones((2, 3)))
        ledger = net.ledger
        assert ledger.vectors_sent.tolist() == [1, 1]
        assert ledger.vectors_received.tolist() == [1, 1]

    def test_star_five_round_traffic(self):
        net = SyncNetwork(build_topology("star", 5), np.zeros((5, 2)))
        net.broadcast_state(np.ones((5, 2)))
        assert int(net.ledger.vectors_sent.sum()) == 8
        assert net.ledger.vectors_sent.tolist() == [4, 1, 1, 1, 1]

    def test_one_initial_block_per_node(self):
        with pytest.raises(ValueError, match="one initial block per node"):
            SyncNetwork(Graph(2, ((1, 2),)), np.zeros((3, 2)))

    def test_wrong_block_shape_rejected(self):
        net = SyncNetwork(Graph(2, ((1, 2),)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            net.broadcast_state(np.zeros((2, 3)))

    def test_mailboxes_expose_only_neighbors(self):
        # a non-neighbor's poisoned block must never reach node 2's inputs
        g = build_topology("star", 3)  # edges (1,2), (1,3); 2 and 3 not adjacent
        x0 = np.zeros((3, 1))
        x0[2] = 1e6  # poison node 3
        net = SyncNetwork(g, x0)
        net.broadcast_state(x0)
        for i in (2, 3):
            own, mailbox = net.node_inputs(i)
            assert set(mailbox) == {1}
            assert own == pytest.approx(x0[i - 1])


class TestBroadcastState:
    def test_overwrites_and_delivers(self):
        net = SyncNetwork(Graph(2, ((1, 2),)), np.zeros((2, 1)))
        net.broadcast_state(np.array([[5.0], [7.0]]))
        _, mailbox = net.node_inputs(1)
        assert mailbox[2] == pytest.approx([7.0])
        assert net.ledger.vectors_sent.tolist() == [1, 1]

    def test_delivered_snapshot_and_degree_law(self, rng):
        g = random_connected_graph(rng, 7)
        net = SyncNetwork(g, np.zeros((7, 3)))
        blocks = rng.standard_normal((7, 3))
        net.broadcast_state(blocks)
        net.broadcast_state(blocks)
        np.testing.assert_array_equal(net.delivered, blocks)
        assert net.delivered is not blocks
        assert np.array_equal(net.ledger.vectors_sent, 2 * g.degrees)
        assert np.array_equal(net.ledger.vectors_received, 2 * g.degrees)
        _, mailbox = net.node_inputs(1)
        assert sorted(mailbox) == (g.nbr_idx[g.nbr_ptr[0]:g.nbr_ptr[1]] + 1).tolist()


class TestLedger:
    def test_sync_rounds_follow_degree_law(self, rng):
        # after R rounds node i has sent exactly d_i * R vectors
        for _ in range(10):
            N = int(rng.integers(2, 8))
            g = random_connected_graph(rng, N)
            net = SyncNetwork(g, rng.standard_normal((N, 2)))
            R = int(rng.integers(1, 6))
            for _ in range(R):
                net.broadcast_state(np.ones((N, 2)))
            assert np.array_equal(net.ledger.vectors_sent, g.degrees * R)
            assert np.array_equal(net.ledger.vectors_received, g.degrees * R)

    def test_total_sent_equals_total_received(self, rng):
        g = random_connected_graph(rng, 7)
        net = SyncNetwork(g, rng.standard_normal((7, 3)))
        for _ in range(5):
            net.broadcast_state(np.ones((7, 3)))
        assert int(net.ledger.vectors_sent.sum()) == int(
            net.ledger.vectors_received.sum()
        )


def test_each_export_is_the_one_the_solves_use():
    # the tracer patches dfalopt.netsim:CommLedger's charge methods, so a
    # stale copy there would patch a class no solve builds and read 0
    assert dfalopt.netsim.CommLedger is dfalopt.trace.CommLedger
    assert dfalopt.CommLedger is dfalopt.trace.CommLedger
    assert dfalopt.activation_stream is dfalopt.solvers.activation_stream
    assert dfalopt.charge_activations is dfalopt.dfal.charge_activations


def test_no_module_of_the_package_imports_netsim():
    # so that deleting netsim.py deletes nothing any solve reads
    importers = []
    for path in sorted(Path(dfalopt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "netsim" for name in names):
                importers.append(path.name)
    assert importers == []
    assert not hasattr(dfalopt, "SyncNetwork") and not hasattr(dfalopt, "local_gradient")
    probe = "import sys, dfalopt; print('dfalopt.netsim' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, cwd=Path(dfalopt.__file__).parents[1]).stdout
    assert out == "False\n"
