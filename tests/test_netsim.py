"""Synchronous delivery and the delivered snapshot, the activation stream,
the ledger and its activation charge, and the names they are exported as."""

import ast
from pathlib import Path

import numpy as np
import pytest

import dfalopt
from dfalopt import (
    CommLedger,
    Graph,
    SyncNetwork,
    activation_stream,
    build_topology,
    charge_activations,
)
from conftest import random_connected_graph, schedule_ids


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


class TestAsyncSchedule:
    def test_deterministic(self):
        a = schedule_ids(42, 1000, 5)
        b = schedule_ids(42, 1000, 5)
        assert np.array_equal(a, b)

    def test_ids_in_range_and_uniform(self):
        sched = schedule_ids(7, 50_000, 4)
        assert sched.min() >= 1 and sched.max() <= 4
        freqs = np.bincount(sched, minlength=5)[1:] / 50_000
        assert np.all(np.abs(freqs - 0.25) <= 0.02)

    def test_single_node(self):
        assert np.array_equal(schedule_ids(0, 10, 1), np.ones(10, dtype=int))

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            schedule_ids(0, 10, 0)

    def test_is_the_stream_the_solvers_draw(self):
        # one generator draw per event, past the first chunk of draws too
        rng = np.random.default_rng(42)
        drawn = [int(rng.integers(5)) for _ in range(70_000)]
        stream = activation_stream(42, 5)
        assert [next(stream) for _ in range(70_000)] == drawn


class TestLedger:
    def test_starts_at_zero(self):
        ledger = CommLedger(3)
        for arr in (ledger.vectors_sent, ledger.vectors_received,
                    ledger.prox_evals, ledger.grad_evals, ledger.control_msgs):
            assert np.array_equal(arr, np.zeros(3, dtype=np.int64))

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


class TestAsyncNetwork:
    """``charge_activations``: the ledger charge of asynchronous activations."""

    def test_activation_charges_degree(self):
        g = build_topology("star", 4)
        ledger = CommLedger(4)
        charge_activations(ledger, g, np.array([1, 0, 0, 0]))
        assert ledger.vectors_sent.tolist() == [3, 0, 0, 0]
        assert ledger.vectors_received.tolist() == [0, 1, 1, 1]

    def test_schedule_replay_conserves_traffic(self, rng):
        g = random_connected_graph(rng, 5)
        ledger = CommLedger(5)
        sched = schedule_ids(3, 200, 5)
        for i in sched:
            charge_activations(ledger, g, np.eye(5, dtype=np.int64)[int(i) - 1])
        counts = np.bincount(sched, minlength=6)[1:]
        assert np.array_equal(ledger.vectors_sent, counts * g.degrees)
        assert int(ledger.vectors_sent.sum()) == int(ledger.vectors_received.sum())

    def test_activation_counts_charge_one_gradient_and_one_prox_each(self):
        g = build_topology("star", 4)
        ledger = CommLedger(4)
        counts = np.array([2, 0, 1, 3])
        charge_activations(ledger, g, counts)
        charge_activations(ledger, g, counts)
        assert ledger.vectors_sent.tolist() == [12, 0, 2, 6]
        assert ledger.vectors_received.tolist() == [8, 4, 4, 4]
        assert ledger.grad_evals.tolist() == [4, 0, 2, 6]
        assert ledger.prox_evals.tolist() == [4, 0, 2, 6]
        assert int(ledger.control_msgs.sum()) == 0

    def test_one_call_equals_a_replay_of_single_activations(self, rng):
        g = random_connected_graph(rng, 6)
        sched = schedule_ids(11, 300, 6)
        replay, once = CommLedger(6), CommLedger(6)
        for i in sched:
            charge_activations(replay, g, np.eye(6, dtype=np.int64)[int(i) - 1])
        charge_activations(once, g, np.bincount(sched, minlength=7)[1:])
        for name in ("vectors_sent", "vectors_received", "grad_evals", "prox_evals"):
            assert np.array_equal(getattr(replay, name), getattr(once, name))


def test_each_export_is_the_one_the_solves_use():
    # the tracer patches dfalopt.netsim:CommLedger's charge methods, so a
    # stale copy there would patch a class no solve builds and read 0
    assert dfalopt.netsim.CommLedger is dfalopt.trace.CommLedger
    assert dfalopt.CommLedger is dfalopt.trace.CommLedger
    assert dfalopt.activation_stream is dfalopt.solvers.activation_stream
    assert dfalopt.charge_activations is dfalopt.dfal.charge_activations


def test_no_library_module_but_the_package_imports_netsim():
    # so that deleting netsim.py deletes nothing any solve reads
    importers = []
    for path in sorted(Path(dfalopt.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
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
