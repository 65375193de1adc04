"""Message-passing simulator: rounds, mailboxes, schedules, and ledgers."""

import numpy as np
import pytest

from dfalopt import (
    ActivationSchedule,
    AsyncNetwork,
    CommLedger,
    Graph,
    SyncNetwork,
    async_schedule,
    build_topology,
)
from conftest import random_connected_graph


def averaging_producer(i, own, mailbox):
    """Replace the block with the mean over the closed neighborhood."""
    stack = [own] + [v for _, v in sorted(mailbox.items())]
    return np.mean(stack, axis=0)


class TestSyncRounds:
    def test_two_node_round_traffic(self):
        net = SyncNetwork(Graph(2, ((1, 2),)), np.zeros((2, 3)))
        net.sync_round(averaging_producer)
        ledger = net.ledger
        assert ledger.vectors_sent.tolist() == [1, 1]
        assert ledger.vectors_received.tolist() == [1, 1]

    def test_star_five_round_traffic(self):
        net = SyncNetwork(build_topology("star", 5), np.zeros((5, 2)))
        net.sync_round(averaging_producer)
        assert int(net.ledger.vectors_sent.sum()) == 8
        assert net.ledger.vectors_sent.tolist() == [4, 1, 1, 1, 1]

    def test_round_reads_pre_round_snapshot(self):
        # on a path of length 1 both nodes must average the same two blocks
        net = SyncNetwork(Graph(2, ((1, 2),)), np.array([[2.0], [0.0]]))
        net.sync_round(averaging_producer)
        assert np.allclose(net.blocks, [[1.0], [1.0]])

    def test_order_permutation_is_bitwise_invariant(self, rng):
        g = random_connected_graph(rng, 6)
        x0 = rng.standard_normal((6, 4))

        def noisy_producer(i, own, mailbox):
            total = own * (1.3 + i)
            for j, v in mailbox.items():
                total = total + np.sin(v) / j
            return total

        nets = []
        for order in (None, [6, 1, 4, 2, 5, 3], [3, 5, 2, 4, 1, 6]):
            net = SyncNetwork(g, x0)
            for _ in range(4):
                net.sync_round(noisy_producer, order=order)
            nets.append(net.blocks.copy())
        assert np.array_equal(nets[0], nets[1])
        assert np.array_equal(nets[0], nets[2])

    def test_bad_order_rejected(self):
        net = SyncNetwork(Graph(2, ((1, 2),)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="permutation"):
            net.sync_round(averaging_producer, order=[1, 1])

    def test_wrong_block_shape_rejected(self):
        net = SyncNetwork(Graph(2, ((1, 2),)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            net.sync_round(lambda i, own, mailbox: np.zeros(3))

    def test_mailboxes_expose_only_neighbors(self):
        # a non-neighbor's poisoned block must never reach node 2's inputs
        g = build_topology("star", 3)  # edges (1,2), (1,3); 2 and 3 not adjacent
        x0 = np.zeros((3, 1))
        x0[2] = 1e6  # poison node 3
        net = SyncNetwork(g, x0)
        seen = {}

        def spy(i, own, mailbox):
            seen[i] = set(mailbox)
            return own

        for _ in range(3):
            net.sync_round(spy)
        assert seen[2] == {1}
        assert seen[3] == {1}
        _, mailbox = net.node_inputs(2)
        assert 3 not in mailbox


class TestBroadcastState:
    def test_overwrites_and_delivers(self):
        net = SyncNetwork(Graph(2, ((1, 2),)), np.zeros((2, 1)))
        net.broadcast_state(np.array([[5.0], [7.0]]))
        _, mailbox = net.node_inputs(1)
        assert mailbox[2] == pytest.approx([7.0])
        assert net.ledger.vectors_sent.tolist() == [1, 1]

    def test_free_delivery_skips_ledger(self):
        net = SyncNetwork(Graph(2, ((1, 2),)), np.zeros((2, 1)))
        net.broadcast_state(np.ones((2, 1)), charge=False)
        assert int(net.ledger.vectors_sent.sum()) == 0
        _, mailbox = net.node_inputs(2)
        assert mailbox[1] == pytest.approx([1.0])


class TestAsyncSchedule:
    def test_deterministic(self):
        a = async_schedule(42, 1000, 5)
        b = async_schedule(42, 1000, 5)
        assert np.array_equal(a, b)

    def test_ids_in_range_and_uniform(self):
        sched = async_schedule(7, 50_000, 4)
        assert sched.min() >= 1 and sched.max() <= 4
        freqs = np.bincount(sched, minlength=5)[1:] / 50_000
        assert np.all(np.abs(freqs - 0.25) <= 0.02)

    def test_single_node(self):
        assert np.array_equal(async_schedule(0, 10, 1), np.ones(10, dtype=int))

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            async_schedule(0, 10, 0)

    def test_is_the_stream_the_solvers_draw(self):
        # past the first chunk of draws, too
        sched = ActivationSchedule(42, 5)
        drawn = [sched.integers(5) + 1 for _ in range(70_000)]
        assert async_schedule(42, 70_000, 5).tolist() == drawn


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
                net.sync_round(averaging_producer)
            assert np.array_equal(net.ledger.vectors_sent, g.degrees * R)
            assert np.array_equal(net.ledger.vectors_received, g.degrees * R)

    def test_total_sent_equals_total_received(self, rng):
        g = random_connected_graph(rng, 7)
        net = SyncNetwork(g, rng.standard_normal((7, 3)))
        for _ in range(5):
            net.sync_round(averaging_producer)
        assert int(net.ledger.vectors_sent.sum()) == int(
            net.ledger.vectors_received.sum()
        )

    def test_snapshot_is_decoupled(self):
        net = SyncNetwork(Graph(2, ((1, 2),)), np.zeros((2, 1)))
        net.sync_round(averaging_producer)
        snap = net.ledger_snapshot()
        net.sync_round(averaging_producer)
        assert snap.vectors_sent.tolist() == [1, 1]
        assert net.ledger.vectors_sent.tolist() == [2, 2]


class TestAsyncNetwork:
    def test_activation_charges_degree(self):
        g = build_topology("star", 4)
        net = AsyncNetwork(g)
        net.activate(np.array([1, 0, 0, 0]))
        assert net.ledger.vectors_sent.tolist() == [3, 0, 0, 0]
        assert net.ledger.vectors_received.tolist() == [0, 1, 1, 1]

    def test_schedule_replay_conserves_traffic(self, rng):
        g = random_connected_graph(rng, 5)
        net = AsyncNetwork(g)
        sched = async_schedule(3, 200, 5)
        for i in sched:
            net.activate(np.eye(5, dtype=np.int64)[int(i) - 1])
        counts = np.bincount(sched, minlength=6)[1:]
        assert np.array_equal(net.ledger.vectors_sent, counts * g.degrees)
        assert int(net.ledger.vectors_sent.sum()) == int(
            net.ledger.vectors_received.sum()
        )

    def test_activation_counts_charge_one_gradient_and_one_prox_each(self):
        g = build_topology("star", 4)
        net = AsyncNetwork(g)
        counts = np.array([2, 0, 1, 3])
        net.activate(counts)
        net.activate(counts)
        assert net.ledger.vectors_sent.tolist() == [12, 0, 2, 6]
        assert net.ledger.vectors_received.tolist() == [8, 4, 4, 4]
        assert net.ledger.grad_evals.tolist() == [4, 0, 2, 6]
        assert net.ledger.prox_evals.tolist() == [4, 0, 2, 6]
        assert int(net.ledger.control_msgs.sum()) == 0

    def test_one_call_equals_a_replay_of_single_activations(self, rng):
        g = random_connected_graph(rng, 6)
        sched = async_schedule(11, 300, 6)
        replay, once = AsyncNetwork(g), AsyncNetwork(g)
        for i in sched:
            replay.activate(np.eye(6, dtype=np.int64)[int(i) - 1])
        once.activate(np.bincount(sched, minlength=7)[1:])
        for name in ("vectors_sent", "vectors_received", "grad_evals", "prox_evals"):
            assert np.array_equal(
                getattr(replay.ledger, name), getattr(once.ledger, name)
            )

    def test_terminate_notice_counts_control_only(self):
        g = build_topology("star", 4)
        net = AsyncNetwork(g)
        net.terminate_notice(1)
        assert net.ledger.control_msgs.tolist() == [3, 0, 0, 0]
        assert int(net.ledger.vectors_sent.sum()) == 0
