"""The activation stream, the ledger and its activation charge."""

import numpy as np
import pytest

from dfalopt import CommLedger, activation_stream, build_topology, charge_activations
from conftest import random_connected_graph, schedule_ids


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
