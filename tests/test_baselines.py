"""Alternating-direction baselines: split-method updates, running sums, and
nested proximal subproblems."""

import numpy as np
import pytest

import dfalopt.baselines as baselines
from dfalopt import (
    Graph,
    GroupPartition,
    HuberLoss,
    NodeProblem,
    SparseGroupReg,
    admm_solve,
    apg,
    build_topology,
    sadmm_solve,
)
from dfalopt.baselines import (
    NestedSolveError,
    _composite_prox,
    _huber_prox,
    neighborhood_average,
    sadmm_cv,
    sadmm_midpoint_objective,
)
from conftest import small_node


def make_pair(rng, n=4, m=3):
    return [small_node(rng, n=n, m=m) for _ in range(2)]


def run_with_history(solver, nodes, graph, monkeypatch, **kwargs):
    """Capture every block the solver feeds to the neighborhood average."""
    calls = []

    def spy(g, x):
        calls.append(x.copy())
        return neighborhood_average(g, x)

    monkeypatch.setattr(baselines, "neighborhood_average", spy)
    trace = solver(nodes, graph, **kwargs)
    return trace, calls


class TestArguments:
    """Both baselines reject bad settings: the node count, penalty and
    iteration count before any arithmetic, the time budget and the targets
    when the run loop starts."""

    @pytest.mark.parametrize("solver", [sadmm_solve, admm_solve])
    @pytest.mark.parametrize("iters", [0, -3])
    def test_at_least_one_iteration(self, rng, solver, iters):
        with pytest.raises(ValueError, match="iters must be at least 1"):
            solver(make_pair(rng), build_topology("star", 2), iters=iters)

    @pytest.mark.parametrize("solver", [sadmm_solve, admm_solve])
    @pytest.mark.parametrize("c_admm", [0.0, -1.0, float("nan")])
    def test_positive_penalty(self, rng, solver, c_admm):
        with pytest.raises(ValueError, match="c_admm must be positive"):
            solver(make_pair(rng), build_topology("star", 2), c_admm=c_admm, iters=1)

    @pytest.mark.parametrize("solver", [sadmm_solve, admm_solve])
    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan")])
    def test_positive_time_budget(self, rng, solver, budget):
        # 0 and -1 once stopped after one row with "timeout", NaN never did
        with pytest.raises(ValueError, match="budget_secs must be positive"):
            solver(make_pair(rng), build_topology("star", 2), iters=5,
                   budget_secs=budget)

    @pytest.mark.parametrize("solver", [sadmm_solve, admm_solve])
    @pytest.mark.parametrize("eps", [
        dict(eps_opt=-1.0), dict(eps_feas=-1e-9), dict(eps_opt=float("nan")),
        dict(eps_feas=float("nan")),
    ])
    def test_target_no_row_can_meet_rejected(self, rng, solver, eps):
        # eps_opt = -1 once ran every iteration and reported unconverged
        with pytest.raises(ValueError, match="eps_opt and eps_feas must be nonneg"):
            solver(make_pair(rng), build_topology("star", 2), iters=3, **eps)

    @pytest.mark.parametrize("solver", [sadmm_solve, admm_solve])
    def test_one_node_problem_per_graph_node(self, rng, solver):
        # two problems on a three-node star once died with an IndexError
        with pytest.raises(ValueError, match="one node problem per graph node"):
            solver(make_pair(rng), build_topology("star", 3), iters=1)


class TestNeighborhoodAverage:
    def test_two_node_path(self):
        g = Graph(2, ((1, 2),))
        s = neighborhood_average(g, np.array([[1.0], [0.0]]))
        assert np.allclose(s, [[0.5], [-0.5]])

    def test_consensus_gives_zero(self, rng):
        g = build_topology("clique", 4)
        x = np.tile(rng.standard_normal(3), (4, 1))
        assert np.allclose(neighborhood_average(g, x), 0.0, atol=1e-14)


class TestSadmmCv:
    def test_split_term_dominates(self):
        g = Graph(2, ((1, 2),))
        x = np.array([[1.0], [1.0]])
        y = np.array([[0.0], [1.0]])
        # edges agree, node 1 split gap is 1
        assert sadmm_cv(g, x, y) == pytest.approx(1.0)

    def test_edge_term_dominates(self):
        g = Graph(2, ((1, 2),))
        x = np.array([[2.0, 0.0], [0.0, 0.0]])
        assert sadmm_cv(g, x, x.copy()) == pytest.approx(2.0 / np.sqrt(2.0))


class TestSadmmSolve:
    def test_zero_data_fixed_point(self):
        g = Graph(2, ((1, 2),))
        reg = SparseGroupReg(0.5, 0.5, GroupPartition.contiguous(3, 3))
        nodes = [
            NodeProblem(reg=reg, loss=HuberLoss(A=np.eye(3), b=np.zeros(3)))
            for _ in range(2)
        ]
        trace = sadmm_solve(nodes, g, iters=5)
        state = trace.config["final_state"]
        for arr in (state.x, state.y, state.p, state.p_tilde, state.r):
            assert np.allclose(arr, 0.0, atol=1e-12)
        assert trace.rows[-1].F_sum == pytest.approx(0.0, abs=1e-12)

    def test_running_sums_recomputed_from_history(self, rng, monkeypatch):
        g = build_topology("star", 3)
        nodes = [small_node(rng, n=4, m=3) for _ in range(3)]
        K = 12
        trace, calls = run_with_history(
            sadmm_solve, nodes, g, monkeypatch, iters=K
        )
        state = trace.config["final_state"]
        # call order: initial (x, y), then per iteration (x, y) post-update
        xs = calls[2::2]
        ys = calls[3::2]
        assert len(xs) == K
        p = sum(neighborhood_average(g, x) for x in xs)
        p_tilde = sum(neighborhood_average(g, y) for y in ys)
        r = sum(0.5 * (x - y) for x, y in zip(xs, ys))
        assert np.max(np.abs(p - state.p)) <= 1e-10
        assert np.max(np.abs(p_tilde - state.p_tilde)) <= 1e-10
        assert np.max(np.abs(r - state.r)) <= 1e-10

    def test_identical_data_keeps_consensus(self, rng, monkeypatch):
        g = build_topology("clique", 3)
        shared = small_node(rng, n=4, m=3)
        nodes = [shared] * 3
        _, calls = run_with_history(sadmm_solve, nodes, g, monkeypatch, iters=10)
        for blocks in calls:
            spread = np.max(np.abs(blocks - blocks[0]))
            assert spread <= 1e-10

    def test_step1_prox_optimality_each_iteration(self, rng):
        g = build_topology("star", 3)
        nodes = []
        records = []
        for _ in range(3):
            base = small_node(rng, n=4, m=3)
            nodes.append(NodeProblem(reg=_SpyReg(base.reg, records),
                                     loss=base.loss))
        sadmm_solve(nodes, g, iters=8)
        assert len(records) == 3 * 8
        for reg, center, t, out in records:
            res = reg.subgrad_residual(1.0, (out - center) / t, out)
            assert res <= 1e-8

    def test_midpoint_objective_and_traffic(self, rng):
        g = Graph(2, ((1, 2),))
        nodes = make_pair(rng)
        trace = sadmm_solve(nodes, g, iters=4)
        state = trace.config["final_state"]
        assert trace.rows[-1].F_sum == pytest.approx(
            sadmm_midpoint_objective(nodes, state.x, state.y)
        )
        # 6 vector units per node per iteration
        ledger = trace.config["ledger"]
        assert ledger.vectors_sent.tolist() == [24, 24]

    def test_ledger_charges_one_prox_and_the_newton_passes(self, rng, monkeypatch):
        # per node-step: the closed-form regularizer prox, and one gradient
        # per Newton pass of the Huber prox
        passes = np.zeros(3, dtype=int)

        def counting(node, center, t, start):
            out, it = huber_prox(node, center, t, start)
            passes[[n is node for n in nodes].index(True)] += it
            return out, it

        huber_prox = baselines._huber_prox
        monkeypatch.setattr(baselines, "_huber_prox", counting)
        g = build_topology("star", 3)
        nodes = [small_node(rng, n=4, m=3) for _ in range(3)]
        trace = sadmm_solve(nodes, g, iters=7)
        ledger = trace.config["ledger"]
        assert ledger.prox_evals.tolist() == [7, 7, 7]
        assert ledger.grad_evals.tolist() == passes.tolist()
        assert sum(r.inner_iters for r in trace.rows) == passes.sum()
        assert (passes >= 7).all()

    def test_converges_on_small_symmetric_instance(self, rng):
        # both nodes share the data, so the reference is the doubled
        # single-node optimum
        g = Graph(2, ((1, 2),))
        shared = small_node(rng, n=4, m=3)
        nodes = [shared] * 2
        central = apg(
            smooth_grad=shared.loss.grad,
            prox=shared.reg.prox,
            residual=lambda gr, x: shared.reg.subgrad_residual(1.0, gr, x),
            lipschitz=shared.loss.lipschitz,
            x0=np.zeros(4),
            residual_target=1e-11,
            max_iter=200_000,
        )
        f_star = 2.0 * shared.value(central.y)
        trace = sadmm_solve(
            nodes, g, iters=2000, reference=f_star,
            eps_opt=1e-3, eps_feas=1e-3,
        )
        assert trace.converged
        assert trace.rows[-1].stop_reason == "residual"


class _SpyReg:
    """Regularizer wrapper that records every prox call."""

    def __init__(self, reg, records):
        self._reg = reg
        self._records = records

    def prox(self, v, t):
        out = self._reg.prox(v, t)
        self._records.append((self._reg, v.copy(), t, out.copy()))
        return out

    def __getattr__(self, name):
        return getattr(self._reg, name)


def huber_node(rng, delta, n=6, m=4, scale=1.0):
    A = rng.standard_normal((m, n))
    return NodeProblem(
        reg=SparseGroupReg(0.5, 0.5, GroupPartition.contiguous(n, n)),
        loss=HuberLoss(A=A, b=scale * rng.standard_normal(m), delta=delta),
    )


def long_apg_huber_prox(node, center, t):
    """The Huber prox by plain accelerated gradient, run far past the
    Newton solve's tolerance."""
    return apg(
        smooth_grad=lambda u: t * node.loss.grad(u) + (u - center),
        prox=lambda v, tau: v,
        residual=lambda g, u: float(np.linalg.norm(g)),
        lipschitz=t * node.loss.lipschitz + 1.0,
        x0=np.zeros(node.n),
        residual_target=1e-12,
        max_iter=200_000,
    ).y


class TestNestedProx:
    def test_huber_prox_gradient_residual(self, rng):
        node = small_node(rng, n=5, m=4)
        center = rng.standard_normal(5)
        t = 0.7
        out, _ = _huber_prox(node, center, t, center)
        grad = t * node.loss.grad(out) + (out - center)
        assert np.linalg.norm(grad) <= 1e-9

    @pytest.mark.parametrize("regime", ["mixed", "all-linear", "all-quadratic"])
    def test_huber_prox_matches_long_apg(self, rng, regime):
        delta, scale = {"mixed": (1.0, 3.0), "all-linear": (1e-3, 50.0),
                        "all-quadratic": (1e4, 1.0)}[regime]
        for _ in range(8):
            node = huber_node(rng, delta, scale=scale)
            center = rng.standard_normal(node.n) * rng.choice([0.1, 1.0, 10.0])
            t = float(rng.choice([0.05, 0.5, 5.0]))
            out, passes = _huber_prox(node, center, t, center)
            assert np.max(np.abs(out - long_apg_huber_prox(node, center, t))) <= 1e-8
            inside = np.abs(node.loss.A @ out - node.loss.b) < delta
            if regime == "all-linear":
                assert not inside.any()
            if regime == "all-quadratic":
                # one Newton step solves the quadratic exactly
                assert inside.all() and passes <= 2

    def test_huber_prox_warm_start_gives_the_same_point(self, rng):
        node = huber_node(rng, 1.0, scale=3.0)
        center = rng.standard_normal(node.n)
        cold, cold_passes = _huber_prox(node, center, 0.5, center)
        near = cold + 1e-3 * rng.standard_normal(node.n)
        warm, warm_passes = _huber_prox(node, center, 0.5, near)
        assert np.max(np.abs(warm - cold)) <= 1e-9
        again, again_passes = _huber_prox(node, center, 0.5, cold)
        assert np.array_equal(again, cold) and again_passes == 1
        assert warm_passes <= cold_passes

    def test_huber_prox_pass_cap_raises(self, rng, monkeypatch):
        node = huber_node(rng, 1.0, scale=3.0)
        center = 10.0 * rng.standard_normal(node.n)
        monkeypatch.setattr(baselines, "NEWTON_CAP", 1)
        with pytest.raises(NestedSolveError, match="1 Newton passes"):
            _huber_prox(node, center, 5.0, center)

    def test_huber_prox_nonfinite_center_raises(self, rng):
        node = huber_node(rng, 1.0)
        with pytest.raises(FloatingPointError):
            _huber_prox(node, np.full(node.n, np.nan), 0.5, np.zeros(node.n))

    def test_composite_prox_warm_start_gives_the_same_point(self, rng):
        node = small_node(rng, n=4, m=3)
        center = 2.0 * rng.standard_normal(4)
        cold, _ = _composite_prox(node, center, 0.8, center)
        warm, _ = _composite_prox(node, center, 0.8, cold + 1e-3)
        assert np.max(np.abs(warm - cold)) <= 1e-8

    def test_composite_prox_passes_min_norm_test(self, rng):
        # the nested solve must satisfy the composite optimality condition
        # with the quadratic anchor folded into the smooth gradient
        for _ in range(10):
            node = small_node(rng, n=4, m=3)
            center = rng.standard_normal(4) * 2
            t = float(rng.uniform(0.2, 2.0))
            out, _ = _composite_prox(node, center, t, center)
            grad = t * node.loss.grad(out) + (out - center)
            assert node.reg.subgrad_residual(t, grad, out) <= 1e-8

    def test_composite_prox_matches_centralized_solve(self, rng):
        # a single node's prox with a free anchor is a centralized solve of
        # t * F plus the anchor; cross-check by an independent long run
        node = small_node(rng, n=4, m=3)
        center = rng.standard_normal(4)
        t = 1.3
        out, _ = _composite_prox(node, center, t, center)
        ref = apg(
            smooth_grad=lambda u: t * node.loss.grad(u) + (u - center),
            prox=lambda v, tau: node.reg.prox(v, tau * t),
            residual=lambda g, u: node.reg.subgrad_residual(t, g, u),
            lipschitz=t * node.loss.lipschitz + 1.0,
            x0=np.zeros(4),
            residual_target=None,
            max_iter=50_000,
        )
        assert np.max(np.abs(out - ref.y)) <= 1e-7


class TestAdmmSolve:
    def test_traffic_three_units_per_iteration(self, rng):
        g = Graph(2, ((1, 2),))
        trace = admm_solve(make_pair(rng), g, iters=3)
        ledger = trace.config["ledger"]
        assert ledger.vectors_sent.tolist() == [9, 9]

    def test_running_sum_recomputed_from_history(self, rng, monkeypatch):
        g = build_topology("star", 3)
        nodes = [small_node(rng, n=4, m=3) for _ in range(3)]
        trace, calls = run_with_history(
            admm_solve, nodes, g, monkeypatch, iters=6
        )
        xs = calls[1:]  # one initial call, then one per iteration
        assert len(xs) == 6
        p = sum(neighborhood_average(g, x) for x in xs)
        assert trace.rows[-1].dual_norm == pytest.approx(
            float(np.linalg.norm(p)), abs=1e-10
        )

    def test_identical_data_keeps_consensus(self, rng, monkeypatch):
        g = Graph(2, ((1, 2),))
        shared = small_node(rng, n=4, m=3)
        _, calls = run_with_history(
            admm_solve, [shared] * 2, g, monkeypatch, iters=8
        )
        for blocks in calls:
            assert np.max(np.abs(blocks - blocks[0])) <= 1e-8

    def test_converges_on_small_symmetric_instance(self, rng):
        g = Graph(2, ((1, 2),))
        shared = small_node(rng, n=4, m=3)
        central = apg(
            smooth_grad=shared.loss.grad,
            prox=shared.reg.prox,
            residual=lambda gr, x: shared.reg.subgrad_residual(1.0, gr, x),
            lipschitz=shared.loss.lipschitz,
            x0=np.zeros(4),
            residual_target=1e-11,
            max_iter=200_000,
        )
        f_star = 2.0 * shared.value(central.y)
        trace = admm_solve(
            [shared] * 2, g, iters=500, reference=f_star,
            eps_opt=1e-3, eps_feas=1e-3,
        )
        assert trace.converged
        assert trace.rows[-1].stop_reason == "residual"
