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
    generate_instance,
    sadmm_solve,
)
from dfalopt.baselines import (
    ARMIJO,
    MIN_STEP,
    NESTED_TOL,
    NEWTON_CAP,
    NestedSolveError,
    _composite_prox,
    _huber_prox,
    neighborhood_average,
    sadmm_cv,
)
from dfalopt.funcs import NodeStack, _clip, sparse_group_min_norm
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
        with pytest.raises(ValueError, match=rf"c_admm must be in \(0, inf\), got {c_admm}"):
            solver(make_pair(rng), build_topology("star", 2), c_admm=c_admm, iters=1)

    @pytest.mark.parametrize("solver", [sadmm_solve, admm_solve])
    def test_finite_penalty(self, rng, solver):
        # inf once made every prox step 0 and failed with "prox steps must be
        # positive", which names no argument the caller passed
        with pytest.raises(ValueError, match=r"c_admm must be in \(0, inf\), got inf"):
            solver(make_pair(rng), build_topology("star", 2), c_admm=np.inf, iters=1)

    @pytest.mark.parametrize("solver", [sadmm_solve, admm_solve])
    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan")])
    def test_positive_time_budget(self, rng, solver, budget):
        # 0 and -1 once stopped after one row with "timeout", NaN never did
        with pytest.raises(ValueError, match=rf"budget_secs must be in \(0, inf\), got {budget}"):
            solver(make_pair(rng), build_topology("star", 2), iters=5,
                   budget_secs=budget)

    @pytest.mark.parametrize("solver", [sadmm_solve, admm_solve])
    @pytest.mark.parametrize("eps", [
        dict(eps_opt=-1.0), dict(eps_feas=-1e-9), dict(eps_opt=float("nan")),
        dict(eps_feas=float("nan")),
    ])
    def test_target_no_row_can_meet_rejected(self, rng, solver, eps):
        # eps_opt = -1 once ran every iteration and reported unconverged
        [(key, value)] = eps.items()
        with pytest.raises(ValueError, match=rf"{key} must be in \[0, inf\), got {value}"):
            solver(make_pair(rng), build_topology("star", 2), iters=3, **eps)

    @pytest.mark.parametrize("solver", [sadmm_solve, admm_solve])
    def test_one_node_problem_per_graph_node(self, rng, solver):
        # two problems on a three-node star once died with an IndexError
        with pytest.raises(ValueError, match="one node problem per graph node"):
            solver(make_pair(rng), build_topology("star", 3), iters=1)
        # one node problem per node, but of widths 4 and 6
        nodes = [small_node(rng, n=4, m=3), small_node(rng, n=6, m=3)]
        with pytest.raises(ValueError, match="node problems must share one dimension"):
            solver(nodes, build_topology("star", 2), iters=1)


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

    def test_step1_prox_optimality_each_iteration(self, rng, monkeypatch):
        # every x-update is the stacked regularizer prox at the node steps
        records, steps = [], []
        prox_map = NodeStack.prox_map

        def spy(stack, t):
            prox = prox_map(stack, t)

            def recorded(V):
                out = prox(V)
                records.append((V.copy(), out.copy()))
                return out

            steps.append(np.array(t, dtype=float))
            return recorded

        monkeypatch.setattr(NodeStack, "prox_map", spy)
        g = build_topology("star", 3)
        nodes = [small_node(rng, n=4, m=3) for _ in range(3)]
        sadmm_solve(nodes, g, iters=8)
        assert len(steps) == 1 and len(records) == 8
        for center, out in records:
            for i, node in enumerate(nodes):
                t = steps[0][i]
                grad = (out[i] - center[i]) / t
                assert node.reg.subgrad_residual(1.0, grad, out[i]) <= 1e-8

    def test_midpoint_objective_and_traffic(self, rng):
        g = Graph(2, ((1, 2),))
        nodes = make_pair(rng)
        trace = sadmm_solve(nodes, g, iters=4)
        state = trace.config["final_state"]
        assert trace.rows[-1].F_sum == NodeStack(nodes).objective(
            0.5 * (state.x + state.y))
        # 6 vector units per node per iteration
        ledger = trace.config["ledger"]
        assert ledger.vectors_sent.tolist() == [24, 24]

    def test_ledger_charges_one_prox_and_the_newton_passes(self, rng, monkeypatch):
        # per node-step: the closed-form regularizer prox, and one gradient
        # per Newton pass of the Huber prox
        passes = np.zeros(3, dtype=int)

        def counting(stack, centers, t, starts):
            out, it = huber_prox(stack, centers, t, starts)
            passes[:] += it
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


def per_node_huber_prox(node, center, t, start):
    """One node's semismooth Newton loop, as it ran before the nodes shared
    one: the reference the stacked kernel matches bit for bit."""
    A, b, delta = node.loss.A, node.loss.b, node.loss.delta
    u = np.array(start, dtype=float)
    for passes in range(1, NEWTON_CAP + 1):
        r = A @ u - b
        w = _clip(r, delta)
        g = t * (A.T @ w) + (u - center)
        if float(np.linalg.norm(g)) <= NESTED_TOL:
            return u, passes
        A_F = A[np.abs(r) < delta]
        z = np.linalg.solve(np.eye(A_F.shape[0]) + t * (A_F @ A_F.T), A_F @ g)
        p = t * (A_F.T @ z) - g
        q = A @ p
        descent = (1.0 - ARMIJO) * float(g @ p)
        half_pp = 0.5 * float(p @ p)
        s = 1.0
        while True:
            r_s = r + s * q
            w_s = _clip(r_s, delta)
            curvature = t * float(np.sum((w_s - w) * (r_s - 0.5 * (w_s + w))))
            if s * descent + curvature + s * s * half_pp <= 0.0:
                break
            s *= 0.5
            assert s >= MIN_STEP
        u += s * p
    raise AssertionError("no convergence")


def stacked_huber_prox(nodes, centers, t, starts):
    return _huber_prox(
        NodeStack(nodes), np.array(centers, dtype=float), np.array(t, dtype=float),
        np.array(starts, dtype=float),
    )


def per_node_composite_prox(node, center, t, start):
    """One node's accelerated proximal gradient run with the strongly convex
    momentum, to the Newton kernel's stopping test: an independent reference
    for it.  The shifted objective is 1-strongly convex, so a point passing
    the test is within ``NESTED_TOL`` of the minimizer."""
    L = t * node.loss.lipschitz + 1.0
    beta = (np.sqrt(L) - 1.0) / (np.sqrt(L) + 1.0)
    ybar = y_prev = np.array(start, dtype=float)
    for ell in range(1, 200_001):
        g = t * node.loss.grad(ybar) + (ybar - center)
        if node.reg.subgrad_residual(t, g, ybar) <= NESTED_TOL:
            return ybar, ell
        y = node.reg.prox(ybar - g / L, (1.0 / L) * t)
        ybar = y + beta * (y - y_prev)
        y_prev = y
    raise AssertionError("no convergence")


def stacked_composite_prox(nodes, centers, t, starts):
    return _composite_prox(
        NodeStack(nodes), np.array(centers, dtype=float), np.array(t, dtype=float),
        np.array(starts, dtype=float),
    )


def composite_residuals(nodes, centers, t, U):
    """Each node's ``subgrad_residual`` at ``U``: the kernel's stopping test."""
    G = t[:, None] * NodeStack(nodes).loss_grad(U) + (U - centers)
    return np.array([p.reg.subgrad_residual(t[i], G[i], U[i]) for i, p in enumerate(nodes)])


def check_against_per_node_loop(nodes, centers, t, starts):
    """Every row of the kernel is within 1e-8 of the per-node reference and
    passes the stopping test; returns the points tried per node."""
    out, tried = stacked_composite_prox(nodes, centers, t, starts)
    for i, node in enumerate(nodes):
        u, _ = per_node_composite_prox(node, centers[i], t[i], starts[i])
        assert np.max(np.abs(out[i] - u)) <= 1e-8
    assert (composite_residuals(nodes, centers, t, out) <= NESTED_TOL).all()
    return tried


def composite_stack(rng, rows, n=12):
    """Nodes with their own partitions and weights, one per entry of
    ``rows`` (their row counts), with centers and steps that make their
    iteration counts differ."""
    N = len(rows)
    nodes = [small_node(rng, n=n, m=m) for m in rows]
    centers = rng.standard_normal((N, n)) * rng.choice([0.1, 1.0, 10.0], size=(N, 1))
    return nodes, centers, rng.choice([0.05, 0.5, 5.0], size=N)


REGIMES = {"mixed": (1.0, 3.0), "all-linear": (1e-3, 50.0), "all-quadratic": (1e4, 1.0)}


def mixed_stack(rng, rows, n=40):
    """Nodes of all three regimes, one per entry of ``rows`` (their row
    counts), with centers and steps that make their pass counts differ."""
    regimes = ["mixed", "all-linear", "all-quadratic"] * 3
    nodes = [huber_node(rng, REGIMES[regime][0], n=n, m=m, scale=REGIMES[regime][1])
             for regime, m in zip(regimes, rows)]
    centers = [rng.standard_normal(n) * rng.choice([0.1, 1.0, 10.0]) for _ in nodes]
    t = rng.choice([0.05, 0.5, 5.0], size=len(nodes))
    return nodes, np.array(centers), t


class TestNestedProx:
    """The stacked Huber and composite proxes, each test on a one-node and a
    multi-node stack."""

    def test_huber_prox_gradient_residual(self, rng):
        for N in (1, 4):
            nodes = [small_node(rng, n=5, m=4) for _ in range(N)]
            centers = rng.standard_normal((N, 5))
            t = rng.uniform(0.1, 2.0, size=N)
            out, _ = stacked_huber_prox(nodes, centers, t, centers)
            for i, node in enumerate(nodes):
                grad = t[i] * node.loss.grad(out[i]) + (out[i] - centers[i])
                assert np.linalg.norm(grad) <= 1e-9

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_huber_prox_matches_long_apg(self, rng, regime):
        delta, scale = REGIMES[regime]
        for N in [1] * 8 + [8]:
            nodes = [huber_node(rng, delta, scale=scale) for _ in range(N)]
            centers = [rng.standard_normal(6) * rng.choice([0.1, 1.0, 10.0])
                       for _ in nodes]
            t = rng.choice([0.05, 0.5, 5.0], size=N)
            out, passes = stacked_huber_prox(nodes, centers, t, centers)
            for i, node in enumerate(nodes):
                long = long_apg_huber_prox(node, centers[i], t[i])
                assert np.max(np.abs(out[i] - long)) <= 1e-8
                inside = np.abs(node.loss.A @ out[i] - node.loss.b) < delta
                if regime == "all-linear":
                    assert not inside.any()
                if regime == "all-quadratic":
                    # one Newton step solves the quadratic exactly
                    assert inside.all() and passes[i] <= 2

    def test_huber_prox_warm_start_gives_the_same_point(self, rng):
        for N in (1, 3):
            nodes = [huber_node(rng, 1.0, scale=3.0) for _ in range(N)]
            centers = rng.standard_normal((N, 6))
            t = np.full(N, 0.5)
            cold, cold_passes = stacked_huber_prox(nodes, centers, t, centers)
            near = cold + 1e-3 * rng.standard_normal(cold.shape)
            warm, warm_passes = stacked_huber_prox(nodes, centers, t, near)
            assert np.max(np.abs(warm - cold)) <= 1e-9
            again, again_passes = stacked_huber_prox(nodes, centers, t, cold)
            assert np.array_equal(again, cold) and (again_passes == 1).all()
            assert (warm_passes <= cold_passes).all()

    def test_huber_prox_pass_cap_raises(self, rng, monkeypatch):
        monkeypatch.setattr(baselines, "NEWTON_CAP", 1)
        for N in (1, 3):
            nodes = [huber_node(rng, 1.0, scale=3.0) for _ in range(N)]
            centers = 10.0 * rng.standard_normal((N, 6))
            with pytest.raises(NestedSolveError, match="1 Newton passes"):
                stacked_huber_prox(nodes, centers, np.full(N, 5.0), centers)

    def test_huber_prox_line_search_failure_raises(self, monkeypatch):
        # from a zero start far from the centers the full Newton step fails
        # the Armijo test, and with the smallest step at 0.9 the first halving
        # is already below it
        monkeypatch.setattr(baselines, "MIN_STEP", 0.9)
        nodes = generate_instance(2, "star", 5, 10, 10, 1).nodes
        centers = 5.0 * np.random.default_rng(0).standard_normal((5, 100))
        with pytest.raises(NestedSolveError, match="Huber prox line search found no decrease"):
            stacked_huber_prox(nodes, centers, np.full(5, 10.0), np.zeros((5, 100)))

    def test_huber_prox_nonfinite_center_raises(self, rng):
        for N in (1, 3):
            nodes = [huber_node(rng, 1.0) for _ in range(N)]
            centers = rng.standard_normal((N, 6))
            centers[N - 1] = np.nan
            with pytest.raises(FloatingPointError):
                stacked_huber_prox(nodes, centers, np.full(N, 0.5), np.zeros((N, 6)))

    def test_huber_prox_matches_the_per_node_loop_bit_for_bit(self, rng):
        # equal row counts: the same products, dot products and LAPACK
        # solves per node, so the same bits
        seen_passes = set()
        for _ in range(12):
            nodes, centers, t = mixed_stack(rng, [12] * 7)
            starts = centers.copy()
            # a node that starts at its solution stops at its first pass
            starts[6] = per_node_huber_prox(nodes[6], centers[6], t[6], centers[6])[0]
            out, passes = stacked_huber_prox(nodes, centers, t, starts)
            for i, node in enumerate(nodes):
                u, it = per_node_huber_prox(node, centers[i], t[i], starts[i])
                assert np.array_equal(out[i], u) and passes[i] == it
            assert passes[6] == 1
            # the all-linear nodes end with an empty F
            for i in (1, 4):
                r = nodes[i].loss.A @ out[i] - nodes[i].loss.b
                assert not (np.abs(r) < nodes[i].loss.delta).any()
            seen_passes.update(passes.tolist())
        assert len(seen_passes) >= 3

    def test_huber_prox_on_a_padded_stack(self, rng):
        # unequal row counts pad the stack with zero rows, which never enter
        # F; the padded sums may differ in the last bits
        for _ in range(12):
            nodes, centers, t = mixed_stack(rng, [2, 12, 17, 3, 1, 9])
            out, passes = stacked_huber_prox(nodes, centers, t, centers)
            for i, node in enumerate(nodes):
                u, it = per_node_huber_prox(node, centers[i], t[i], centers[i])
                assert passes[i] == it
                assert np.max(np.abs(out[i] - u)) <= 1e-12 * max(np.max(np.abs(u)), 1.0)

    def test_composite_prox_warm_start_gives_the_same_point(self, rng):
        for N in (1, 3):
            nodes = [small_node(rng, n=4, m=3) for _ in range(N)]
            centers = 2.0 * rng.standard_normal((N, 4))
            t = rng.uniform(0.2, 2.0, size=N)
            cold, _ = stacked_composite_prox(nodes, centers, t, centers)
            warm, _ = stacked_composite_prox(nodes, centers, t, cold + 1e-3)
            assert np.max(np.abs(warm - cold)) <= 1e-8

    def test_composite_prox_passes_min_norm_test(self, rng):
        # the nested solve must satisfy the composite optimality condition
        # with the quadratic anchor folded into the smooth gradient
        for N in [1] * 5 + [4] * 5:
            nodes = [small_node(rng, n=4, m=3) for _ in range(N)]
            centers = 2.0 * rng.standard_normal((N, 4))
            t = rng.uniform(0.2, 2.0, size=N)
            out, _ = stacked_composite_prox(nodes, centers, t, centers)
            for i, node in enumerate(nodes):
                grad = t[i] * node.loss.grad(out[i]) + (out[i] - centers[i])
                assert node.reg.subgrad_residual(t[i], grad, out[i]) <= 1e-8

    def test_composite_prox_matches_centralized_solve(self, rng):
        # a single node's prox with a free anchor is a centralized solve of
        # t * F plus the anchor; cross-check by an independent long run
        for N in (1, 3):
            nodes = [small_node(rng, n=4, m=3) for _ in range(N)]
            centers = rng.standard_normal((N, 4))
            t = rng.uniform(0.5, 1.5, size=N)
            out, _ = stacked_composite_prox(nodes, centers, t, centers)
            for i, node in enumerate(nodes):
                ref = apg(
                    smooth_grad=lambda u: t[i] * node.loss.grad(u) + (u - centers[i]),
                    prox=lambda v, tau: node.reg.prox(v, tau * t[i]),
                    residual=lambda g, u: node.reg.subgrad_residual(t[i], g, u),
                    lipschitz=t[i] * node.loss.lipschitz + 1.0,
                    x0=np.zeros(4),
                    residual_target=None,
                    max_iter=50_000,
                )
                assert np.max(np.abs(out[i] - ref.y)) <= 1e-7

    def test_composite_prox_pass_cap_raises(self, rng, monkeypatch):
        monkeypatch.setattr(baselines, "NEWTON_CAP", 1)
        for N in (1, 3):
            nodes = [small_node(rng, n=4, m=3) for _ in range(N)]
            centers = 10.0 * rng.standard_normal((N, 4))
            with pytest.raises(NestedSolveError, match="after 1 Newton passes"):
                stacked_composite_prox(nodes, centers, np.full(N, 5.0), centers)

    def test_composite_prox_line_search_failure_raises(self, rng, monkeypatch):
        # phi is convex, so no step falls by twice its linear prediction
        monkeypatch.setattr(baselines, "ARMIJO", 2.0)
        for N in (1, 3):
            nodes = [small_node(rng, n=4, m=3) for _ in range(N)]
            centers = 10.0 * rng.standard_normal((N, 4))
            with pytest.raises(NestedSolveError, match="line search found no decrease"):
                stacked_composite_prox(nodes, centers, np.full(N, 5.0), centers)

    def test_composite_prox_nonfinite_center_raises(self, rng):
        for N in (1, 3):
            nodes = [small_node(rng, n=4, m=3) for _ in range(N)]
            centers = rng.standard_normal((N, 4))
            centers[N - 1] = np.nan
            starts = np.zeros((N, 4))
            with pytest.raises(FloatingPointError, match="at pass 1"):
                stacked_composite_prox(nodes, centers, np.full(N, 0.5), starts)

    def test_composite_prox_matches_the_per_node_loop(self, rng):
        # equal row counts; the nodes' partitions have 1 to 3 groups, and
        # each node stops on its own test
        seen, group_counts = set(), set()
        for _ in range(8):
            nodes, centers, t = composite_stack(rng, [8] * 6)
            starts = centers.copy()
            starts[5], _ = per_node_composite_prox(nodes[5], centers[5], t[5], starts[5])
            tried = check_against_per_node_loop(nodes, centers, t, starts)
            # a node started at its solution is done within two points
            assert tried[5] <= 2
            seen.update(tried.tolist())
            group_counts.add(len({len(p.reg.partition.groups) for p in nodes}))
        assert len(seen) >= 4 and max(group_counts) >= 2

    def test_composite_prox_residual_is_each_nodes_own(self, rng, monkeypatch):
        # every row of every minimum-norm element the kernel forms, the
        # polish's included, is its node's own, and so is the row's norm
        calls, polished, loss_grad = [], [], NodeStack.loss_grad

        def recording(part, g, x, *weights):
            v = sparse_group_min_norm(part, g, x, *weights)
            calls.append((g, x, v))
            return v

        def polishing(stack, Y):  # the polish's gradient
            polished.append(Y)
            return loss_grad(stack, Y)

        monkeypatch.setattr(baselines, "sparse_group_min_norm", recording)
        monkeypatch.setattr(NodeStack, "loss_grad", polishing)
        rows = 0
        for _ in range(6):
            nodes, centers, t = composite_stack(rng, [8, 3, 8, 12, 8])
            _composite_prox(NodeStack(nodes), centers, t, centers)
            for g, x, v in calls:
                G, U, V = (a.reshape(len(nodes), -1) for a in (g, x, v))
                res = np.sqrt(np.add.reduce(V**2, axis=1))
                for i, p in enumerate(nodes):
                    assert V[i].tobytes() == p.reg.min_norm_subgradient(t[i], G[i], U[i]).tobytes()
                    assert res[i] == p.reg.subgrad_residual(t[i], G[i], U[i])
                    rows += 1
            calls.clear()
        assert rows >= 200 and polished

    def test_composite_prox_on_a_padded_stack(self, rng):
        # unequal row counts pad the loss stack with zero rows, which stay
        # at w = 0 and never enter a Newton system
        for _ in range(8):
            nodes, centers, t = composite_stack(rng, [2, 8, 12, 3, 1, 6])
            check_against_per_node_loop(nodes, centers, t, centers)


class TestAdmmSolve:
    @pytest.mark.parametrize("c_admm", [1e-3, 1e3])
    def test_ill_conditioned_penalties(self, monkeypatch, c_admm):
        # prox steps of 50 to 500 (c_admm = 1e-3) make the Newton systems ill
        # conditioned, steps of 5e-5 to 5e-4 (c_admm = 1e3) nearly the identity
        inst = generate_instance(2, "star", 5, 10, 10, 1)
        worst = []

        def checked(stack, centers, t, starts):
            out, tried = _composite_prox(stack, centers, t, starts)
            worst.append(composite_residuals(inst.nodes, centers, t, out).max())
            return out, tried

        monkeypatch.setattr(baselines, "_composite_prox", checked)
        trace = admm_solve(inst.nodes, inst.graph, c_admm=c_admm, iters=3)
        assert len(trace.rows) == 3 and len(worst) == 3
        assert max(worst) <= NESTED_TOL
        assert all(np.isfinite([r.F_sum, r.CV]).all() for r in trace.rows)

    @pytest.mark.xfail(strict=True, raises=NestedSolveError, reason=(
        "a known defect: at prox steps near 5e4 the composite prox stalls "
        "above NESTED_TOL after 100 Newton passes (ROADMAP item 10)"))
    @pytest.mark.parametrize("case", [1, 2])
    def test_tiny_penalty_runs_its_iterations(self, case):
        inst = generate_instance(case, "star", 5, 10, 10, 5)
        trace = admm_solve(inst.nodes, inst.graph, c_admm=1e-5, iters=8)
        assert len(trace.rows) == 8
        assert all(np.isfinite([r.F_sum, r.CV]).all() for r in trace.rows)

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
