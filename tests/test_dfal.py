"""Penalized consensus solver: schedule, gradient assembly, outer loop,
accumulator bookkeeping, and the asynchronous variants."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from dfalopt import (
    DfalParams,
    GroupPartition,
    HuberLoss,
    NodeProblem,
    ProtocolError,
    SparseGroupReg,
    admm_solve,
    apg,
    async_dfal_solve,
    build_topology,
    consensus_violation,
    default_params,
    dfal_solve,
    generate_instance,
    laplacian_dense,
    laplacian_quadratic,
    local_gradient,
    ms_apg,
    rbcd_run,
    reference_solve,
    sadmm_solve,
)
import dfalopt.dfal as dfal
from dfalopt.dfal import _subproblem_objective
from dfalopt.funcs import NodeStack
from dfalopt.solvers import activation_stream, arbcd_chain
from conftest import random_connected_graph, small_node


def make_nodes(rng, N, n, beta1=0.5, beta2=0.5, m=4, delta=1.0, num_groups=2):
    part = GroupPartition.contiguous(n, n // num_groups)
    nodes = []
    for _ in range(N):
        A = rng.standard_normal((m, n))
        x_true = rng.standard_normal(n)
        nodes.append(
            NodeProblem(
                reg=SparseGroupReg(beta1, beta2, part),
                loss=HuberLoss(A=A, b=A @ x_true, delta=delta),
            )
        )
    return nodes


def uniform_nodes(graph, n, lipschitz=1.0, beta1=1.0, beta2=1.0):
    """Identical unit-scale losses at every node, tunable Lipschitz constant."""
    A = math.sqrt(lipschitz) * np.eye(n)
    reg = SparseGroupReg(beta1, beta2, GroupPartition.contiguous(n, n))
    return [
        NodeProblem(reg=reg, loss=HuberLoss(A=A, b=np.zeros(n), delta=1.0))
        for _ in range(graph.num_nodes)
    ]


def solve_with_history(nodes, graph, params, **kwargs):
    """Run the solver while recording x^(k) and xbar^(k) per outer iteration.

    The warm start of outer iteration k is x^(k-1), so the first inner
    gradient callback of each outer iteration exposes the previous iterate and
    the accumulator in force.
    """
    xs, xbars = {}, {}

    def record(k, ell, ybar, xbar, q):
        if ell == 1:
            xs[k - 1] = ybar.copy()
            xbars[k] = xbar.copy()

    trace = dfal_solve(nodes, graph, params, gradient_check=record, **kwargs)
    state = trace.config["final_state"]
    xs[state.k] = state.x.copy()
    return trace, xs, xbars


class TestDefaultParams:
    def test_unit_lipschitz_star(self):
        g = build_topology("star", 5)
        params = default_params(uniform_nodes(g, 3), g)  # tau = 2, psi_max = 5
        assert params.lam1 == pytest.approx(1.0)
        assert params.alpha1 == pytest.approx(0.2)
        assert params.xi1 == pytest.approx(1.0)
        assert params.psi_max == pytest.approx(5.0)

    def test_min_rule_caps_penalty(self):
        g = build_topology("star", 5)
        params = default_params(uniform_nodes(g, 3, lipschitz=10.0), g)
        assert params.lam1 == pytest.approx(0.5)

    def test_zero_coercivity_rejected(self):
        g = build_topology("star", 3)
        with pytest.raises(ValueError, match="coercivity"):
            default_params(uniform_nodes(g, 2, beta1=0.0, beta2=0.0), g)

    def test_invariants_on_random_instances(self, rng):
        for _ in range(100):
            N = int(rng.integers(2, 7))
            g = random_connected_graph(rng, N)
            nodes = [small_node(rng, n=4, m=3) for _ in range(N)]
            params = default_params(nodes, g)
            tau = min(p.reg.coercivity for p in nodes)
            assert 0.0 < params.lam1 <= 1.0
            assert params.alpha1 == pytest.approx(
                (params.lam1 * tau) ** 2 / (4 * N)
            )
            assert params.xi1 / params.lam1 == pytest.approx(tau / 2)
            assert params.xi1 / params.lam1 < tau
            f_zero = sum(p.loss.value(np.zeros(4)) for p in nodes)
            assert params.bx == f_zero / sum(p.reg.coercivity for p in nodes)


class TestParamsValidation:
    def test_positive_starts_required(self):
        with pytest.raises(ValueError):
            DfalParams(lam1=0.0, alpha1=1.0, xi1=1.0)

    @pytest.mark.parametrize("name", ["lam1", "alpha1", "xi1", "bx"])
    def test_nan_rejected(self, name):
        # xi1 = NaN once ran every subproblem to its inner cap
        values = dict(lam1=1.0, alpha1=1.0, xi1=1.0, bx=10.0)
        values[name] = math.nan
        with pytest.raises(ValueError, match=rf"{name} must be in \(0, inf\), got nan"):
            DfalParams(**values)

    def test_shrink_factor_range(self):
        with pytest.raises(ValueError):
            DfalParams(lam1=1.0, alpha1=1.0, xi1=1.0, c=1.0)

    def test_outer_cap_must_allow_one_iteration(self):
        # an empty outer loop would leave a trace whose summary cannot be taken
        for cap in (0, -3):
            with pytest.raises(ValueError, match="outer_cap"):
                DfalParams(lam1=1.0, alpha1=1.0, xi1=1.0, outer_cap=cap)

    def test_schedule_closed_form(self):
        params = DfalParams(lam1=0.8, alpha1=0.3, xi1=0.4, c=0.7)
        for k in range(1, 30):
            lam, alpha, xi = params.schedule(k)
            f = 0.7 ** (k - 1)
            assert lam == 0.8 * f
            assert alpha == 0.3 * f * f
            assert xi == 0.4 * f * f


class TestLocalGradient:
    def test_star_center_row(self):
        # center with degree 2: q1 = 2*1 - 2 - 3 = -3 when the loss is flat
        node = NodeProblem(
            reg=SparseGroupReg(1.0, 0.0, GroupPartition.contiguous(1, 1)),
            loss=HuberLoss(A=np.zeros((1, 1)), b=np.zeros(1)),
        )
        q1 = local_gradient(
            node, 1.0, 2,
            own_y=np.array([1.0]),
            neighbor_y={2: np.array([2.0]), 3: np.array([3.0])},
            own_xbar=np.zeros(1),
            neighbor_xbar={2: np.zeros(1), 3: np.zeros(1)},
        )
        assert q1 == pytest.approx([-3.0])

    def test_consensus_null_space(self):
        node = NodeProblem(
            reg=SparseGroupReg(1.0, 0.0, GroupPartition.contiguous(2, 2)),
            loss=HuberLoss(A=np.zeros((1, 2)), b=np.zeros(1)),
        )
        y = np.array([0.3, -0.7])
        q = local_gradient(
            node, 1.0, 2,
            own_y=y, neighbor_y={2: y.copy(), 3: y.copy()},
            own_xbar=np.zeros(2), neighbor_xbar={2: np.zeros(2), 3: np.zeros(2)},
        )
        assert np.allclose(q, 0.0, atol=1e-14)

    def test_matches_dense_assembly(self, rng):
        for _ in range(50):
            N = int(rng.integers(2, 7))
            n = int(rng.integers(1, 5))
            g = random_connected_graph(rng, N)
            nodes = make_nodes(rng, N, max(n, 2), num_groups=1)
            n = nodes[0].n
            y = rng.standard_normal((N, n))
            xbar = rng.standard_normal((N, n))
            lam = float(rng.uniform(0.1, 1.0))
            q = []
            for i in range(1, N + 1):
                nbrs = (g.nbr_idx[g.nbr_ptr[i - 1]:g.nbr_ptr[i]] + 1).tolist()
                q.append(local_gradient(
                    nodes[i - 1], lam, g.degrees[i - 1], y[i - 1],
                    {j: y[j - 1] for j in nbrs}, xbar[i - 1],
                    {j: xbar[j - 1] for j in nbrs},
                ))
            expect = _dense_gradient(nodes, g, lam, y, xbar)
            assert np.max(np.abs(np.stack(q) - expect)) <= 1e-12

    def test_missing_neighbor_block(self):
        node = NodeProblem(
            reg=SparseGroupReg(1.0, 0.0, GroupPartition.contiguous(1, 1)),
            loss=HuberLoss(A=np.zeros((1, 1)), b=np.zeros(1)),
        )
        with pytest.raises(ProtocolError):
            local_gradient(
                node, 1.0, 2,
                own_y=np.zeros(1), neighbor_y={2: np.zeros(1)},
                own_xbar=np.zeros(1), neighbor_xbar={2: np.zeros(1)},
            )


class TestDfalSolve:
    def test_two_node_antisymmetric_data(self, rng):
        # c1 = -c2 makes the consensus optimum the origin; verify against a
        # centralized solve of the summed objective
        n = 2
        c1 = np.array([1.0, -0.5])
        part = GroupPartition.contiguous(n, n)
        nodes = [
            NodeProblem(
                reg=SparseGroupReg(0.01, 0.0, part),
                loss=HuberLoss(A=np.eye(n), b=c, delta=100.0),
            )
            for c in (c1, -c1)
        ]
        reg_sum = SparseGroupReg(0.02, 0.0, part)
        central = apg(
            smooth_grad=lambda x: sum(p.loss.grad(x) for p in nodes),
            prox=reg_sum.prox,
            residual=lambda g, x: reg_sum.subgrad_residual(1.0, g, x),
            lipschitz=2.0,
            x0=np.zeros(n),
            residual_target=1e-12,
            max_iter=100_000,
        )
        assert np.allclose(central.y, 0.0, atol=1e-10)
        graph = build_topology("star", 2)
        params = default_params(nodes, graph)
        trace = dfal_solve(
            nodes, graph, params, lam_min=params.lam1 * params.c**30
        )
        state = trace.config["final_state"]
        assert consensus_violation(graph, state.x) <= 1e-6
        x_avg = state.x.mean(axis=0)
        assert np.linalg.norm(x_avg - central.y) <= 1e-4
        stack = NodeStack(nodes)
        f_star = stack.objective(np.tile(central.y, (2, 1)))
        assert stack.objective(state.x) == pytest.approx(f_star, abs=1e-6)

    def test_identical_data_preserves_consensus(self, rng):
        graph = build_topology("clique", 3)
        shared = small_node(rng, n=4, m=3)
        nodes = [shared] * 3
        params = default_params(nodes, graph)
        trace = dfal_solve(nodes, graph, params, lam_min=params.lam1 * params.c**8)
        for row in trace.rows:
            assert row.CV <= 1e-10

    def test_trace_schedule_is_geometric(self, rng):
        graph = random_connected_graph(rng, 4)
        nodes = make_nodes(rng, 4, 4)
        params = default_params(nodes, graph)
        trace = dfal_solve(nodes, graph, params, lam_min=params.lam1 * params.c**10)
        for row in trace.rows:
            assert row.lam == params.schedule(row.k)[0]

    def test_accumulator_recomputed_from_history(self, rng):
        graph = build_topology("star", 3)
        nodes = make_nodes(rng, 3, 4)
        # gentle shrink keeps the inner residual targets above float noise
        # over a 50-iteration horizon
        params = default_params(nodes, graph, c=0.9, outer_cap=50)
        trace, xs, xbars = solve_with_history(
            nodes, graph, params, lam_min=params.lam1 * params.c**50
        )
        K = trace.config["final_state"].k
        assert K == 50
        for k in range(2, K + 1):
            lam_k = params.schedule(k)[0]
            direct = lam_k * sum(
                xs[t] / params.schedule(t)[0] for t in range(1, k)
            )
            assert np.max(np.abs(direct - xbars[k])) <= 1e-10

    def test_primal_residual_bounded_by_dual_history(self, rng):
        # along the run, ||Ax^(k)|| <= 2 * (max_t dual norm) * lam^(k)
        graph = build_topology("star", 3)
        nodes = make_nodes(rng, 3, 4)
        params = default_params(nodes, graph, c=0.9, outer_cap=30)
        trace, xs, _ = solve_with_history(
            nodes, graph, params, lam_min=params.lam1 * params.c**29
        )
        b_theta = max(row.dual_norm for row in trace.rows)
        for row in trace.rows:
            ax = math.sqrt(max(laplacian_quadratic(graph, xs[row.k]), 0.0))
            assert ax <= 2.0 * b_theta * row.lam + 1e-12

    def test_inexactness_ratio_guard(self, rng):
        graph = build_topology("star", 2)
        nodes = make_nodes(rng, 2, 4, beta1=0.1, beta2=0.1)
        params = default_params(nodes, graph)
        bad = DfalParams(
            lam1=params.lam1, alpha1=params.alpha1, xi1=10.0 * params.lam1,
            bx=params.bx,
        )
        with pytest.raises(ValueError, match="coercivity"):
            dfal_solve(nodes, graph, bad)


class TestFeasibilityDiagnostics:
    def test_consensus_point_is_feasible(self, rng):
        graph = build_topology("clique", 3)
        nodes = make_nodes(rng, 3, 4)
        params = default_params(nodes, graph)
        trace = dfal_solve(
            nodes, graph, params, lam_min=params.lam1 * params.c**12
        )
        x = np.tile(trace.config["final_state"].x[0], (3, 1))
        ax = math.sqrt(max(laplacian_quadratic(graph, x), 0.0))
        assert ax == pytest.approx(0.0, abs=1e-12)

    def test_first_dual_norm_from_zero_start(self, rng):
        # theta starts at zero, so after one outer iteration
        # ||theta^(2)|| = ||A x^(1)|| / lam^(1)
        graph = build_topology("star", 3)
        nodes = make_nodes(rng, 3, 4)
        params = default_params(nodes, graph, outer_cap=1)
        trace = dfal_solve(nodes, graph, params)
        state = trace.config["final_state"]
        ax = math.sqrt(max(laplacian_quadratic(graph, state.x), 0.0))
        assert trace.rows[0].dual_norm == pytest.approx(ax / params.lam1, rel=1e-12)


class TestAsyncSolve:
    def test_invalid_oracle_rejected(self, rng):
        graph = build_topology("star", 2)
        nodes = make_nodes(rng, 2, 4)
        params = default_params(nodes, graph)
        with pytest.raises(ValueError, match="oracle"):
            async_dfal_solve(nodes, graph, params, p=0.1, oracle="sgd")
        with pytest.raises(ValueError, match="p must"):
            async_dfal_solve(nodes, graph, params, p=1.5)

    def test_zero_outer_iterations_rejected(self, rng):
        graph = build_topology("star", 2)
        nodes = make_nodes(rng, 2, 4)
        params = default_params(nodes, graph)
        with pytest.raises(ValueError, match="outer_iters"):
            async_dfal_solve(nodes, graph, params, p=0.1, outer_iters=0)

    def test_rbcd_budgets_follow_schedule(self, rng):
        graph = build_topology("star", 3)
        nodes = make_nodes(rng, 3, 4)
        params = default_params(nodes, graph)
        K = 6
        trace = async_dfal_solve(
            nodes, graph, params, p=0.1, oracle="rbcd", seed=3, outer_iters=K
        )
        p_sub = trace.config["p_sub"]
        assert p_sub == pytest.approx(1.0 - 0.9 ** (1.0 / K))
        budgets, constants = trace.config["budgets"], trace.config["budget_constants"]
        assert len(budgets) == len(constants) == K
        for k, (events, const) in enumerate(zip(budgets, constants), start=1):
            alpha_k = params.schedule(k)[1]
            expect = math.ceil(
                2.0 * 3 * const / alpha_k * (1.0 + math.log(1.0 / p_sub))
            )
            assert events == expect

    def test_arbcd_budgets_follow_schedule(self, rng):
        graph = build_topology("star", 3)
        nodes = make_nodes(rng, 3, 4)
        params = default_params(nodes, graph)
        K = 5
        trace = async_dfal_solve(
            nodes, graph, params, p=0.2, oracle="arbcd", seed=4, outer_iters=K
        )
        budgets, constants = trace.config["budgets"], trace.config["budget_constants"]
        assert len(budgets) == len(constants) == K
        for k, (events, const) in enumerate(zip(budgets, constants), start=1):
            alpha_k = params.schedule(k)[1]
            assert events == math.ceil(2.0 * 3 * math.sqrt(2.0 * const / alpha_k))

    @pytest.mark.parametrize("oracle", ["rbcd", "arbcd"])
    def test_identical_data_matches_centralized(self, rng, oracle):
        # with equal data everywhere the network adds nothing: the async run
        # must land on the shared single-node optimum
        graph = build_topology("star", 2)
        shared = small_node(rng, n=4, m=3)
        nodes = [shared] * 2
        central = apg(
            smooth_grad=shared.loss.grad,
            prox=shared.reg.prox,
            residual=lambda g, x: shared.reg.subgrad_residual(1.0, g, x),
            lipschitz=shared.loss.lipschitz,
            x0=np.zeros(4),
            residual_target=1e-11,
            max_iter=200_000,
        )
        f_star = 2.0 * shared.value(central.y)
        params = default_params(nodes, graph, eps_opt=2e-3, eps_feas=1e-3)
        trace = async_dfal_solve(
            nodes, graph, params, p=0.2, oracle=oracle, seed=9,
            outer_iters=25, reference=f_star,
        )
        assert trace.converged
        assert trace.rows[-1].rel_subopt <= 2e-3

    def test_seeded_runs_are_reproducible(self, rng):
        graph = build_topology("star", 3)
        nodes = make_nodes(rng, 3, 4)
        params = default_params(nodes, graph)
        a = async_dfal_solve(nodes, graph, params, p=0.1, seed=5, outer_iters=4)
        b = async_dfal_solve(nodes, graph, params, p=0.1, seed=5, outer_iters=4)
        assert np.array_equal(
            a.config["final_state"].x, b.config["final_state"].x
        )
        assert [r.as_list() for r in a.rows] == [r.as_list() for r in b.rows]


class TestSharedSetup:
    """Both solves run the same input checks before any work."""

    @staticmethod
    def _star5():
        inst = generate_instance(1, "star", 5, 5, 2, seed=1)
        return inst.nodes, inst.graph, default_params(inst.nodes, inst.graph)

    @staticmethod
    def _solves(nodes, graph, params, **kwargs):
        """The synchronous solve and both asynchronous oracles, not yet run."""
        return [partial(dfal_solve, nodes, graph, params, **kwargs)] + [
            partial(async_dfal_solve, nodes, graph, params, p=0.1, oracle=oracle,
                    outer_iters=2, **kwargs)
            for oracle in ("rbcd", "arbcd")
        ]

    def test_one_node_problem_per_graph_node(self):
        nodes, graph, params = self._star5()
        # no nodes at all: a ValueError, not an IndexError on nodes[0]
        for few in (nodes[:3], nodes[:0]):
            for solve in self._solves(few, graph, params):
                with pytest.raises(ValueError, match="one node problem per graph node"):
                    solve()

    def test_inexactness_ratio_guard(self):
        nodes, graph, params = self._star5()
        bad = DfalParams(
            lam1=params.lam1, alpha1=params.alpha1, xi1=10.0 * params.lam1,
            bx=params.bx,
        )
        for solve in self._solves(nodes, graph, bad):
            with pytest.raises(ValueError, match="coercivity"):
                solve()

    def test_eigensolve_only_where_a_block_constant_reads_it(self, monkeypatch):
        # arbcd's block constants use the degrees, so it never needs psi_max
        def refuse(graph):
            raise RuntimeError("spectral_bounds called")

        nodes, graph, params = self._star5()
        monkeypatch.setattr(dfal, "spectral_bounds", refuse)
        sync, rbcd, arbcd = self._solves(nodes, graph, replace(params, psi_max=0.0))
        for solve in (sync, rbcd):
            with pytest.raises(RuntimeError, match="spectral_bounds called"):
                solve()
        assert len(arbcd().rows) == 2


class TestTimeBudget:
    """``budget_secs`` bounds all four solves through their one run loop,
    checked once per outer iteration."""

    _star5 = staticmethod(TestSharedSetup._star5)

    @staticmethod
    def _solves(nodes, graph, params, **kwargs):
        """Both DFAL solves and both baselines, not yet run."""
        return TestSharedSetup._solves(nodes, graph, params, **kwargs) + [
            partial(solve, nodes, graph, iters=3, **kwargs)
            for solve in (sadmm_solve, admm_solve)
        ]

    def test_spent_budget_stops_after_one_outer_iteration(self):
        # no reference and no penalty floor: before the budget only the outer
        # cap (100 here) bounded the synchronous solve
        nodes, graph, params = self._star5()
        for solve in self._solves(nodes, graph, params, budget_secs=1e-9):
            trace = solve()
            assert len(trace.rows) == 1
            assert trace.rows[-1].stop_reason == "timeout"
            assert not trace.converged

    def test_ample_budget_changes_nothing(self):
        nodes, graph, params = self._star5()
        params = replace(params, outer_cap=3)
        for bounded, free in zip(self._solves(nodes, graph, params, budget_secs=1e6),
                                 self._solves(nodes, graph, params)):
            a, b = bounded(), free()
            assert [r.as_list() for r in a.rows] == [r.as_list() for r in b.rows]

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan")])
    def test_nonpositive_budget_rejected(self, budget):
        nodes, graph, params = self._star5()
        for solve in self._solves(nodes, graph, params, budget_secs=budget):
            with pytest.raises(ValueError, match=rf"budget_secs must be in \(0, inf\), got {budget}"):
                solve()


class TestTargets:
    @pytest.mark.parametrize("eps_opt, eps_feas", [
        (-1.0, 1e-4), (1e-3, -1e-9), (float("nan"), 1e-4), (1e-3, float("nan")),
    ])
    def test_target_no_row_can_meet_rejected(self, eps_opt, eps_feas):
        # eps_opt = -1 once ran to the budget or the cap, reported unconverged
        nodes, graph, params = TestSharedSetup._star5()
        params = replace(params, outer_cap=2, eps_opt=eps_opt, eps_feas=eps_feas)
        for solve in TestSharedSetup._solves(nodes, graph, params):
            bad = ("eps_opt", eps_opt) if not eps_opt >= 0 else ("eps_feas", eps_feas)
            with pytest.raises(ValueError, match=r"%s must be in \[0, inf\), got %s" % bad):
                solve()


def _dense_gradient(nodes, graph, lam, Y, xbar):
    """The penalized gradient ``lam * grad f(Y) + (Omega kron I)(Y + xbar)``,
    assembled with the dense Kronecker-product Laplacian."""
    grads = np.stack([p.loss.grad(Y[i]) for i, p in enumerate(nodes)])
    dense = np.kron(laplacian_dense(graph), np.eye(Y.shape[1]))
    return lam * grads + (dense @ (Y + xbar).ravel()).reshape(Y.shape)


class TestNodeStack:
    """The all-node layer against the per-node path it replaces."""

    @staticmethod
    def _problems(rng):
        inst = generate_instance(2, "star", 3, 4, 3, seed=5)
        yield inst.nodes, inst.graph
        for _ in range(4):
            graph = random_connected_graph(rng, int(rng.integers(2, 7)))
            nodes = [
                small_node(rng, n=6, m=int(rng.integers(2, 6)))
                for _ in range(graph.num_nodes)
            ]
            yield nodes, graph

    def test_problems_have_different_partitions_per_node(self, rng):
        for nodes, _ in self._problems(rng):
            groups = [
                [g.tolist() for g in p.reg.partition.groups] for p in nodes
            ]
            assert any(gs != groups[0] for gs in groups[1:])

    def test_gradient_residuals_and_prox_match_per_node(self, rng):
        for nodes, graph in self._problems(rng):
            N, n = graph.num_nodes, nodes[0].n
            stack = NodeStack(nodes)
            for _ in range(10):
                lam = float(rng.uniform(0.1, 2.0))
                xbar = rng.standard_normal((N, n))
                t = rng.uniform(0.1, 2.0, size=N)
                V = 3.0 * rng.standard_normal((N, n))
                Y = stack.prox_map(t)(V)  # exact zeros, whole zero groups too
                for i in range(N):
                    np.testing.assert_allclose(
                        Y[i], nodes[i].reg.prox(V[i], t[i]), rtol=0, atol=1e-12
                    )
                if rng.random() < 0.5:
                    Y = V
                obj = _subproblem_objective(
                    nodes, graph, lam, xbar, np.ones(N), stack
                )
                G = obj.smooth_grad(Y)
                np.testing.assert_allclose(
                    G, _dense_gradient(nodes, graph, lam, Y, xbar),
                    rtol=0, atol=1e-12,
                )
                per_node = [
                    nodes[i].reg.subgrad_residual(lam, G[i], Y[i]) for i in range(N)
                ]
                # every stopping test reads the block residual, which is the
                # node's own residual at the same gradient row
                assert [r(Y, G[i]) for i, (_, _, r) in enumerate(obj.blocks)] == per_node

    def test_event_block_gradient_matches_per_node(self, rng):
        for nodes, graph in self._problems(rng):
            N, n = graph.num_nodes, nodes[0].n
            for _ in range(10):
                lam = float(rng.uniform(0.1, 2.0))
                xbar = rng.standard_normal((N, n))
                Y = rng.standard_normal((N, n))
                obj = _subproblem_objective(nodes, graph, lam, xbar, np.ones(N))
                expect = _dense_gradient(nodes, graph, lam, Y, xbar)
                for i in range(N):
                    np.testing.assert_allclose(
                        obj.blocks[i][0](Y), expect[i], rtol=0, atol=1e-12
                    )


class TestEventPath:
    """The per-event kernels bound once per subproblem against the per-node
    formulas, bit for bit, and the early-exit residual test against the
    event's own block gradient."""

    # a path (degree-1 ends, degree-2 middle nodes) and a ring
    EDGE_FILES = {
        "path": "5\n1 2\n2 3\n3 4\n4 5\n",
        "ring": "5\n1 2\n2 3\n3 4\n4 5\n1 5\n",
    }

    @classmethod
    def _instances(cls, tmp_path):
        for case in (1, 2):
            for topology in ("star", "clique"):
                inst = generate_instance(case, topology, 5, 10, 10, seed=3)
                yield inst.nodes, inst.graph
        for case, name in ((1, "path"), (2, "ring")):
            (tmp_path / name).write_text(cls.EDGE_FILES[name])
            inst = generate_instance(case, "edge-file", 5, 10, 10, seed=3,
                                     edge_file=str(tmp_path / name))
            nodes = list(inst.nodes)
            # no group weight at nodes 0 and 2: where a norm is 0 only the
            # floor keeps the shrink finite, which node 2's huge l1 weight
            # forces (its prox zeroes every group, and its residual clips the
            # gradient to 0 on a zero group); no l1 weight at node 3
            for i, b1, b2 in ((0, 0.3, 0.0), (2, 1e6, 0.0), (3, 0.0, 0.3)):
                reg = SparseGroupReg(b1, b2, nodes[i].reg.partition)
                nodes[i] = replace(nodes[i], reg=reg)
            yield nodes, inst.graph

    @classmethod
    def _subproblems(cls, rng, tmp_path):
        for nodes, graph in cls._instances(tmp_path):
            stack = NodeStack(nodes)
            for _ in range(4):
                lam = float(rng.uniform(0.1, 2.0))
                xbar = rng.standard_normal(stack.shape)
                obj = _subproblem_objective(nodes, graph, lam, xbar, np.ones(5), stack)
                V = 3.0 * rng.standard_normal(stack.shape)
                # a zero group per node, whose norm is 0
                Z = V.copy()
                for i, p in enumerate(nodes):
                    Z[i, p.reg.partition.groups[0]] = 0.0
                # prox outputs carry exact zeros, whole zero groups too
                for Y in (V, stack.prox_map(rng.uniform(0.1, 2.0, size=5))(V), Z):
                    yield nodes, graph, lam, xbar, obj, Y

    def test_instances_cover_every_degree_and_zero_weights(self, tmp_path):
        degrees, betas = set(), set()
        for nodes, graph in self._instances(tmp_path):
            degrees.update(graph.degrees.tolist())
            betas.update((p.reg.beta1 == 0, p.reg.beta2 == 0) for p in nodes)
        assert degrees == {1, 2, 4}
        assert betas == {(False, False), (True, False), (False, True)}

    def test_residual_test_reuses_the_event_gradient(self, rng, tmp_path):
        for nodes, _, lam, _, obj, Y in self._subproblems(rng, tmp_path):
            G = obj.smooth_grad(Y)
            r = [residual(Y, grad(Y)) for grad, _, residual in obj.blocks]
            for j, node in enumerate(nodes):
                g = obj.blocks[j][0](Y)
                assert r[j] == node.reg.subgrad_residual(lam, g, Y[j])
                # the stacked gradient sums the neighbours by reduceat, so
                # its row may differ from the event's in the last bit
                stacked = node.reg.subgrad_residual(lam, G[j], Y[j])
                assert abs(r[j] - stacked) <= 1e-15 * stacked
            worst = max(r)
            for t in (np.nextafter(worst, -np.inf), worst, np.nextafter(worst, np.inf)):
                assert obj.residual_reached(Y, t) == (worst <= t)

    @staticmethod
    def _counted(obj):
        """``obj`` with each block's gradient and exact residual counted."""
        calls = {"grad": 0, "exact": 0}

        def counting(kind, kernel):
            def run(*args):
                calls[kind] += 1
                return kernel(*args)

            return run

        blocks = [(counting("grad", grad), prox, counting("exact", residual))
                  for grad, prox, residual in obj.blocks]
        return replace(obj, blocks=blocks), calls

    def test_a_handed_step_decides_as_the_exact_max(self, rng, tmp_path):
        for nodes, graph, lam, xbar, _, Y in self._subproblems(rng, tmp_path):
            L = rng.uniform(0.5, 4.0, size=5)
            obj = _subproblem_objective(nodes, graph, lam, xbar, L)
            grads = [grad(Y) for grad, _, _ in obj.blocks]
            r = [res(Y, g) for g, (_, _, res) in zip(grads, obj.blocks)]
            worst, every = max(r), {}
            for i, (g, (_, prox, _)) in enumerate(zip(grads, obj.blocks)):
                step = every[i] = prox(Y[i] - g / L[i], 1.0 / L[i])
                for t in (np.nextafter(worst, -np.inf), worst, np.nextafter(worst, np.inf)):
                    assert obj.residual_reached(Y, t, {i: (g, step)}) == (worst <= t)
                # the gradient mapping, at most the residual, puts the block over
                # half of it: the gate fires, and nothing is computed again
                mapping = L[i] * np.linalg.norm(Y[i] - step)
                if mapping > 0:
                    counted, calls = self._counted(obj)
                    assert not counted.residual_reached(Y, 0.5 * mapping, {i: (g, step)})
                    assert calls == {"grad": 0, "exact": 0}
                    assert mapping <= r[i] * (1 + 1e-12)
            # every block handed in, as ms_apg hands them: no gradient is taken
            counted, calls = self._counted(obj)
            every = {i: (g, every[i]) for i, g in enumerate(grads)}
            for t in (np.nextafter(worst, -np.inf), worst, np.nextafter(worst, np.inf)):
                assert counted.residual_reached(Y, t, every) == (worst <= t)
            assert calls["grad"] == 0
            # a NaN block fails the test whichever block is handed in
            Z = Y.copy()
            Z[3, 0] = np.nan
            for i in (0, 3):
                g = obj.blocks[i][0](Z)
                step = obj.blocks[i][1](Z[i] - g / L[i], 1.0 / L[i])
                assert not obj.residual_reached(Z, np.inf, {i: (g, step)})

    def test_event_gradient_and_prox_match_the_per_node_formulas(self, rng, tmp_path):
        for nodes, graph, lam, xbar, obj, Y in self._subproblems(rng, tmp_path):
            for i, node in enumerate(nodes):
                grad, prox, _ = obj.blocks[i]
                A, b, delta = node.loss.A, node.loss.b, node.loss.delta
                nbrs = graph.nbr_idx[graph.nbr_ptr[i]:graph.nbr_ptr[i + 1]]
                expect = lam * (A.T @ np.clip(A @ Y[i] - b, -delta, delta))
                expect = expect + graph.degrees[i] * (Y[i] + xbar[i])
                expect = expect - np.add.reduce(Y[nbrs] + xbar[nbrs])
                assert np.array_equal(grad(Y), expect)
                tau = float(rng.uniform(0.1, 2.0))
                expect = node.reg.prox(Y[i], tau * lam)
                assert np.array_equal(prox(Y[i], tau), expect)

    @pytest.mark.parametrize("run", [rbcd_run, arbcd_chain])
    def test_each_event_calls_the_nodes_own_prox(self, run, monkeypatch):
        # the event prox is SparseGroupReg.prox itself, looked up at call
        # time: a spy on the class sees one call per event, at step tau * lam
        inst = generate_instance(1, "star", 3, 4, 3, seed=5)
        lam, L = 0.7, np.array([1.5, 2.0, 3.0])
        obj = _subproblem_objective(inst.nodes, inst.graph, lam, np.zeros((3, 12)), L)
        calls, own = [], SparseGroupReg.prox

        def spy(reg, v, t):
            calls.append((reg, t))
            return own(reg, v, t)

        monkeypatch.setattr(SparseGroupReg, "prox", spy)
        result = run(obj, np.zeros((3, 12)), 60, seed=4)
        assert len(calls) == result.iterations == result.activations.sum() == 60
        # each event on node i proxes with node i's own regularizer
        regs = [node.reg for node in inst.nodes]
        assert [sum(reg is r for reg, _ in calls) for r in regs] == result.activations.tolist()
        if run is rbcd_run:
            assert {t for _, t in calls} <= {(1.0 / L_i) * lam for L_i in L}

    def test_event_prox_rejects_a_nan_step(self):
        inst = generate_instance(1, "star", 3, 4, 3, seed=5)
        obj = _subproblem_objective(
            inst.nodes, inst.graph, 1.0, np.zeros((3, 12)), np.ones(3)
        )
        with pytest.raises(ValueError, match="prox step must be positive, got nan"):
            obj.blocks[0][1](np.ones(12), np.nan)
        for t in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="prox step must be positive"):
                obj.blocks[1][1](np.ones(12), t)

    def test_xbar_shape_checked_once_per_subproblem(self):
        inst = generate_instance(1, "star", 3, 4, 3, seed=5)
        with pytest.raises(ValueError, match=r"expected xbar of shape \(3, 12\)"):
            _subproblem_objective(
                inst.nodes, inst.graph, 1.0, np.zeros((3, 11)), np.ones(3)
            )


class TestBoundKernels:
    """The stacked prox and residuals with their thresholds and weights bound
    once, against the unbound and per-node formulas, bit for bit."""

    @staticmethod
    def _stacks():
        for case in (1, 2):
            for topology in ("star", "clique"):
                inst = generate_instance(case, topology, 5, 10, 10, seed=3)
                yield inst, NodeStack(inst.nodes)

    def test_bound_prox_equals_stack_and_node_prox(self, rng):
        for inst, stack in self._stacks():
            for _ in range(4):
                t = rng.uniform(0.1, 2.0, size=5)
                prox = stack.prox_map(t)
                for _ in range(2):
                    V = 3.0 * rng.standard_normal(stack.shape)
                    Y = prox(V)
                    assert np.array_equal(Y, stack.prox_map(t)(V))
                    for i, node in enumerate(inst.nodes):
                        assert np.array_equal(Y[i], node.reg.prox(V[i], t[i]))

    def test_bound_residuals_equal_each_nodes_residual(self, rng):
        for inst, stack in self._stacks():
            for _ in range(4):
                # one weight for every node, or one per node
                lam = float(rng.uniform(0.1, 2.0))
                for lam in (lam, rng.uniform(0.1, 2.0, size=5)):
                    self._check_residuals(rng, inst, stack, lam)

    @staticmethod
    def _check_residuals(rng, inst, stack, lam):
        lams = np.broadcast_to(lam, 5)
        G = rng.standard_normal(stack.shape)
        V = 3.0 * rng.standard_normal(stack.shape)
        # prox outputs carry exact zeros, whole zero groups too
        for Y in (V, stack.prox_map(rng.uniform(0.1, 2.0, size=5))(V)):
            for i, node in enumerate(inst.nodes):
                r = node.reg.subgrad_residual(lams[i], G[i], Y[i])
                # summed in segment order, as admm's composite prox sums each
                # node's row of the stacked kernel
                v = node.reg.min_norm_subgradient(lams[i], G[i], Y[i])
                v = v[node.reg.partition.perm]
                # the residual sums in coordinate order, so it may differ in
                # the last bits
                assert math.sqrt(np.add.reduce(v * v)) == pytest.approx(r, rel=1e-14)

    def test_bound_kernels_check_shapes(self):
        stack = NodeStack(generate_instance(2, "star", 3, 4, 3, seed=5).nodes)
        with pytest.raises(ValueError, match="expected shape"):
            stack.prox_map(np.ones(3))(np.ones((3, 11)))

    def test_prox_all_proxes_each_block_at_its_own_step(self, rng):
        # block i at step 1/L_i, its thresholds formed as (1 / L) * lam
        inst = generate_instance(2, "star", 5, 10, 10, seed=3)
        stack = NodeStack(inst.nodes)
        lam = 0.7
        L = rng.uniform(0.5, 4.0, size=5)
        obj = _subproblem_objective(
            inst.nodes, inst.graph, lam, np.zeros(stack.shape), L, stack
        )
        for _ in range(3):
            V = 3.0 * rng.standard_normal(stack.shape)
            assert np.array_equal(obj.prox_all(V), stack.prox_map((1.0 / L) * lam)(V))


# Ledger counters and inner iterations of async_dfal_solve(p=0.1, seed=7,
# outer_iters=8) on generate_instance(case, "star", 3, 4, 3, seed=5), recorded
# from the per-node, per-group implementation the stacked layer replaced.
ASYNC_COUNTERS = {
    (1, "rbcd"): dict(
        sent=[416, 210, 224], recv=[434, 208, 208], prox=[208, 210, 224],
        grad=[208, 210, 224], inner=[60, 111, 81, 33, 63, 63, 162, 69]),
    (1, "arbcd"): dict(
        sent=[138, 62, 49], recv=[111, 69, 69], prox=[69, 62, 49],
        grad=[69, 62, 49], inner=[51, 21, 15, 39, 9, 33, 9, 3]),
    (2, "rbcd"): dict(
        sent=[666, 336, 351], recv=[687, 333, 333], prox=[333, 336, 351],
        grad=[333, 336, 351], inner=[60, 102, 81, 33, 96, 150, 240, 258]),
    (2, "arbcd"): dict(
        sent=[154, 68, 56], recv=[124, 77, 77], prox=[77, 68, 56],
        grad=[77, 68, 56], inner=[48, 33, 15, 15, 9, 69, 6, 6]),
}


@pytest.mark.parametrize("case, oracle", sorted(ASYNC_COUNTERS))
def test_async_counters_match_the_per_node_implementation(case, oracle):
    inst = generate_instance(case, "star", 3, 4, 3, seed=5)
    params = default_params(inst.nodes, inst.graph)
    trace = async_dfal_solve(
        inst.nodes, inst.graph, params, p=0.1, oracle=oracle, seed=7,
        outer_iters=8,
    )
    ledger = trace.config["ledger"]
    expect = ASYNC_COUNTERS[case, oracle]
    assert ledger.vectors_sent.tolist() == expect["sent"]
    assert ledger.vectors_received.tolist() == expect["recv"]
    assert ledger.prox_evals.tolist() == expect["prox"]
    assert ledger.grad_evals.tolist() == expect["grad"]
    assert ledger.control_msgs.tolist() == [16, 8, 8]
    assert [r.inner_iters for r in trace.rows] == expect["inner"]
    assert all(r.stop_reason == "residual" for r in trace.rows)


# block gradients (events and stopping tests) and exact residuals of each
# oracle's async-star5 solve at activation seed 4001: every failing test fails
# at a gate, so the exact residuals are those of the 5 passing tests; running
# each block's exact residual as soon as its gate passes takes 1253 (rbcd) and
# 68 (arbcd), with the same gradients
STOPPING_TEST_WORK = {"rbcd": (18828, 25), "arbcd": (2847, 25)}


@pytest.mark.parametrize("oracle", sorted(STOPPING_TEST_WORK))
def test_a_failing_stopping_test_runs_no_exact_residual(monkeypatch, oracle):
    inst = generate_instance(1, "star", 5, 10, 10, 1)
    params = default_params(inst.nodes, inst.graph, outer_cap=40, eps_opt=1e-3, eps_feas=1e-4)
    f_star = reference_solve(inst).f_star
    counts = {"grad": 0, "residual": 0}
    bind = dfal._event_kernels

    def counting(*args):
        grad, prox, residual = bind(*args)

        def counted(name, kernel):
            def call(*a):
                counts[name] += 1
                return kernel(*a)
            return call

        return counted("grad", grad), prox, counted("residual", residual)

    monkeypatch.setattr(dfal, "_event_kernels", counting)
    trace = async_dfal_solve(inst.nodes, inst.graph, params, p=0.1, oracle=oracle,
                             seed=4001, outer_iters=40, reference=f_star)
    assert trace.converged
    assert (counts["grad"], counts["residual"]) == STOPPING_TEST_WORK[oracle]


@pytest.mark.parametrize("topology", ["star", "clique"])
@pytest.mark.parametrize("case", [1, 2])
def test_level_set_constants_bound_the_exact_ones(monkeypatch, case, topology):
    # the first two subproblems of each oracle, against their optimum: each
    # block of y* lies in the radius R_i = Phi(y0) / (lam tau_i), and each
    # budget constant is at least its exact counterpart at y*
    inst = generate_instance(case, topology, 5, 10, 10, 1)
    params = default_params(inst.nodes, inst.graph)
    seen, bound = [], dfal.level_set_constants

    def recording(obj, y0, kappa):
        constants = bound(obj, y0, kappa)
        seen.append((obj, y0.copy(), kappa, constants))
        return constants

    monkeypatch.setattr(dfal, "level_set_constants", recording)
    for oracle in ("rbcd", "arbcd"):
        async_dfal_solve(inst.nodes, inst.graph, params, p=0.1, oracle=oracle, seed=1000,
                         outer_iters=2)
    assert len(seen) == 4
    for obj, y0, kappa, (c_rbcd, c_arbcd) in seen:
        star = ms_apg(obj, y0, residual_target=1e-10, max_iter=50_000, restart=True)
        assert star.stop_reason == "residual"
        phi0 = obj.value(y0)
        radius = phi0 / kappa
        assert np.all(np.linalg.norm(star.y, axis=1) <= radius)
        assert c_rbcd == max(phi0, float(np.sum(obj.L * (2.0 * radius) ** 2)))
        start = np.linalg.norm(y0, axis=1)
        assert c_arbcd == pytest.approx(
            (1.0 - 1.0 / 5) * phi0 + 0.5 * float(np.sum(obj.L * (start + radius) ** 2)),
            rel=1e-14)
        gap = phi0 - obj.value(star.y)
        dist = float(np.sum(obj.L * np.sum((y0 - star.y) ** 2, axis=1)))
        assert c_rbcd >= max(gap, dist)
        assert c_arbcd >= (1.0 - 1.0 / 5) * gap + 0.5 * dist


def test_an_optimal_start_gets_the_floor_budget_and_stays():
    # with b = 0 everywhere the optimum is 0, and every subproblem starts there:
    # Phi(y0) = 0, so the constants and bx are the floor and each run one event
    graph = build_topology("star", 3)
    nodes = uniform_nodes(graph, 4)
    params = default_params(nodes, graph)
    tiny = float(np.finfo(float).tiny)
    assert params.bx == tiny
    for oracle in ("rbcd", "arbcd"):
        trace = async_dfal_solve(nodes, graph, params, p=0.1, oracle=oracle, seed=1,
                                 outer_iters=3)
        assert trace.config["budget_constants"] == [tiny] * 3
        assert trace.config["budgets"] == [1] * 3
        assert not np.any(trace.config["final_state"].x)


def _rbcd_drawing_at_each_event(obj, y0, iters, seed, target):
    """``rbcd_run`` in the order it had before its residual test handed the
    next event its step: each event draws its block and takes its own step, and
    each test runs the exact residual of every block."""
    y, N, L = np.array(y0, dtype=float), obj.num_blocks, obj.L.tolist()
    draw = activation_stream(seed, N).__next__
    drawn = np.zeros(N, dtype=np.int64)
    for ell in range(1, iters + 1):
        i = draw()
        drawn[i] += 1
        grad, prox, _ = obj.blocks[i]
        y[i] = prox(y[i] - grad(y) / L[i], 1.0 / L[i])
        if ell % N == 0:
            if np.maximum.reduce([res(y, g(y)) for g, _, res in obj.blocks]) <= target:
                return y, ell, "residual", drawn
    return y, iters, "cap", drawn


@pytest.mark.parametrize("topology", ["star", "clique"])
@pytest.mark.parametrize("case", [1, 2])
def test_rbcd_hands_each_event_its_own_step_bit_for_bit(case, topology):
    inst = generate_instance(case, topology, 5, 10, 10, seed=3)
    nodes, graph, lam = inst.nodes, inst.graph, 0.5
    xbar = np.random.default_rng(case).standard_normal((5, 100))
    L = lam * np.array([p.loss.lipschitz for p in nodes]) + graph.degrees
    obj = _subproblem_objective(nodes, graph, lam, xbar, L)
    y0 = np.zeros((5, 100))
    start = max(res(y0, g(y0)) for g, _, res in obj.blocks)
    seen = []

    def counting(j, grad):
        def run(Y):
            seen.append((j, Y.tobytes()))
            return grad(Y)

        return run

    counted = replace(obj, blocks=[(counting(j, grad), prox, res)
                                   for j, (grad, prox, res) in enumerate(obj.blocks)])
    for seed in (0, 1, 2):
        for iters, target, stop in ((5000, 1e-2 * start, "residual"), (600, 0.0, "cap")):
            y, ell, reason, drawn = _rbcd_drawing_at_each_event(obj, y0, iters, seed, target)
            assert reason == stop
            seen.clear()
            res = rbcd_run(counted, y0, iters, seed, residual_target=target)
            assert np.array_equal(res.y, y)
            assert np.array_equal(res.iterations, ell)
            assert np.array_equal(res.stop_reason, reason)
            assert np.array_equal(res.activations, drawn)
            # no block gradient is taken twice at one iterate
            assert len(set(seen)) == len(seen) >= ell


# Ledger counters and inner iterations of dfal_solve with
# default_params(outer_cap=8) on generate_instance(case, topology, 3, 4, 3,
# seed=5), recorded from the implementation with its own inline inner loop.
SYNC_COUNTERS = {
    (1, "star"): dict(
        sent=[186, 93, 93], recv=[186, 93, 93], prox=[85, 85, 85],
        grad=[93, 93, 93], inner=[12, 13, 15, 5, 11, 4, 13, 20]),
    (2, "star"): dict(
        sent=[236, 118, 118], recv=[236, 118, 118], prox=[110, 110, 110],
        grad=[118, 118, 118], inner=[12, 12, 13, 7, 12, 17, 20, 25]),
    (2, "clique"): dict(
        sent=[208, 208, 208], recv=[208, 208, 208], prox=[96, 96, 96],
        grad=[104, 104, 104], inner=[18, 6, 6, 6, 9, 14, 20, 25]),
}


@pytest.mark.parametrize("case, topology", sorted(SYNC_COUNTERS))
def test_sync_counters_match_the_inline_implementation(case, topology):
    inst = generate_instance(case, topology, 3, 4, 3, seed=5)
    params = default_params(inst.nodes, inst.graph, outer_cap=8)
    trace = dfal_solve(inst.nodes, inst.graph, params)
    ledger = trace.config["ledger"]
    expect = SYNC_COUNTERS[case, topology]
    assert ledger.vectors_sent.tolist() == expect["sent"]
    assert ledger.vectors_received.tolist() == expect["recv"]
    assert ledger.prox_evals.tolist() == expect["prox"]
    assert ledger.grad_evals.tolist() == expect["grad"]
    assert ledger.control_msgs.tolist() == [0, 0, 0]
    assert [r.inner_iters for r in trace.rows] == expect["inner"]
    assert all(r.stop_reason == "residual" for r in trace.rows)


@pytest.mark.parametrize("topology", ["star", "clique"])
def test_sync_gradients_are_dense_and_charges_follow_the_exchange_law(topology):
    # each inner iteration is one synchronous exchange of the point its
    # gradient reads: every node sends its block to, and receives one from,
    # each neighbour once per gradient
    inst = generate_instance(1, topology, 5, 5, 2, seed=1)
    graph, N = inst.graph, inst.graph.num_nodes
    params = default_params(inst.nodes, graph, outer_cap=6)
    checks = [0]

    def check(k, ell, ybar, xbar, q):
        lam = params.schedule(k)[0]
        expect = _dense_gradient(inst.nodes, graph, lam, ybar, xbar)
        assert np.max(np.abs(q - expect)) <= 1e-12
        checks[0] += 1

    trace = dfal_solve(inst.nodes, graph, params, gradient_check=check)
    ledger = trace.config["ledger"]
    inner = sum(r.inner_iters for r in trace.rows)
    assert checks[0] == inner
    assert np.array_equal(ledger.vectors_sent, graph.degrees * inner)
    assert np.array_equal(ledger.vectors_received, graph.degrees * inner)
    stopped = sum(r.stop_reason == "residual" for r in trace.rows)
    assert ledger.grad_evals.tolist() == [inner] * N
    # the iteration whose residual test stops a subproblem takes no prox
    assert ledger.prox_evals.tolist() == [inner - stopped] * N


@pytest.mark.parametrize("oracle", ["ms_apg", "rbcd_run", "arbcd_run"])
def test_outer_loop_hands_the_target_and_charges_what_the_oracle_returns(
    monkeypatch, oracle
):
    # the outer loop alone forms xi / sqrt(N) and charges the ledger, once per
    # outer iteration, with the activations its oracle returned
    inst = generate_instance(2, "star", 3, 4, 3, seed=5)
    params = default_params(inst.nodes, inst.graph, outer_cap=8)
    run, charge = getattr(dfal, oracle), dfal.charge_activations
    targets, returned, charged = [], [], []

    def spy(*args, residual_target, **kwargs):
        targets.append(residual_target)
        returned.append(run(*args, residual_target=residual_target, **kwargs))
        return returned[-1]

    def charge_spy(ledger, graph, counts):
        charged.append(counts)
        charge(ledger, graph, counts)

    monkeypatch.setattr(dfal, oracle, spy)
    monkeypatch.setattr(dfal, "charge_activations", charge_spy)
    if oracle == "ms_apg":
        trace = dfal_solve(inst.nodes, inst.graph, params)
    else:
        trace = async_dfal_solve(inst.nodes, inst.graph, params, p=0.1,
                                 oracle=oracle.removesuffix("_run"), seed=7, outer_iters=8)
    K = len(trace.rows)
    assert K > 1 and len(returned) == len(charged) == K
    assert all(c is r.activations for c, r in zip(charged, returned))
    sqrt_n = math.sqrt(inst.graph.num_nodes)
    assert targets == [params.schedule(k)[2] / sqrt_n for k in range(1, K + 1)]


# Ledger counters of sadmm_solve(c_admm=1.0) on generate_instance(2, "star", 5,
# 10, 10, 1) at the benchmark's 200 iterations and the case-2 reference's 400,
# recorded from the implementation with one Newton loop per node.
SADMM_COUNTERS = {
    200: dict(grad=[407, 403, 403, 402, 402], prox=[200] * 5, sent=[1200] * 5),
    400: dict(grad=[807, 803, 803, 802, 802], prox=[400] * 5, sent=[2400] * 5),
}


@pytest.mark.parametrize("iters", sorted(SADMM_COUNTERS))
def test_sadmm_counters_match_the_per_node_implementation(iters):
    inst = generate_instance(2, "star", 5, 10, 10, 1)
    trace = sadmm_solve(inst.nodes, inst.graph, c_admm=1.0, iters=iters)
    ledger = trace.config["ledger"]
    expect = SADMM_COUNTERS[iters]
    assert ledger.grad_evals.tolist() == expect["grad"]
    assert ledger.prox_evals.tolist() == expect["prox"]
    assert ledger.vectors_sent.tolist() == expect["sent"]
    assert sum(r.inner_iters for r in trace.rows) == sum(expect["grad"])


# Ledger counters and nested iterations of admm_solve(c_admm=1.0) on
# generate_instance(2, "star", 5, 10, 10, 1) at the benchmark's 2 iterations
# and at 20, recorded from the dual projected Newton composite prox, which
# charges one gradient and one prox per point it tries.  The nested APG it
# replaced charged one of each per iteration: 2: [108, 360, 335, 354, 342]
# (1499 in all), 20: [1068, 3485, 3247, 3426, 3379] (14605).
ADMM_COUNTERS = {
    2: dict(grad=[9, 11, 12, 11, 12], sent=[6] * 5, inner=55),
    20: dict(grad=[76, 88, 91, 87, 86], sent=[60] * 5, inner=428),
}


@pytest.mark.parametrize("iters", sorted(ADMM_COUNTERS))
def test_admm_counters_match_the_per_node_implementation(iters):
    inst = generate_instance(2, "star", 5, 10, 10, 1)
    trace = admm_solve(inst.nodes, inst.graph, c_admm=1.0, iters=iters)
    ledger = trace.config["ledger"]
    expect = ADMM_COUNTERS[iters]
    # one gradient and one prox per point tried
    assert ledger.grad_evals.tolist() == expect["grad"]
    assert ledger.prox_evals.tolist() == expect["grad"]
    assert ledger.vectors_sent.tolist() == expect["sent"]
    assert sum(r.inner_iters for r in trace.rows) == expect["inner"]


# Outer and inner iterations and ledger counters of the long synchronous DFAL
# run of the benchmark's case-2 reference: default_params(c=0.7,
# outer_cap=40) and lam_min = lam1 * 0.7**18 on generate_instance(2, "star",
# 5, 10, 10, 1), recorded before the stacked prox thresholds and residual
# weights were bound once per subproblem.
DFAL_LONG_COUNTERS = dict(
    outer=18, inner=4141, sent=[16564, 4141, 4141, 4141, 4141],
    recv=[16564, 4141, 4141, 4141, 4141], prox=[4123] * 5, grad=[4141] * 5,
)


def test_case2_reference_run_counters():
    inst = generate_instance(2, "star", 5, 10, 10, 1)
    params = default_params(inst.nodes, inst.graph, c=0.7, outer_cap=40)
    trace = dfal_solve(inst.nodes, inst.graph, params, lam_min=params.lam1 * 0.7**18)
    ledger = trace.config["ledger"]
    expect = DFAL_LONG_COUNTERS
    assert len(trace.rows) == expect["outer"]
    assert sum(r.inner_iters for r in trace.rows) == expect["inner"]
    assert ledger.vectors_sent.tolist() == expect["sent"]
    assert ledger.vectors_received.tolist() == expect["recv"]
    assert ledger.prox_evals.tolist() == expect["prox"]
    assert ledger.grad_evals.tolist() == expect["grad"]
