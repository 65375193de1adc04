"""Block solvers: accelerated proximal gradient, randomized descent, and the
accelerated randomized chain with restarts."""

import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from dfalopt import (
    BlockObjective,
    GroupPartition,
    SparseGroupReg,
    apg,
    generate_instance,
    ms_apg,
    rbcd_run,
    spectral_bounds,
)
from dfalopt.dfal import _subproblem_objective
from dfalopt.funcs import NodeStack
from dfalopt.solvers import (
    arbcd_candidate,
    arbcd_chain,
    arbcd_momentum,
    arbcd_run,
    fista_momentum,
    level_set_constants,
)
from conftest import random_reg, schedule_ids, small_node


def quadratic_objective(c):
    """Separable quadratic ``0.5 * sum_i ||y_i - c_i||^2`` with no rho."""
    c = np.asarray(c, dtype=float)

    def block(i):
        def grad(Y):
            return Y[i] - c[i]

        return grad, lambda v, tau: v, lambda Y, g: float(np.linalg.norm(g))

    return BlockObjective(
        L=np.ones(c.shape[0]),
        smooth_grad=lambda Y: Y - c,
        prox_all=lambda V: V,
        blocks=[block(i) for i in range(c.shape[0])],
        value=lambda Y: 0.5 * float(np.sum((Y - c) ** 2)),
    )


def sparse_group_objective(rng, N=3, n=5, regs=None):
    """Random strongly convex composite with per-block sparse-group terms,
    ``regs`` if given (``N`` fresh ones from ``rng`` if not)."""
    regs = [random_reg(rng, n) for _ in range(N)] if regs is None else regs
    targets = rng.standard_normal((N, n))
    Q = [rng.uniform(0.5, 2.0, size=n) for _ in range(N)]
    L = np.array([q.max() for q in Q])
    step = 1.0 / L

    def value(Y):
        smooth = 0.5 * sum(float(Q[i] @ (Y[i] - targets[i]) ** 2) for i in range(N))
        return sum((regs[i].value(Y[i]) for i in range(N)), smooth)

    def block(i):
        def grad(Y):
            return Q[i] * (Y[i] - targets[i])

        def residual(Y, g):
            return regs[i].subgrad_residual(1.0, g, Y[i])

        return grad, regs[i].prox, residual

    blocks = [block(i) for i in range(N)]
    return BlockObjective(
        L=L,
        smooth_grad=lambda Y: np.stack([grad(Y) for grad, _, _ in blocks]),
        prox_all=lambda V: np.stack(
            [regs[i].prox(V[i], step[i]) for i in range(N)]
        ),
        blocks=blocks,
        value=value,
    )


class TestBlockObjective:
    @pytest.mark.parametrize(
        "L", [[[1.0], [2.0]], 1.0, [], [1.0, 0.0], [1.0, -2.0], [1.0, np.nan]]
    )
    def test_curvature_constants_one_dimensional_and_positive(self, L):
        with pytest.raises(ValueError, match="1-D array of positive curvature"):
            replace(quadratic_objective(np.zeros((2, 1))), L=np.asarray(L))

    def test_block_count_is_the_length_of_L(self):
        assert quadratic_objective(np.zeros((4, 2))).num_blocks == 4

    def test_value_required_only_where_evaluated(self, rng):
        obj = replace(sparse_group_objective(rng), value=None)
        y0 = np.zeros((3, 5))
        assert ms_apg(obj, y0, max_iter=3).iterations == 3
        assert rbcd_run(obj, y0, 6, 0).iterations == 6
        for evaluate in (
            partial(ms_apg, obj, y0, max_iter=3, record_values=True),
            partial(arbcd_run, obj, y0, 0.5, 0.25, np.random.default_rng(0), 1.0),
            partial(level_set_constants, obj, y0, np.ones(3)),
        ):
            with pytest.raises(ValueError, match="which has no value"):
                evaluate()

    def test_blocks_are_required(self):
        # every solver's stopping test runs on them
        with pytest.raises(TypeError, match="blocks"):
            BlockObjective(L=np.ones(1), smooth_grad=lambda Y: Y, prox_all=lambda V: V)

    @pytest.mark.parametrize("run", [
        partial(rbcd_run, iters=6, seed=0),
        partial(arbcd_chain, iters=6, seed=0),
    ], ids=["rbcd_run", "arbcd_chain"])
    def test_blocks_required_by_the_randomized_runs(self, rng, run):
        # the runs check no blocks of their own: each runs on an objective with
        # one (grad, prox, residual) entry per block, and the objective cannot
        # be built with None, fewer or more entries
        obj = sparse_group_objective(rng)
        run(obj, np.zeros((3, 5)))
        for blocks in (None, obj.blocks[:2], [*obj.blocks, obj.blocks[0]]):
            with pytest.raises(ValueError, match="need one entry of blocks per curvature"):
                replace(obj, blocks=blocks)

    @pytest.mark.parametrize("shape", [(3, 1), (1,), (1, 1, 1)])
    @pytest.mark.parametrize("run", [
        partial(ms_apg, residual_target=1.0, max_iter=5),
        partial(rbcd_run, iters=5, seed=0, residual_target=1.0),
        partial(arbcd_chain, iters=5, seed=0, residual_target=1.0),
    ], ids=["ms_apg", "rbcd_run", "arbcd_chain"])
    def test_start_point_has_one_row_per_block(self, run, shape):
        # a 3-row start on a 1-block objective once ran: ms_apg stopped on
        # row 1 alone, and rbcd_run left rows 2-3 at zero
        obj = quadratic_objective(np.ones((1, 1)))
        with pytest.raises(ValueError, match=r"need a start point of shape \(1, n\), got"):
            run(obj, np.zeros(shape))


class TestResidualTest:
    """The randomized solvers' early-exit stopping test."""

    @staticmethod
    def recorded(residuals, exact=False, mapped=None):
        """Quadratic blocks at ``Y = 0`` whose residuals are ``residuals``,
        logging each block's prox step (the gate's input) and exact test
        apart.  By default the exact kernel returns ``residuals[j]`` and every
        gradient is 0, so no gate fires; ``mapped`` sets the gradients to
        ``-mapped[j]``, so block ``j``'s gradient mapping is ``mapped[j]``; with
        ``exact=True`` the gradients are ``-residuals[j]`` and the exact kernel
        is the objective's, so the prox is the prox of the ``rho`` it measures
        and the gate can fire."""
        calls = []
        if mapped is None:
            mapped = residuals if exact else np.zeros(len(residuals))
        c = np.array(mapped, dtype=float)[:, None]
        obj = quadratic_objective(c)

        def recording(j, prox, residual):
            def gate(v, tau):
                calls.append(("gate", j))
                return prox(v, tau)

            def test(Y, g):
                calls.append(("exact", j))
                return residual(Y, g) if exact else residuals[j]

            return gate, test

        blocks = [(grad, *recording(j, prox, residual))
                  for j, (grad, prox, residual) in enumerate(obj.blocks)]
        return replace(obj, blocks=blocks), calls

    @staticmethod
    def gates_then_exact(gates, exact=()):
        return [("gate", j) for j in gates] + [("exact", j) for j in exact]

    @staticmethod
    def counting_gradients(obj):
        """``obj`` with each block gradient logging its block in ``taken``."""
        taken = []

        def counting(j, grad):
            return lambda Y: taken.append(j) or grad(Y)

        blocks = [(counting(j, grad), prox, residual)
                  for j, (grad, prox, residual) in enumerate(obj.blocks)]
        return replace(obj, blocks=blocks), taken

    def test_stops_at_the_first_block_over_target_and_starts_there_next(self):
        obj, calls = self.recorded([0.1, 0.5, 0.9, 0.2])
        assert not obj.residual_reached(np.zeros((4, 1)), 0.6)
        # every gate passes, so the exact tests run, in the same order
        assert calls == self.gates_then_exact((0, 1, 2, 3), (0, 1, 2))
        calls.clear()
        assert not obj.residual_reached(np.zeros((4, 1)), 0.6)
        assert calls == self.gates_then_exact((2, 0, 1, 3), (2,))
        calls.clear()
        # only a passing test runs every exact test
        assert obj.residual_reached(np.zeros((4, 1)), 0.9)
        assert calls == self.gates_then_exact((2, 0, 1, 3), (2, 0, 1, 3))

    def test_a_firing_gate_skips_the_exact_test(self):
        obj, calls = self.recorded([0.1, 0.5, 0.9, 0.2], exact=True)
        assert not obj.residual_reached(np.zeros((4, 1)), 0.6)
        # block 2's gradient mapping 0.9 is over 0.6: no exact test at all
        assert calls == self.gates_then_exact((0, 1, 2))
        calls.clear()
        assert not obj.residual_reached(np.zeros((4, 1)), 0.6)
        assert calls == [("gate", 2)]
        calls.clear()
        # at the target the gate, less its slack, does not fire
        assert obj.residual_reached(np.zeros((4, 1)), 1.0)
        assert calls == self.gates_then_exact((2, 0, 1, 3), (2, 0, 1, 3))

    def test_a_gate_after_a_failing_exact_block_decides_alone(self):
        # block 0's gate passes but its exact residual 0.9 is over 0.6; block
        # 1's gradient mapping 0.9 fires its gate, so no exact test runs
        obj, calls = self.recorded([0.9, 0.9], mapped=[0.0, 0.9])
        assert not obj.residual_reached(np.zeros((2, 1)), 0.6)
        assert calls == self.gates_then_exact((0, 1))
        assert obj._failed == 1

    def test_an_early_exact_failure_takes_no_more_gradients_than_a_pass(self):
        obj, calls = self.recorded([0.9, 0.1, 0.1, 0.1])
        obj, taken = self.counting_gradients(obj)
        assert not obj.residual_reached(np.zeros((4, 1)), 0.6)
        assert calls == self.gates_then_exact((0, 1, 2, 3), (0,))
        failing = len(taken)
        taken.clear()
        assert obj.residual_reached(np.zeros((4, 1)), 1.0)
        assert failing == len(taken) == 4
        # a handed block takes no gradient of its own, failing or passing
        taken.clear()
        known = {2: (np.zeros(1), np.zeros(1))}
        assert not obj.residual_reached(np.zeros((4, 1)), 0.6, known)
        failing = len(taken)
        taken.clear()
        assert obj.residual_reached(np.zeros((4, 1)), 1.0, known)
        assert failing == len(taken) == 3

    def test_the_gate_leaves_room_for_rounding(self):
        # at L = 3 the mapping L ||y - (y - g / L)|| rounds above the residual
        # ||g||; at the target ||g|| only the slack keeps the gate from failing
        # a block whose exact test passes
        obj = replace(quadratic_objective([[0.1]]), L=np.array([3.0]))
        g = 1.0 - 0.1
        assert 3.0 * (1.0 - (1.0 - g / 3.0)) > g
        assert obj.residual_reached(np.ones((1, 1)), g)

    def test_nan_residual_fails(self):
        obj, calls = self.recorded([0.0, np.nan])
        assert not obj.residual_reached(np.zeros((2, 1)), 1.0)
        assert calls == self.gates_then_exact((0, 1), (0, 1))
        # a NaN gradient: the gate is NaN, so it does not fire, and the exact test fails
        obj, calls = self.recorded([0.0, np.nan], exact=True)
        assert not obj.residual_reached(np.zeros((2, 1)), 1.0)
        assert calls == self.gates_then_exact((0, 1), (0, 1))

    def test_a_nan_block_ahead_of_a_firing_gate_runs_no_exact_test(self):
        # block 0's NaN gradient leaves its gate quiet and block 1's gate
        # fires; block 0's exact kernel, which warns on NaN as numpy's
        # reductions can, never runs, so no RuntimeWarning is raised
        obj, calls = self.recorded([np.nan, 0.9], exact=True)
        grad, prox, residual = obj.blocks[0]

        def warning(Y, g):
            warnings.warn("invalid value encountered", RuntimeWarning)
            return residual(Y, g)

        obj = replace(obj, blocks=[(grad, prox, warning), obj.blocks[1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert not obj.residual_reached(np.zeros((2, 1)), 0.6)
        assert calls == self.gates_then_exact((0, 1))

    @pytest.mark.parametrize("residuals", [[np.nan, 0.0], [0.0, np.nan]])
    def test_stacked_test_fails_on_nan_in_any_position(self, residuals):
        # Python's max once skipped a NaN that was not first, so ms_apg
        # stopped with "residual" on [0.0, nan]
        obj, calls = self.recorded(residuals)
        assert not obj.residual_reached(np.zeros((2, 1)), 1.0)
        calls.clear()
        res = ms_apg(obj, np.ones((2, 1)), residual_target=1.0, max_iter=3)
        assert (res.stop_reason, res.iterations) == ("cap", 3)
        # ms_apg hands every row's prox step, so no block takes its own
        assert calls and {kind for kind, _ in calls} == {"exact"}

    def test_single_block_nan_fails(self):
        obj, _ = self.recorded([np.nan])
        assert not obj.residual_reached(np.zeros((1, 1)), 1.0)


class TestApg:
    def test_exact_step_on_quadratic(self):
        res = apg(
            smooth_grad=lambda x: x - 3.0,
            prox=lambda v, tau: v,
            residual=lambda g, x: float(np.linalg.norm(g)),
            lipschitz=1.0,
            x0=np.zeros(1),
            residual_target=1e-12,
            max_iter=10,
        )
        assert res.stop_reason == "residual"
        assert res.iterations == 2  # one prox step lands exactly at 3
        assert res.y == pytest.approx([3.0])

    def test_lasso_toy(self):
        reg = SparseGroupReg(0.5, 0.0, GroupPartition.contiguous(2, 2))
        b = np.array([1.0, 0.0])
        res = apg(
            smooth_grad=lambda x: x - b,
            prox=reg.prox,
            residual=lambda g, x: reg.subgrad_residual(1.0, g, x),
            lipschitz=1.0,
            x0=np.zeros(2),
            residual_target=1e-10,
            max_iter=200,
        )
        assert np.allclose(res.y, [0.5, 0.0], atol=1e-8)


class TestMsApg:
    def test_separable_quadratic_single_step(self):
        c = np.array([[1.0, -2.0], [0.5, 3.0]])
        res = ms_apg(quadratic_objective(c), np.zeros((2, 2)), residual_target=1e-12)
        assert res.stop_reason == "residual"
        assert np.allclose(res.y, c)

    def test_single_block_reduces_to_apg_bitwise(self, rng):
        reg = random_reg(rng, 5)
        target = rng.standard_normal(5)

        obj = BlockObjective(
            L=np.array([2.0]),
            smooth_grad=lambda Y: 2.0 * (Y - target),
            prox_all=lambda V: reg.prox(V[0], 0.5)[None, :],  # the step 1/L
            blocks=[(lambda Y: 2.0 * (Y[0] - target), reg.prox,
                     lambda Y, g: reg.subgrad_residual(1.0, g, Y[0]))],
        )
        res_ms = ms_apg(obj, np.zeros((1, 5)), residual_target=None, max_iter=60)
        res_apg = apg(
            smooth_grad=lambda x: 2.0 * (x - target),
            prox=reg.prox,
            residual=lambda g, x: reg.subgrad_residual(1.0, g, x),
            lipschitz=2.0,
            x0=np.zeros(5),
            residual_target=None,
            max_iter=60,
        )
        assert np.array_equal(res_ms.y[0], res_apg.y)

    def test_heterogeneous_steps_beat_single_worst_case_step(self):
        # blocks with curvatures 1 and 100: per-block steps reach a 1e-6 gap
        # in strictly fewer iterations than a single 1/100 step for all blocks
        c = np.array([[5.0], [5.0]])
        L = np.array([1.0, 100.0])

        def gap_after(obj, iters):
            res = ms_apg(obj, np.zeros((2, 1)), max_iter=iters)
            return obj.value(res.y)  # optimum value is 0 at y = c

        def curved(Lvec):
            Ld = np.asarray(Lvec, dtype=float)
            return BlockObjective(
                L=Ld,
                smooth_grad=lambda Y: Ld[:, None] * (Y - c),
                prox_all=lambda V: V,
                blocks=quadratic_objective(c).blocks,  # read by no test here
                value=lambda Y: 0.5 * float(np.sum(Ld[:, None] * (Y - c) ** 2)),
            )

        def first_below(L_steps, tol=1e-6):
            base = curved(L)
            obj = replace(base, L=np.asarray(L_steps, dtype=float))
            for iters in range(1, 400):
                res = ms_apg(obj, np.zeros((2, 1)), max_iter=iters)
                if base.value(res.y) <= tol:
                    return iters
            return 400

        assert first_below(L) < first_below([100.0, 100.0])

    def test_residual_stop_certifies_every_block(self, rng):
        obj = sparse_group_objective(rng)
        res = ms_apg(obj, np.zeros((3, 5)), residual_target=1e-6, max_iter=5000)
        assert res.stop_reason == "residual"
        G = obj.smooth_grad(res.y)
        for j, (_, _, residual) in enumerate(obj.blocks):
            assert residual(res.y, G[j]) <= 1e-6

    def test_nonfinite_gradient_aborts(self):
        obj = BlockObjective(
            L=np.array([1.0]),
            smooth_grad=lambda Y: np.full_like(Y, np.nan),
            prox_all=lambda V: V,
            blocks=quadratic_objective(np.zeros((1, 1))).blocks,
        )
        with pytest.raises(FloatingPointError):
            ms_apg(obj, np.zeros((1, 1)), max_iter=5)


class TestRestart:
    """``restart`` resets FISTA's momentum when the prox step points back
    along the last move (O'Donoghue and Candes 2015)."""

    def test_reset_makes_the_next_point_the_prox_step(self, rng):
        obj = sparse_group_objective(rng)
        points = []
        ms_apg(obj, np.zeros((3, 5)), max_iter=200, restart=True,
               callback=lambda ell, ybar, grad: points.append(
                   (ybar.copy(), obj.prox_all(ybar - grad / obj.L[:, None]))))
        y_prev, t, resets = np.zeros((3, 5)), 1.0, 0
        for (ybar, y), (ybar_next, _) in zip(points, points[1:]):
            if np.vdot(ybar - y, y - y_prev) > 0.0:
                t, resets = 1.0, resets + 1
                assert np.array_equal(ybar_next, y)
            t_next = fista_momentum(t)
            assert np.array_equal(ybar_next, y + ((t - 1.0) / t_next) * (y - y_prev))
            y_prev, t = y, t_next
        assert resets > 0

    def test_same_minimizer_in_fewer_iterations(self, rng):
        obj = sparse_group_objective(rng)
        y0 = np.zeros((3, 5))
        plain = ms_apg(obj, y0, residual_target=1e-12, max_iter=20_000)
        restarted = ms_apg(obj, y0, residual_target=1e-12, max_iter=20_000,
                           restart=True)
        assert plain.stop_reason == restarted.stop_reason == "residual"
        assert restarted.iterations < plain.iterations
        assert np.max(np.abs(restarted.y - plain.y)) <= 1e-8


def exact_max(obj, G, Y):
    """The largest block residual at the stacked gradient ``G``, NaN when one is."""
    return np.maximum.reduce([residual(Y, G[j]) for j, (_, _, residual) in enumerate(obj.blocks)])


def exact_test_apg(obj, y0, residual_target, max_iter, restart=False):
    """``ms_apg`` with the exact residual test at every iteration, before the
    prox step: the loop the gradient-mapping bound must decide like."""
    y_prev = np.array(y0, dtype=float)
    ybar, t, values = y_prev.copy(), 1.0, []
    for ell in range(1, max_iter + 1):
        grad = obj.smooth_grad(ybar)
        if residual_target is not None:
            if exact_max(obj, grad, ybar) <= residual_target:
                return ybar, ell, "residual", values
        y = obj.prox_all(ybar - grad / obj.L[:, None])
        values.append(obj.value(y))
        if ell == max_iter:
            return y, ell, "cap", values
        if restart and np.vdot(ybar - y, y - y_prev) > 0.0:
            t = 1.0
        t_next = fista_momentum(t)
        ybar = y + ((t - 1.0) / t_next) * (y - y_prev)
        t, y_prev = t_next, y


def subproblem(lam=0.3):
    """A DFAL subproblem of the benchmark's case-2 instance."""
    inst = generate_instance(2, "star", 5, 10, 10, 1)
    lip = np.array([p.loss.lipschitz for p in inst.nodes])
    stack = NodeStack(inst.nodes)
    xbar = 0.1 * np.random.default_rng(3).standard_normal(stack.shape)
    block_L = lam * lip + spectral_bounds(inst.graph)[0]
    return _subproblem_objective(inst.nodes, inst.graph, lam, xbar, block_L, stack)


def counting_residuals(obj):
    """``obj`` with the iterate of each exact block residual it runs logged in
    the returned list."""
    calls = []

    def counting(residual):
        def run(Y, g):
            calls.append(Y.tobytes())
            return residual(Y, g)

        return run

    return replace(obj, blocks=[(g, p, counting(r)) for g, p, r in obj.blocks]), calls


def staggered_objective(N=4, n=3):
    """Diagonal quadratics without ``rho``, block ``i``'s smallest curvature
    ``10^-(i+1)``: the blocks settle one after another, so the block with the
    largest gradient mapping changes as the iterations go on."""
    Q = np.array([np.geomspace(1.0, 10.0 ** -(i + 1), n) for i in range(N)])
    c = np.ones((N, n))
    def block(i):
        return lambda Y: Q[i] * (Y[i] - c[i]), lambda v, tau: v, lambda Y, g: np.linalg.norm(g)

    return BlockObjective(
        L=np.ones(N),
        smooth_grad=lambda Y: Q * (Y - c),
        prox_all=lambda V: V,
        blocks=[block(i) for i in range(N)],
        value=lambda Y: 0.5 * float(np.sum(Q * (Y - c) ** 2)),
    )


class TestBoundedStoppingTest:
    """``ms_apg`` runs the exact residual test only when no block's gradient
    mapping is over the target, and decides as the exact test at every
    iteration does: same iterations, stop reason, values and bits."""

    @pytest.mark.parametrize("restart", [False, True])
    @pytest.mark.parametrize("target", [1e-2, 1e-6, 1e-10])
    def test_same_decisions_as_the_exact_test(self, rng, target, restart):
        for obj, y0 in ((sparse_group_objective(rng), np.zeros((3, 5))),
                        (subproblem(), np.zeros((5, 100)))):
            res = ms_apg(obj, y0, residual_target=target, max_iter=3000,
                         record_values=True, restart=restart)
            y, iters, reason, values = exact_test_apg(obj, y0, target, 3000, restart)
            assert (res.iterations, res.stop_reason) == (iters, reason)
            assert np.array_equal(res.y, y)
            assert res.values == values

    def test_target_equal_to_a_reached_residual(self, rng):
        # the exact test passes at equality, where the bound is tightest
        for obj, y0 in ((sparse_group_objective(rng), np.zeros((3, 5))),
                        (subproblem(), np.zeros((5, 100)))):
            # with no target, the exact max of each iteration
            reached = []
            ms_apg(obj, y0, max_iter=400, callback=lambda ell, ybar, grad, obj=obj:
                   reached.append(exact_max(obj, grad, ybar)))
            for k in (1, 10, 100, 399):
                target = reached[k]
                res = ms_apg(obj, y0, residual_target=target, max_iter=400)
                y, iters, reason, _ = exact_test_apg(obj, y0, target, 400)
                assert (res.iterations, res.stop_reason) == (iters, "residual")
                assert iters <= k + 1
                assert np.array_equal(res.y, y)

    def test_nan_residual_never_stops(self, rng):
        obj = sparse_group_objective(rng)
        grad, prox, _ = obj.blocks[1]
        nan_obj = replace(obj, blocks=[obj.blocks[0], (grad, prox, lambda Y, g: np.nan),
                                       obj.blocks[2]])
        res = ms_apg(nan_obj, np.zeros((3, 5)), residual_target=1e3, max_iter=50)
        y, iters, reason, _ = exact_test_apg(nan_obj, np.zeros((3, 5)), 1e3, 50)
        assert (res.iterations, res.stop_reason) == (iters, reason) == (50, "cap")
        assert np.array_equal(res.y, y)

    @pytest.mark.parametrize("target", [1e-4, 1e-8])
    def test_exact_test_runs_on_few_iterations(self, target):
        # every block's bound must be within the target, not just one
        obj, calls = counting_residuals(subproblem())
        res = ms_apg(obj, np.zeros((5, 100)), residual_target=target, max_iter=5000)
        assert res.stop_reason == "residual"
        assert 0 < len(set(calls)) <= res.iterations / 100

    @pytest.mark.parametrize("restart", [False, True])
    def test_the_row_tried_first_moves(self, monkeypatch, restart):
        # the row tried first is the block that failed the last full test,
        # which runs only when that row is within the target
        obj, y0 = staggered_objective(), np.zeros((4, 3))
        failed, tests, reached = [], [], BlockObjective.residual_reached

        def counting(self, *args, **kwargs):
            tests.append(len(failed))
            return reached(self, *args, **kwargs)

        monkeypatch.setattr(BlockObjective, "residual_reached", counting)
        res = ms_apg(obj, y0, residual_target=1e-6, max_iter=20_000, record_values=True,
                     callback=lambda ell, ybar, grad: failed.append(obj._failed),
                     restart=restart)
        monkeypatch.undo()
        y, iters, reason, values = exact_test_apg(obj, y0, 1e-6, 20_000, restart)
        assert (res.iterations, res.stop_reason) == (iters, reason) == (iters, "residual")
        assert np.array_equal(res.y, y)
        assert res.values == values
        assert 3 <= len(tests) < iters / 50
        assert len(set(failed)) >= 2

    @pytest.mark.parametrize("restart", [False, True])
    def test_one_block_through_apg(self, rng, restart):
        node = small_node(rng, n=8, m=12)
        loss, reg = node.loss, node.reg
        step = 1.0 / np.float64(loss.lipschitz)
        residual = lambda Y, g: reg.subgrad_residual(1.0, g, Y[0])  # noqa: E731
        obj = BlockObjective(
            L=np.array([loss.lipschitz]),
            smooth_grad=lambda Y: loss.grad(Y[0])[None, :],
            prox_all=lambda V: reg.prox(V[0], step)[None, :],
            blocks=[(lambda Y: loss.grad(Y[0]), reg.prox, residual)],
            value=lambda Y: loss.value(Y[0]) + reg.value(Y[0]),
        )
        for target in (1e-3, 1e-7, 1e-11):
            res = apg(loss.grad, reg.prox, lambda g, x: reg.subgrad_residual(1.0, g, x),
                      loss.lipschitz, np.zeros(8), residual_target=target, max_iter=5000,
                      restart=restart)
            y, iters, reason, _ = exact_test_apg(obj, np.zeros((1, 8)), target, 5000, restart)
            assert (res.iterations, res.stop_reason) == (iters, reason) == (iters, "residual")
            assert np.array_equal(res.y, y[0])


class TestCounts:
    """The inner solvers read their counts once, before the first iteration:
    ``rbcd_run`` ran one event for ``True``, ``ms_apg`` ended in a TypeError
    from ``range`` at 2.5, and a count below the least ran none."""

    RUNS = {
        "ms_apg": lambda obj, v: ms_apg(obj, np.zeros((3, 5)), max_iter=v),
        "rbcd_run": lambda obj, v: rbcd_run(obj, np.zeros((3, 5)), v, 0),
        "arbcd_chain": lambda obj, v: arbcd_chain(obj, np.zeros((3, 5)), v, 0),
    }

    @pytest.mark.parametrize("value", [True, 2.5, np.float64(3), "3", None])
    @pytest.mark.parametrize("name", list(RUNS))
    def test_counts_are_integers(self, rng, name, value):
        key = "max_iter" if name == "ms_apg" else "iters"
        with pytest.raises(ValueError, match=f"{key} must be an integer, got"):
            self.RUNS[name](sparse_group_objective(rng), value)

    @pytest.mark.parametrize("name, low, message", [
        ("ms_apg", 1, "max_iter must be at least 1, got 0"),
        ("rbcd_run", 0, "iters must be nonnegative, got -1"),
        ("arbcd_chain", 0, "iters must be nonnegative, got -1"),
    ])
    def test_least_counts(self, rng, name, low, message):
        obj = sparse_group_objective(rng)
        with pytest.raises(ValueError, match=message):
            self.RUNS[name](obj, low - 1)
        assert self.RUNS[name](obj, np.int64(low)).iterations == low


class TestMomentum:
    def test_fista_start(self):
        assert fista_momentum(1.0) == pytest.approx((1 + np.sqrt(5)) / 2)

    def test_fista_growth_bound(self):
        t = 1.0
        for ell in range(1, 200):
            assert t >= (ell + 1) / 2 - 1e-12
            t = fista_momentum(t)

    def test_arbcd_single_block_start(self):
        assert arbcd_momentum(1.0, 1) == pytest.approx((1 + np.sqrt(5)) / 2)

    def test_arbcd_momentum_is_the_numpy_value_as_a_float(self):
        for N in (1, 2, 5, 20):
            t, n2 = 1.0, 2.0 * N
            for _ in range(300):
                t_next = arbcd_momentum(t, N)
                assert type(t_next) is float
                assert t_next == (1.0 + np.sqrt(1.0 + (n2 * t) ** 2)) / n2
                t = t_next

    def test_arbcd_momentum_increasing_and_linear(self):
        N = 4
        t = 1.0
        for ell in range(1, 500):
            t_next = arbcd_momentum(t, N)
            assert t_next > t
            assert 2 * N * t >= ell - 1e-9
            t = t_next


class TestRbcd:
    def test_single_block_matches_prox_gradient(self, rng):
        obj = sparse_group_objective(rng, N=1, n=4)
        y = np.zeros((1, 4))
        manual = y.copy()
        res = rbcd_run(obj, y, 30, 0)
        grad, prox, _ = obj.blocks[0]
        for _ in range(30):
            g = grad(manual)
            manual[0] = prox(manual[0] - g / obj.L[0], 1.0 / obj.L[0])
        assert np.array_equal(res.y, manual)

    def test_monotone_objective(self, rng):
        # a seeded run of k events is the first k events of a longer one
        obj = sparse_group_objective(rng)
        values = np.array([
            obj.value(rbcd_run(obj, np.zeros((3, 5)), k, 5).y)
            for k in range(1, 201)
        ])
        assert np.all(np.diff(values) <= 1e-12)

    def test_uniform_block_frequencies(self):
        N = 5
        obj = quadratic_objective(np.zeros((N, 1)))
        counts = rbcd_run(obj, np.zeros((N, 1)), 10_000, 11).activations
        freqs = counts / 10_000
        assert np.all(np.abs(freqs - 1 / N) <= 0.02)

    def test_probabilistic_budget(self, rng):
        # success frequency over seeds must reach the 1 - p guarantee when the
        # budget uses the complexity constant from a high-accuracy reference
        obj = sparse_group_objective(rng, N=3, n=4)
        y0 = np.zeros((3, 4))
        ref = ms_apg(obj, y0, residual_target=None, max_iter=20_000)
        phi_star = obj.value(ref.y)
        dist = float(np.sum(obj.L * np.sum((y0 - ref.y) ** 2, axis=1)))
        C = max(dist, obj.value(y0) - phi_star)
        alpha, p = 0.05, 0.2
        budget = int(np.ceil(2 * 3 * C / alpha * (1 + np.log(1 / p))))
        wins = 0
        for seed in range(20):
            res = rbcd_run(obj, y0, budget, seed)
            if obj.value(res.y) - phi_star <= alpha:
                wins += 1
        assert wins >= int((1 - p) * 20)


class TestArbcd:
    def test_candidate_at_start_equals_z0(self, rng):
        z0 = rng.standard_normal((3, 2))
        u = np.zeros_like(z0)
        assert np.array_equal(arbcd_candidate(z0, u, 1.0, 3), z0)

    def test_chain_zero_iterations_returns_start(self, rng):
        obj = sparse_group_objective(rng)
        z0 = rng.standard_normal((3, 5))
        res = arbcd_chain(obj, z0, 0, 0)
        assert np.array_equal(res.y, z0)

    def test_chain_at_cap_returns_the_last_candidate(self, rng):
        # the candidate once formed after every event, of which the cap read
        # the last
        obj = sparse_group_objective(rng, N=3, n=5)
        z0 = rng.standard_normal((3, 5))
        for iters in (1, 7, 40):
            z, u, t = z0.copy(), np.zeros_like(z0), 1.0
            sched = np.random.default_rng(9)
            for _ in range(iters):
                i = int(sched.integers(3))
                grad, prox, _ = obj.blocks[i]
                g = grad(arbcd_candidate(z, u, t, 3))
                z_new_i = prox(z[i] - (t / obj.L[i]) * g, t / obj.L[i])
                u[i] = u[i] + 3 * 3 * t * (1.0 - t) * (z_new_i - z[i])
                z[i] = z_new_i
                y = arbcd_candidate(z, u, t, 3)
                t = arbcd_momentum(t, 3)
            res = arbcd_chain(obj, z0, iters, 9)
            assert res.stop_reason == "cap" and res.iterations == iters
            assert np.array_equal(res.y, y)

    def test_restart_scheme_monte_carlo(self, rng):
        regs = [random_reg(rng, 4) for _ in range(3)]
        obj = sparse_group_objective(rng, N=3, n=4, regs=regs)
        z0 = np.zeros((3, 4))
        ref = ms_apg(obj, z0, residual_target=None, max_iter=20_000)
        phi_star = obj.value(ref.y)
        alpha, p = 0.05, 0.25
        wins = 0
        C = level_set_constants(obj, z0, [reg.coercivity for reg in regs])[1]
        for seed in range(20):
            chains = np.random.default_rng(seed)
            res = arbcd_run(obj, z0, alpha, p, chains, c_estimate=C)
            if obj.value(res.y) - phi_star <= alpha:
                wins += 1
        assert wins >= int((1 - p) * 20) - 2

    def test_restart_counts(self, rng):
        regs = [random_reg(rng, 3) for _ in range(2)]
        obj = sparse_group_objective(rng, N=2, n=3, regs=regs)
        z0 = np.zeros((2, 3))
        C = level_set_constants(obj, z0, [reg.coercivity for reg in regs])[1]
        assert C > 0
        res = arbcd_run(
            obj, z0, alpha=0.5, p=0.25, rng=np.random.default_rng(2),
            c_estimate=C,
        )
        restarts = int(np.ceil(np.log2(1 / 0.25)))
        chain = int(np.ceil(2 * 2 * np.sqrt(2 * C / 0.5)))
        assert res.iterations <= restarts * chain


class TestActivations:
    def test_ms_apg_activates_every_block_each_iteration(self, rng):
        obj = sparse_group_objective(rng, N=3, n=4)
        for target, stop in ((1e-6, "residual"), (None, "cap")):
            res = ms_apg(obj, np.zeros((3, 4)), residual_target=target, max_iter=300)
            assert res.stop_reason == stop
            assert np.array_equal(res.activations, np.full(3, res.iterations))

    def test_counts_cover_every_event(self, rng):
        obj = sparse_group_objective(rng, N=3, n=4)
        y0 = np.zeros((3, 4))
        runs = [
            rbcd_run(obj, y0, 50, 1),
            arbcd_chain(obj, y0, 50, 2),
            arbcd_run(obj, y0, alpha=0.5, p=0.25, rng=np.random.default_rng(3),
                      c_estimate=1.0),
        ]
        for res in runs:
            assert res.activations.shape == (3,)
            assert int(res.activations.sum()) == res.iterations

    def test_counts_follow_the_drawn_schedule(self):
        obj = quadratic_objective(np.zeros((4, 1)))
        res = rbcd_run(obj, np.zeros((4, 1)), 200, 8)
        drawn = schedule_ids(8, 200, 4)
        assert res.activations.tolist() == np.bincount(drawn, minlength=5)[1:].tolist()
