"""Function library: Huber losses, sparse-group prox, min-norm subgradients."""

import math
import re

import numpy as np
import pytest

import dfalopt.funcs as funcs
from dfalopt import GroupPartition, HuberLoss, NodeProblem, SparseGroupReg
from dfalopt.bench import generate_instance
from dfalopt.dfal import _subproblem_objective
from dfalopt.funcs import NodeStack, huber_scalar
from dfalopt.solvers import arbcd_momentum
from conftest import random_partition, random_reg, small_node


class TestGroupPartition:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            GroupPartition(3, (np.array([0, 1]), np.array([1, 2])))

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="not covered"):
            GroupPartition(3, (np.array([0, 1]),))

    @pytest.mark.parametrize("group", [[1.5, 2.0], [True, False], ["1", "2"]])
    def test_indices_must_be_integers(self, group):
        # [1.5, 2] was once cast to the group [1, 2]
        got = re.escape(repr(np.array(group)))
        message = rf"groups\[1\] must be a nonempty 1-D list of integers, got {got}"
        with pytest.raises(ValueError, match=message):
            GroupPartition(4, (np.array([0, 3]), np.array(group)))

    def test_contiguous(self):
        part = GroupPartition.contiguous(6, 3)
        assert len(part.groups) == 2
        assert np.array_equal(part.groups[1], [3, 4, 5])
        with pytest.raises(ValueError, match="group size must divide n"):
            GroupPartition.contiguous(10, 3)


class TestHuber:
    def test_quadratic_branch(self):
        loss = HuberLoss(A=np.array([[1.0]]), b=np.array([0.0]), delta=1.0)
        value, grad = loss.value(np.array([0.5])), loss.grad(np.array([0.5]))
        assert value == pytest.approx(0.125)
        assert grad == pytest.approx([0.5])

    def test_linear_branch_clamps(self):
        loss = HuberLoss(A=np.array([[1.0]]), b=np.array([0.0]), delta=1.0)
        value, grad = loss.value(np.array([2.0])), loss.grad(np.array([2.0]))
        assert value == pytest.approx(1.5)
        assert grad == pytest.approx([1.0])

    def test_gradient_vanishes_at_interpolating_point(self, rng):
        A = rng.standard_normal((4, 6))
        x_true = rng.standard_normal(6)
        loss = HuberLoss(A=A, b=A @ x_true, delta=1.0)
        # zero residual is the global minimizer of a nonnegative loss
        assert np.linalg.norm(loss.grad(x_true)) <= 1e-8

    def test_dimension_mismatch(self):
        loss = HuberLoss(A=np.eye(2), b=np.zeros(2))
        with pytest.raises(ValueError):
            loss.value(np.zeros(3))
        with pytest.raises(ValueError):
            loss.grad(np.zeros(3))

    def test_bits_do_not_depend_on_the_memory_layout(self):
        # BLAS sums A.dot(x) in another order when x's stride is not 1: on
        # this seeded case the column view once gave other last bits than
        # its copy, in both the value and the gradient
        rng = np.random.default_rng(9)
        loss = HuberLoss(A=rng.standard_normal((1, 20)), b=np.zeros(1), delta=1.0)
        column = rng.standard_normal((20, 2))[:, -1]
        assert not column.flags.c_contiguous
        assert loss.value(column) == loss.value(column.copy())
        assert loss.grad(column).tobytes() == loss.grad(column.copy()).tobytes()
        with pytest.raises(ValueError, match=r"expected shape \(20,\), got \(\)"):
            loss.grad(np.float64(1.0))

    def test_rows_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HuberLoss(A=np.eye(2), b=np.zeros(3))

    @pytest.mark.parametrize("b", [[[1.0, 2.0, 3.0]], [[]]])
    def test_b_must_be_a_vector(self, b):
        # a one-row A once took a (1, 3) or (1, 0) b, which an instance file
        # with a nested b entry loaded
        message = rf"b must be a nonempty 1-D array of numbers, got {re.escape(str(b))}"
        with pytest.raises(ValueError, match=message):
            HuberLoss(A=np.ones((1, 2)), b=b)

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, np.inf])
    def test_delta_outside_zero_to_inf_rejected(self, delta):
        # a NaN delta was once accepted and failed only in the first solver
        # iteration, as a non-finite gradient
        with pytest.raises(ValueError, match=rf"delta must be in \(0, inf\), got {delta}"):
            HuberLoss(A=np.eye(2), b=np.zeros(2), delta=delta)

    @pytest.mark.parametrize("delta", [True, "0.5", None])
    def test_delta_must_be_a_number(self, delta):
        # True was once read as 1, and "0.5" ended in a TypeError
        with pytest.raises(ValueError, match=f"delta must be a number, got {delta!r}"):
            HuberLoss(A=np.eye(2), b=np.zeros(2), delta=delta)

    def test_finite_differences(self, rng):
        A = rng.standard_normal((5, 4))
        loss = HuberLoss(A=A, b=rng.standard_normal(5), delta=1.0)
        h = 1e-6
        for _ in range(100):
            x = rng.standard_normal(4) * 2
            grad = loss.grad(x)
            fd = np.empty(4)
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                fd[i] = (loss.value(x + e) - loss.value(x - e)) / (2 * h)
            denom = max(np.linalg.norm(grad), 1.0)
            assert np.linalg.norm(fd - grad) / denom <= 1e-6

    def test_value_grad_is_value_and_grad(self, rng):
        # value_grad is kept only for benchmark/spans.py, on the live kernels
        loss = HuberLoss(A=rng.standard_normal((5, 4)), b=rng.standard_normal(5), delta=0.7)
        x = rng.standard_normal(4) * 2
        value, grad = loss.value_grad(x)
        assert value == loss.value(x)
        assert np.array_equal(grad, loss.grad(x))

    def test_descent_lemma(self, rng):
        A = rng.standard_normal((5, 4))
        loss = HuberLoss(A=A, b=rng.standard_normal(5), delta=1.0)
        L = loss.lipschitz
        for _ in range(1000):
            x = rng.standard_normal(4) * 3
            y = rng.standard_normal(4) * 3
            fx, gx = loss.value(x), loss.grad(x)
            bound = fx + gx @ (y - x) + 0.5 * L * np.sum((y - x) ** 2)
            assert loss.value(y) <= bound + 1e-9


class TestLipschitz:
    def test_scalar(self):
        loss = HuberLoss(A=np.array([[2.0]]), b=np.array([0.0]))
        assert loss.lipschitz == pytest.approx(4.0)

    def test_identity(self):
        loss = HuberLoss(A=np.eye(3), b=np.zeros(3))
        assert loss.lipschitz == pytest.approx(1.0)

    def test_matches_svd_oracle(self, rng):
        A = rng.standard_normal((5, 8))
        loss = HuberLoss(A=A, b=np.zeros(5))
        sigma = np.linalg.svd(A, compute_uv=False)[0]
        assert loss.lipschitz == pytest.approx(sigma**2, rel=1e-12)

    def test_close_top_singular_values_neither_short_nor_label_dependent(self, rng):
        # sigma_2 / sigma_1 = 0.999: a power iteration stopped at a relative
        # change of 1e-8 fell 2.5e-6 short, and its start vector was drawn in
        # coordinate order
        U = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        V = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        A = U @ np.diag([1.0, 0.999, 0.5, 0.3, 0.2, 0.1]) @ V[:6]
        L = HuberLoss(A=A, b=np.zeros(6)).lipschitz
        assert L >= np.linalg.svd(A, compute_uv=False)[0] ** 2 * (1 - 1e-13)
        perm = rng.permutation(8)
        renamed = HuberLoss(A=A[:, perm], b=np.zeros(6)).lipschitz
        assert renamed == pytest.approx(L, rel=1e-14)

    def test_constant_computed_on_first_use_only(self, rng):
        # the stacked loss of the case-1 reference never reads it
        loss = HuberLoss(A=rng.standard_normal((4, 3)), b=np.zeros(4))
        assert "lipschitz" not in loss.__dict__
        L = loss.lipschitz
        assert loss.__dict__["lipschitz"] == L


class TestProx:
    def test_identity_when_weights_zero(self, rng):
        reg = SparseGroupReg(0.0, 0.0, GroupPartition.contiguous(4, 4))
        x = rng.standard_normal(4)
        assert np.allclose(reg.prox(x, 1.0), x)

    def test_two_entry_example(self):
        reg = SparseGroupReg(1.0, 1.0, GroupPartition.contiguous(2, 2))
        out = reg.prox(np.array([3.0, -1.0]), 1.0)
        assert np.allclose(out, [1.0, 0.0])

    def test_zero_block_convention(self):
        reg = SparseGroupReg(1.0, 1.0, GroupPartition.contiguous(2, 2))
        out = reg.prox(np.array([0.5, 0.5]), 1.0)
        assert np.array_equal(out, [0.0, 0.0])

    @pytest.mark.parametrize("betas", [
        (-1.0, 1.0), (1.0, -1.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 0.0),
        (0.0, np.inf),
    ])
    def test_weights_outside_zero_to_inf_rejected(self, betas):
        # a NaN beta1 was once accepted and surfaced from DfalParams as a
        # nonpositive schedule start
        bad = "beta1" if not 0 <= betas[0] < np.inf else "beta2"
        value = betas[bad == "beta2"]
        with pytest.raises(ValueError, match=rf"{bad} must be in \[0, inf\), got {value}"):
            SparseGroupReg(*betas, GroupPartition.contiguous(2, 2))

    @pytest.mark.parametrize("betas, name", [
        ((True, 0.5), "beta1"), ((0.5, False), "beta2"), (("0.5", 0.5), "beta1"),
        ((0.5, None), "beta2"),
    ])
    def test_weights_must_be_numbers(self, betas, name):
        # a bool was once read as 0 or 1, and "0.5" ended in a TypeError
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            SparseGroupReg(*betas, GroupPartition.contiguous(2, 2))

    def test_numpy_weights_accepted(self):
        reg = SparseGroupReg(np.float64(0.5), np.int64(1), GroupPartition.contiguous(2, 2))
        assert reg.coercivity == 1.5

    def test_nonpositive_step_rejected(self):
        reg = SparseGroupReg(1.0, 1.0, GroupPartition.contiguous(2, 2))
        with pytest.raises(ValueError):
            reg.prox(np.zeros(2), 0.0)

    def test_nan_step_rejected(self):
        # "t <= 0" is false for NaN, which once returned an all-NaN point
        reg = SparseGroupReg(1.0, 1.0, GroupPartition.contiguous(2, 2))
        with pytest.raises(ValueError, match="prox step must be positive, got nan"):
            reg.prox(np.ones(2), np.nan)

    def test_stacked_nan_step_rejected(self, rng):
        # one NaN entry of t once gave a NaN row
        nodes = [small_node(rng, n=4) for _ in range(3)]
        with pytest.raises(ValueError, match="prox steps must be positive"):
            NodeStack(nodes).prox_map(np.array([1.0, np.nan, 1.0]))(np.ones((3, 4)))

    def test_prox_optimality_residual(self, rng):
        # optimality: 0 in d(t*rho)(out) + (out - xbar), so the min-norm
        # subgradient with grad_f = (out - xbar)/t and lam = 1 must vanish
        for _ in range(500):
            n = int(rng.integers(2, 8))
            reg = random_reg(rng, n)
            xbar = rng.standard_normal(n) * 3
            t = float(rng.uniform(0.1, 2.0))
            out = reg.prox(xbar, t)
            res = reg.subgrad_residual(1.0, (out - xbar) / t, out)
            assert res <= 1e-8


class TestSubgradResidual:
    def test_scalar_zero_point_absorbed(self):
        reg = SparseGroupReg(1.0, 0.5, GroupPartition.contiguous(1, 1))
        res = reg.subgrad_residual(1.0, np.array([0.5]), np.array([0.0]))
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_scalar_nonzero_point(self):
        reg = SparseGroupReg(1.0, 1.0, GroupPartition.contiguous(1, 1))
        res = reg.subgrad_residual(1.0, np.array([0.0]), np.array([2.0]))
        assert res == pytest.approx(2.0)

    def test_matches_projection_oracle(self, rng):
        # independent oracle: min over pi in the l1 subdifferential box and
        # omega in the group-norm ball/singleton by projected minimization,
        # run for all cases at once, each zero-padded to 6 coordinates
        res, b1, b2 = np.zeros(200), np.zeros(200), np.zeros(200)
        g, x = np.zeros((200, 6)), np.zeros((200, 6))
        for k in range(200):
            n = int(rng.integers(1, 7))
            reg = random_reg(rng, n, num_groups=1)
            lam = float(rng.uniform(0.2, 2.0))
            x[k, :n] = rng.standard_normal(n)
            x[k, :n][rng.random(n) < 0.4] = 0.0
            g[k, :n] = rng.standard_normal(n)
            res[k] = reg.subgrad_residual(lam, g[k, :n], x[k, :n])
            b1[k], b2[k] = lam * reg.beta1, lam * reg.beta2
        oracle = _min_norm_oracle(b1, b2, g, x)
        assert np.all(res <= oracle + 1e-6)
        assert np.all(oracle <= res + 1e-6)

    @pytest.mark.parametrize("tiny", [1e-160, 1e-200, 1e-310])
    def test_tiny_group_keeps_its_direction(self, tiny):
        # the group part lb2 x_s / ||x_s|| does not change when x_s is scaled
        # by a power of two, though the squares of the tiny x_s underflow
        reg = SparseGroupReg(0.3, 0.5, GroupPartition.contiguous(6, 3))
        g = np.array([0.1, -0.2, 0.05, 0.4, -0.3, 0.2])
        x = np.array([tiny, -2 * tiny, 0.0, 0.5, 0.0, -1.0])
        scaled = x * np.array([2.0**600] * 3 + [1.0] * 3)
        res = reg.subgrad_residual(0.7, g, x)
        assert res == reg.subgrad_residual(0.7, g, scaled)
        assert np.isfinite(res)


def _min_norm_oracle(b1, b2, grad_f, x, iters=4000):
    """Projected-gradient search for the min-norm composite subgradient of
    each row, for one group per row with weights ``b1[k]``, ``b2[k]``.  A
    coordinate with ``x = grad_f = 0`` stays exactly 0, so zero padding
    changes no row's result."""
    b1, b2 = b1[:, None], b2[:, None]
    pi = np.clip(-grad_f, -b1, b1)
    omega = np.zeros_like(x)
    nz = x != 0.0
    # with a nonzero coordinate the group part is the singleton b2 x/||x||
    on_sphere = nz.any(axis=1, keepdims=True)
    x_norm = np.linalg.norm(x, axis=1, keepdims=True)
    fixed_omega = b2 * x / np.where(on_sphere, x_norm, 1.0)
    for _ in range(iters):
        v = pi + omega + grad_f
        pi = pi - 0.4 * v
        # project pi onto the l1 subdifferential at x
        pi = np.where(nz, b1 * np.sign(x), np.clip(pi, -b1, b1))
        omega = omega - 0.4 * v
        # project omega onto the group-norm subdifferential (single group)
        norm = np.linalg.norm(omega, axis=1, keepdims=True)
        ball = np.where(norm > b2, omega * (b2 / np.where(norm > b2, norm, 1.0)), omega)
        omega = np.where(on_sphere, fixed_omega, ball)
    return np.linalg.norm(pi + omega + grad_f, axis=1)


class TestValues:
    def test_zero_point(self):
        reg = SparseGroupReg(1.0, 2.0, GroupPartition.contiguous(3, 3))
        assert reg.value(np.zeros(3)) == 0.0

    def test_direct_formula(self):
        reg = SparseGroupReg(1.0, 2.0, GroupPartition.contiguous(2, 2))
        assert reg.value(np.array([1.0, -1.0])) == pytest.approx(2 + 2 * np.sqrt(2))

    def test_naive_summation_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            reg = random_reg(rng, n)
            x = rng.standard_normal(n)
            naive = reg.beta1 * sum(abs(v) for v in x) + reg.beta2 * sum(
                np.sqrt(sum(x[i] ** 2 for i in g)) for g in reg.partition.groups
            )
            assert reg.value(x) == pytest.approx(naive, abs=1e-12)

    def test_coercivity_bound(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            reg = random_reg(rng, n)
            x = rng.standard_normal(n) * 5
            assert reg.value(x) >= reg.coercivity * np.linalg.norm(x) - 1e-12

    def test_composite_value(self, rng):
        A = rng.standard_normal((3, 4))
        node = NodeProblem(
            reg=SparseGroupReg(0.3, 0.6, GroupPartition.contiguous(4, 4)),
            loss=HuberLoss(A=A, b=rng.standard_normal(3)),
        )
        x = rng.standard_normal(4)
        assert node.value(x) == pytest.approx(
            node.reg.value(x) + node.loss.value(x)
        )
        with pytest.raises(ValueError, match="regularizer and loss dimensions disagree"):
            NodeProblem(reg=node.reg, loss=HuberLoss(A=np.ones((3, 5)), b=np.zeros(3)))


def _stack_nodes(rng, rows, n=24):
    """Nodes with their own partitions (1 to 12 groups) and weights, one per
    entry of ``rows``, with that many loss rows."""
    return [
        NodeProblem(
            reg=random_reg(rng, n, int(rng.integers(1, 13))),
            loss=HuberLoss(A=rng.standard_normal((m, n)),
                           b=3.0 * rng.standard_normal(m),
                           delta=float(rng.uniform(0.2, 2.0))),
        )
        for m in rows
    ]


class TestStackObjective:
    """``NodeStack.objective`` is the one sum of the node objectives."""

    def test_equal_rows_match_the_node_sum_bit_for_bit(self, rng):
        for N in (1, 2, 5, 9):
            nodes = _stack_nodes(rng, [10] * N)
            stack = NodeStack(nodes)
            for scale in (0.0, 0.1, 1.0, 10.0):
                X = scale * rng.standard_normal(stack.shape)
                X[rng.random(X.shape) < 0.3] = 0.0
                assert stack.objective(X) == sum(
                    p.value(X[i]) for i, p in enumerate(nodes))

    def test_shared_group_count_matches_the_node_sum_bit_for_bit(self, rng):
        # one group count K on every node, each with its own groups and weights:
        # the group norms are summed as rows of an (N, K) reshape
        for N in (2, 5, 9):
            for K in (1, 5, 9, 24):
                nodes = [NodeProblem(reg=random_reg(rng, 24, K),
                                     loss=HuberLoss(A=rng.standard_normal((10, 24)),
                                                    b=3.0 * rng.standard_normal(10),
                                                    delta=float(rng.uniform(0.2, 2.0))))
                         for _ in range(N)]
                stack = NodeStack(nodes)
                assert stack._node_segs is None
                for scale in (0.0, 1e-100, 0.1, 1.0, 10.0, 1e100):
                    X = scale * rng.standard_normal(stack.shape)
                    X[rng.random(X.shape) < 0.3] = 0.0
                    assert stack.objective(X) == sum(
                        p.value(X[i]) for i, p in enumerate(nodes))

    def test_mixed_group_counts_sum_per_node(self, rng):
        nodes = _stack_nodes(rng, [10] * 4)
        nodes[0] = NodeProblem(reg=random_reg(rng, 24, 3), loss=nodes[0].loss)
        nodes[1] = NodeProblem(reg=random_reg(rng, 24, 7), loss=nodes[1].loss)
        stack = NodeStack(nodes)
        assert stack._node_segs is not None
        for _ in range(10):
            X = rng.standard_normal(stack.shape)
            assert stack.objective(X) == sum(p.value(X[i]) for i, p in enumerate(nodes))

    def test_padded_rows_match_the_node_sum(self, rng):
        nodes = _stack_nodes(rng, [3, 17, 10, 1])
        stack = NodeStack(nodes)
        for _ in range(20):
            X = rng.standard_normal(stack.shape)
            expect = sum(p.value(X[i]) for i, p in enumerate(nodes))
            assert stack.objective(X) == pytest.approx(expect, rel=1e-14, abs=0.0)

    def test_wrong_shape_rejected(self, rng):
        stack = NodeStack(_stack_nodes(rng, [4, 4]))
        with pytest.raises(ValueError, match="expected shape"):
            stack.objective(np.zeros((2, 23)))


def test_huber_scalar_piecewise():
    r = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    expect = np.array([1.5, 0.125, 0.0, 0.125, 1.5])
    assert np.allclose(huber_scalar(r, 1.0), expect)


def test_huber_scalar_takes_its_constant_formed_once(rng):
    r = rng.standard_normal((4, 30)) * 10.0 ** rng.integers(-3, 4, (4, 30))
    delta = rng.uniform(0.1, 3.0, (4, 30))
    once = huber_scalar(r, delta, 0.5 * delta * delta)
    assert once.tobytes() == huber_scalar(r, delta).tobytes()


def _loop_value(reg, x):
    """Per-group loop form of the regularizer value."""
    groups = sum(float(np.linalg.norm(x[g])) for g in reg.partition.groups)
    return reg.beta1 * float(np.abs(x).sum()) + reg.beta2 * groups


def _loop_prox(reg, xbar, t):
    """Per-group loop form of the closed-form prox."""
    eta = np.sign(xbar) * np.maximum(np.abs(xbar) - t * reg.beta1, 0.0)
    out = np.zeros_like(eta)
    for g in reg.partition.groups:
        norm = np.linalg.norm(eta[g])
        if norm > 0.0:
            out[g] = eta[g] * max(1.0 - t * reg.beta2 / norm, 0.0)
    return out


def _loop_min_norm(reg, lam, grad_f, x):
    """Per-group loop form of the minimum-norm composite subgradient."""
    lb1, lb2 = lam * reg.beta1, lam * reg.beta2
    eta = -np.sign(grad_f) * np.minimum(np.abs(grad_f), lb1)
    out = np.empty_like(grad_f)
    for g in reg.partition.groups:
        xg = x[g]
        if np.any(xg != 0.0):
            pi = lb1 * np.sign(xg) + (1.0 - np.sign(np.abs(xg))) * eta[g]
            out[g] = pi + lb2 * xg / np.linalg.norm(xg) + grad_f[g]
        else:
            v = eta[g] + grad_f[g]
            vnorm = np.linalg.norm(v)
            out[g] = v - v * min(1.0, lb2 / vnorm) if vnorm > 0.0 else v
    return out


def _prox_kkt_violation(reg, xbar, t, y, steps=200):
    """Largest violation of the optimality system of
    ``t * value(y) + 0.5 * ||y - xbar||^2`` at the point ``y``.

    Per group g, with a = t*b1 and c = t*b2: a coordinate with y_j != 0
    needs ``(1 + mu) y_j + a sgn(y_j) = xbar_j`` and one with y_j = 0 needs
    ``|xbar_j| <= a``, where the group multiplier mu >= 0 satisfies
    ``mu ||y_g|| = c``.  Eliminating y_g gives ``mu e / (1 + mu) = c`` with
    ``e`` the norm of what the l1 box cannot absorb; mu comes from bisection
    on that scalar equation.  When ``e <= c`` the group must be zero.
    """
    a, c = t * reg.beta1, t * reg.beta2
    worst = 0.0
    for g in reg.partition.groups:
        xg, yg = xbar[g], y[g]
        e = float(np.linalg.norm(np.maximum(np.abs(xg) - a, 0.0)))
        if e <= c:
            worst = max(worst, float(np.abs(yg).max()))
            continue
        lo, hi = 0.0, 1.0
        while hi * e / (1.0 + hi) < c:
            hi *= 2.0
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if mid * e / (1.0 + mid) < c else (lo, mid)
        mu = 0.5 * (lo + hi)
        nz = yg != 0.0
        stationarity = (1.0 + mu) * yg[nz] + a * np.sign(yg[nz]) - xg[nz]
        worst = max(
            worst,
            float(np.abs(stationarity).max(initial=0.0)),
            float((np.abs(xg[~nz]) - a).max(initial=0.0)),
            abs(mu * float(np.linalg.norm(yg)) - c),
        )
    return worst


def _edge_case_reg(rng, n):
    """Random partition (singletons included) and weights, either may be 0."""
    part = random_partition(rng, n, int(rng.integers(1, n + 1)))
    b1 = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.05, 2.0))
    b2 = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.05, 2.0))
    return SparseGroupReg(b1, b2, part)


def _edge_case_point(rng, reg, scale=3.0):
    """Random point with exact zeros and whole zero groups."""
    x = rng.standard_normal(reg.n) * scale
    x[rng.random(reg.n) < 0.3] = 0.0
    for g in reg.partition.groups:
        if rng.random() < 0.3:
            x[g] = 0.0
    return x


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestVectorizedKernels:
    """Segment kernels against per-group loops and an independent KKT check."""

    def test_edge_case_generators_cover_the_cases(self):
        rng = np.random.default_rng(90)
        regs = [_edge_case_reg(rng, int(rng.integers(1, 9))) for _ in range(100)]
        assert any(r.beta1 == 0.0 for r in regs) and any(r.beta2 == 0.0 for r in regs)
        assert any(len(g) == 1 for r in regs for g in r.partition.groups)
        assert any(len(r.partition.groups) == r.n > 1 for r in regs)

    def test_prox_satisfies_kkt_by_bisection(self):
        rng = np.random.default_rng(91)
        worst = 0.0
        for _ in range(400):
            reg = _edge_case_reg(rng, int(rng.integers(1, 10)))
            xbar = _edge_case_point(rng, reg)
            t = float(rng.uniform(0.1, 2.0))
            worst = max(worst, _prox_kkt_violation(reg, xbar, t, reg.prox(xbar, t)))
        assert worst <= 1e-9

    def test_kkt_check_rejects_a_wrong_point(self):
        reg = SparseGroupReg(0.5, 0.5, GroupPartition.contiguous(3, 3))
        xbar = np.array([3.0, -2.0, 0.1])
        y = reg.prox(xbar, 1.0)
        assert _prox_kkt_violation(reg, xbar, 1.0, y) <= 1e-12
        assert _prox_kkt_violation(reg, xbar, 1.0, y * 1.01) > 1e-3
        assert _prox_kkt_violation(reg, xbar, 1.0, y + [0.0, 0.0, 1e-3]) > 1e-4

    def test_prox_matches_group_loop(self):
        rng = np.random.default_rng(92)
        for _ in range(400):
            reg = _edge_case_reg(rng, int(rng.integers(1, 13)))
            xbar = _edge_case_point(rng, reg)
            t = float(rng.uniform(0.05, 3.0))
            np.testing.assert_allclose(
                reg.prox(xbar, t), _loop_prox(reg, xbar, t), rtol=0, atol=1e-12
            )

    def test_min_norm_matches_group_loop(self):
        rng = np.random.default_rng(93)
        for _ in range(400):
            reg = _edge_case_reg(rng, int(rng.integers(1, 13)))
            x = _edge_case_point(rng, reg)
            if rng.random() < 0.5:
                x = reg.prox(x, float(rng.uniform(0.1, 2.0)))
            g = _edge_case_point(rng, reg, scale=float(rng.uniform(0.1, 4.0)))
            lam = float(rng.uniform(0.1, 2.0))
            np.testing.assert_allclose(
                reg.min_norm_subgradient(lam, g, x), _loop_min_norm(reg, lam, g, x),
                rtol=0, atol=1e-12,
            )

    def test_value_matches_group_loop(self):
        rng = np.random.default_rng(94)
        for _ in range(400):
            reg = _edge_case_reg(rng, int(rng.integers(1, 13)))
            x = _edge_case_point(rng, reg)
            assert reg.value(x) == pytest.approx(_loop_value(reg, x), rel=1e-12, abs=1e-12)

    def test_segment_layout_makes_groups_contiguous(self):
        part = GroupPartition(5, (np.array([3, 0]), np.array([4]), np.array([1, 2])))
        assert part.perm.tolist() == [0, 3, 4, 1, 2]
        assert part.starts.tolist() == [0, 2, 3] and part.sizes.tolist() == [2, 1, 2]
        assert part.segment.tolist() == [0, 2, 2, 0, 1]
        x = np.arange(5.0)
        np.testing.assert_allclose(part.norms(x[part.perm]), [3.0, 4.0, np.sqrt(5.0)])
        # two different partitions side by side: the second's indices are
        # offset by the first's n
        other = GroupPartition(5, (np.array([4, 1]), np.array([0, 2, 3])))
        both = GroupPartition.stacked([part, other])
        assert both.n == 10
        assert both.perm.tolist() == [0, 3, 4, 1, 2, 6, 9, 5, 7, 8]
        assert both.starts.tolist() == [0, 2, 3, 5, 7]
        assert both.sizes.tolist() == [2, 1, 2, 2, 3]
        assert both.inverse.tolist() == [0, 3, 4, 1, 2, 7, 5, 8, 9, 6]
        assert both.segment.tolist() == [0, 2, 2, 0, 1, 4, 3, 4, 4, 3]
        x = np.arange(10.0)
        assert np.array_equal(x[both.perm][both.inverse], x)

    def test_group_floor_folds_into_the_threshold(self):
        # the kernels take the floor max(thr, tiny), formed once where the
        # weights are bound, in place of the guard max(max(norm, thr), tiny)
        rng = np.random.default_rng(96)
        tiny = funcs._TINY
        special = np.array([0.0, tiny / 8, tiny, 3 * tiny, 1e-300, 1.0, np.inf, np.nan])
        for _ in range(300):
            norms = rng.exponential(size=40)
            pick = rng.random(40) < 0.5
            norms[pick] = rng.choice(special, size=pick.sum())
            per_segment = rng.choice(special, size=40)
            for thr in (*special.tolist(), float(rng.exponential()), per_segment):
                guard = np.maximum(np.maximum(norms, thr), tiny).tobytes()
                assert np.maximum(norms, np.maximum(thr, tiny)).tobytes() == guard
                if np.ndim(thr) == 0:
                    assert np.maximum(norms, max(thr, tiny)).tobytes() == guard


def _segment_order_prox(part, x, thr1, thr2, fl2):
    """The prox in segment order: gather, threshold, shrink each segment by
    its factor repeated over its size, scatter."""
    xp = x[part.perm]
    eta = xp - np.minimum(np.maximum(xp, -thr1), thr1)
    norms = np.sqrt(np.add.reduceat(eta * eta, part.starts))
    return (eta * (1.0 - thr2 / np.maximum(norms, fl2)).repeat(part.sizes))[part.inverse]


def _pin_point(rng, reg, thr1):
    """An edge-case point that also holds -0.0 and entries exactly at +-thr1."""
    x, pick = _edge_case_point(rng, reg), rng.random(reg.n)
    x[pick < 0.15] = -0.0
    return np.where(pick > 0.85, thr1 * np.sign(pick - 0.925), x)


def _scalar_prox(reg, x, t):
    """The prox with Python-float weights, formed on every call."""
    part, thr1, thr2 = reg.partition, t * reg.beta1, t * reg.beta2
    eta = x - np.minimum(np.maximum(x, -thr1), thr1)
    norms = np.sqrt(np.add.reduceat((eta * eta)[part.perm], part.starts))
    return eta * (1.0 - thr2 / np.maximum(norms, max(thr2, funcs._TINY)))[part.segment]


def _scalar_min_norm(reg, lam, g, x):
    """The minimum-norm element with Python-float weights, in segment order,
    scattered back."""
    part, lb1, lb2 = reg.partition, lam * reg.beta1, lam * reg.beta2
    gp, xp, starts, sizes = g[part.perm], x[part.perm], part.starts, part.sizes
    zero = xp == 0.0
    v = gp + lb1 * np.sign(xp) - zero * np.minimum(np.maximum(gp, -lb1), lb1)
    all_zero = np.logical_and.reduceat(zero, starts)
    x_norms = np.maximum(np.sqrt(np.add.reduceat(xp * xp, starts)), all_zero)
    if np.minimum.reduce(x_norms, initial=np.inf) < funcs._SMALL_NORM:
        xp = xp * np.where(x_norms < funcs._SMALL_NORM, 2.0**600, 1.0).repeat(sizes)
        x_norms = np.maximum(np.sqrt(np.add.reduceat(xp * xp, starts)), all_zero)
    v_norms = np.sqrt(np.add.reduceat(v * v, starts))
    v_scale = 1.0 - lb2 * all_zero / np.fmax(v_norms, max(lb2, funcs._TINY))
    out = v * v_scale.repeat(sizes) + xp * (lb2 / x_norms).repeat(sizes)
    return out[part.inverse]


def _segment_order_min_norm(part, g, x, lb1, lb2, fl2):
    """The minimum-norm element with per-coordinate ``lb1`` and per-segment
    ``lb2`` and ``fl2``, in segment order, scattered back."""
    gp, xp, lb1 = g[part.perm], x[part.perm], lb1[part.perm]
    starts, sizes = part.starts, part.sizes
    zero = xp == 0.0
    v = gp + lb1 * np.sign(xp) - zero * np.minimum(np.maximum(gp, -lb1), lb1)
    all_zero = np.logical_and.reduceat(zero, starts)
    x_norms = np.maximum(np.sqrt(np.add.reduceat(xp * xp, starts)), all_zero)
    if np.minimum.reduce(x_norms, initial=np.inf) < funcs._SMALL_NORM:
        xp = xp * np.where(x_norms < funcs._SMALL_NORM, 2.0**600, 1.0).repeat(sizes)
        x_norms = np.maximum(np.sqrt(np.add.reduceat(xp * xp, starts)), all_zero)
    v_norms = np.sqrt(np.add.reduceat(v * v, starts))
    v_scale = 1.0 - lb2 * all_zero / np.fmax(v_norms, fl2)
    out = v * v_scale.repeat(sizes) + xp * (lb2 / x_norms).repeat(sizes)
    return out[part.inverse]


def _alternating(rng, first):
    """``first`` four times, an arbcd-like run of steps ``t / L`` with ``t``
    from :func:`arbcd_momentum`, then ``first`` again, and a numpy copy of it."""
    L, t, out = float(rng.uniform(0.5, 50.0)), 1.0, [first] * 4
    for _ in range(6):
        out.append(t / L)
        t = arbcd_momentum(t, 5)
    return out + [first] * 3 + [np.float64(first)]


class TestBytePins:
    """The coordinate-order prox, the ``dot`` matvecs and the kernels whose
    scalar weights are 0-d arrays formed once per step, lam or subproblem
    against the forms they replaced, byte for byte, so that a flipped sign of
    zero shows; the step and lam alternate as the solvers' do."""

    def test_prox_equals_the_segment_order_form(self):
        rng = np.random.default_rng(98)
        signed_zeros = 0
        for _ in range(400):
            reg = _edge_case_reg(rng, int(rng.integers(1, 13)))
            t = float(rng.uniform(0.05, 3.0))
            thr1, thr2 = t * reg.beta1, t * reg.beta2
            x = _pin_point(rng, reg, thr1)
            y = reg.prox(x, t)
            old = _segment_order_prox(reg.partition, x, thr1, thr2, max(thr2, funcs._TINY))
            assert y.tobytes() == old.tobytes()
            signed_zeros += int(np.sum(np.signbit(y) & (y == 0.0)))
        assert signed_zeros > 0

    def test_stacked_prox_equals_the_segment_order_form(self):
        rng = np.random.default_rng(99)
        n, loss = 12, HuberLoss(A=np.ones((1, 12)), b=np.zeros(1))
        for _ in range(200):
            regs = [_edge_case_reg(rng, n) for _ in range(int(rng.integers(1, 6)))]
            stack = NodeStack([NodeProblem(reg, loss) for reg in regs])
            t = rng.uniform(0.05, 3.0, size=len(regs))
            thr1 = np.repeat([ti * reg.beta1 for ti, reg in zip(t, regs)], n)
            thr2 = np.concatenate([[ti * reg.beta2] * len(reg.partition.groups)
                                   for ti, reg in zip(t, regs)])
            V = np.stack([_pin_point(rng, reg, ti * reg.beta1) for ti, reg in zip(t, regs)])
            old = _segment_order_prox(
                stack.partition, V.reshape(-1), thr1, thr2, np.maximum(thr2, funcs._TINY))
            assert stack.prox_map(t)(V).tobytes() == old.tobytes()

    def test_stacked_min_norm_equals_the_segment_order_form(self):
        rng = np.random.default_rng(102)
        n, loss = 12, HuberLoss(A=np.ones((1, 12)), b=np.zeros(1))
        signed_zeros = small = 0
        for k in range(200):
            regs = [_edge_case_reg(rng, n) for _ in range(int(rng.integers(1, 6)))]
            stack = NodeStack([NodeProblem(reg, loss) for reg in regs])
            t = rng.uniform(0.05, 3.0, size=len(regs))
            lb1 = np.repeat([ti * reg.beta1 for ti, reg in zip(t, regs)], n)
            lb2 = np.concatenate([[ti * reg.beta2] * len(reg.partition.groups)
                                  for ti, reg in zip(t, regs)])
            X = np.stack([_pin_point(rng, reg, ti * reg.beta1) for ti, reg in zip(t, regs)])
            G = TestGradientMappingBound.gradient(rng, X.shape)
            pick = rng.random(G.shape)
            G[pick < 0.1] = -0.0
            G[pick > 0.9] = (lb1 * np.sign(pick - 0.95).reshape(-1)).reshape(G.shape)[pick > 0.9]
            if k % 2:  # one nonzero segment whose squares underflow
                group = regs[-1].partition.groups[0]
                X[-1, group] = 1e-200 * (1.0 + rng.random(group.size))
                small += 1
            out = funcs.sparse_group_min_norm(
                stack.partition, G.reshape(-1), X.reshape(-1), *stack.weights(t))
            old = _segment_order_min_norm(
                stack.partition, G.reshape(-1), X.reshape(-1), lb1, lb2,
                np.maximum(lb2, funcs._TINY))
            assert out.tobytes() == old.tobytes()
            signed_zeros += int(np.sum(np.signbit(out) & (out == 0.0)))
        assert signed_zeros > 0 and small == 100

    def test_huber_matvecs_equal_the_matmul_form(self):
        # A C-contiguous, At its transposed view, x a row of a stacked iterate
        rng = np.random.default_rng(100)
        for _ in range(300):
            m, n = int(rng.integers(1, 30)), int(rng.integers(1, 150))
            A, b = rng.standard_normal((m, n)), rng.standard_normal(m)
            delta = float(rng.uniform(0.1, 2.0))
            Y = rng.standard_normal((int(rng.integers(1, 6)), n))
            x = Y[-1]
            old = A.T @ np.minimum(np.maximum(A @ x - b, -delta), delta)
            assert funcs.huber_grad(A, A.T, b, -delta, delta, x).tobytes() == old.tobytes()
            # the event gradient's bounds, 0-d arrays
            lo, hi = np.array(-delta), np.array(delta)
            assert funcs.huber_grad(A, A.T, b, lo, hi, x).tobytes() == old.tobytes()
            loss = HuberLoss(A, b, delta)
            assert loss.grad(x).tobytes() == old.tobytes()
            assert loss.value(x) == float(huber_scalar(A @ x - b, delta).sum())

    def test_prox_and_min_norm_over_alternating_steps(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            reg = _edge_case_reg(rng, int(rng.integers(1, 13)))
            # the event step of rbcd, (1 / L_i) * lam, and lam itself
            step, lam = float(1.0 / rng.uniform(0.5, 50.0)) * 0.7, float(rng.uniform(0.1, 2.0))
            for t, lam_k in zip(_alternating(rng, step), _alternating(rng, lam)):
                x = _pin_point(rng, reg, t * reg.beta1)
                assert reg.prox(x, t).tobytes() == _scalar_prox(reg, x, t).tobytes()
                g = TestGradientMappingBound.gradient(rng, x.shape)
                expected = _scalar_min_norm(reg, lam_k, g, x).tobytes()
                assert reg.min_norm_subgradient(lam_k, g, x).tobytes() == expected
            # lam = 0.0 and -0.0 are equal, but the signs of their weights' zeros
            # differ, and show where g is -0.0 at a nonzero coordinate
            x = _edge_case_point(rng, reg)
            g = TestGradientMappingBound.gradient(rng, x.shape)
            g[rng.random(x.shape) < 0.5] = -0.0
            for lam_k in (0.0, -0.0, lam, 0.0, -0.0, -0.0, 0.0):
                expected = _scalar_min_norm(reg, lam_k, g, x).tobytes()
                assert reg.min_norm_subgradient(lam_k, g, x).tobytes() == expected
            # a bad value after a cached one of equal value is still refused
            reg.prox(x, 1.0)
            reg.min_norm_subgradient(1.0, g, x)
            for bad in (True, np.array([1.0]), np.nan, 0.0, math.inf):
                with pytest.raises(ValueError, match="prox step must"):
                    reg.prox(x, bad)
                if bad != 0.0:  # lam = 0 is allowed
                    with pytest.raises(ValueError, match="lam must"):
                        reg.min_norm_subgradient(bad, g, x)

    @pytest.mark.parametrize("topology, N, i, degree", [
        ("star", 5, 0, 4), ("star", 5, 3, 1), ("clique", 4, 2, 3)])
    def test_event_gradient(self, topology, N, i, degree):
        # a star's hub and a leaf, whose kernel skips the reduce, and a clique node
        rng = np.random.default_rng(103)
        inst = generate_instance(1, topology, N, 4, N, seed=7)
        graph, node = inst.graph, inst.nodes[i]
        row = graph.nbr_idx[graph.nbr_ptr[i]:graph.nbr_ptr[i + 1]]
        assert row.size == degree
        A, b, delta = node.loss.A, node.loss.b, node.loss.delta
        for lam in (1.0, 0.7, 0.49, 0.7):
            xbar = rng.standard_normal((N, 4 * N))
            grad = _subproblem_objective(inst.nodes, graph, lam, xbar, np.ones(N)).blocks[i][0]
            for _ in range(5):
                Y = rng.standard_normal((N, 4 * N))
                y = Y[i]
                q = lam * A.T.dot(np.minimum(np.maximum(A.dot(y) - b, -delta), delta))
                if degree == 1:
                    old = q + (y + xbar[i]) - (Y[row[0]] + xbar[row[0]])
                else:
                    old = q + degree * (y + xbar[i]) - np.add.reduce(Y.take(row, axis=0)
                                                                     + xbar[row])
                assert grad(Y).tobytes() == old.tobytes()


def _apg_slack(n, L, y, g):
    """``ms_apg``'s rounding slack: 16 (n + 8) unit roundoffs of
    ``L ||y|| + ||g||`` per block."""
    scale = L * np.linalg.norm(y, axis=-1) + np.linalg.norm(g, axis=-1)
    return 8.0 * (n + 8) * np.finfo(float).eps * scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestGradientMappingBound:
    """The gradient mapping ``L ||y - prox(y - g / L)||`` is at most the
    minimum-norm residual at ``y`` (Nesterov 2013), to within the slack that
    lets ``ms_apg`` skip the exact residual test when it is over the target.
    With ``beta2 = 0`` and no sign change the two are equal, and the rounded
    bound then often exceeds the rounded residual, so a zero slack would not
    do."""

    @staticmethod
    def gradient(rng, shape):
        g = 10.0 ** rng.uniform(-6.0, 2.0) * rng.standard_normal(shape)
        g[rng.random(shape) < 0.2] = 0.0
        return g

    def test_stacked_prox_and_residual(self):
        rng = np.random.default_rng(96)
        n, over = 12, 0
        for _ in range(300):
            N = int(rng.integers(1, 6))
            loss = HuberLoss(A=np.ones((1, n)), b=np.zeros(1))
            nodes = [NodeProblem(_edge_case_reg(rng, n), loss) for _ in range(N)]
            stack = NodeStack(nodes)
            lam = float(rng.uniform(0.1, 2.0))
            L = rng.uniform(0.5, 50.0, size=N)
            prox = stack.prox_map((1.0 / L) * lam)
            Y = np.stack([_edge_case_point(rng, p.reg) for p in nodes])
            if rng.random() < 0.5:
                Y = prox(Y)  # a prox output, as the iterates of ms_apg are
            G = self.gradient(rng, Y.shape)
            bound = L * np.linalg.norm(Y - prox(Y - G / L[:, None]), axis=1)
            residual = [p.reg.subgrad_residual(lam, G[i], Y[i]) for i, p in enumerate(nodes)]
            assert np.all(bound - _apg_slack(n, L, Y, G) <= residual)
            over += int(np.sum(bound > residual))
        assert over > 0

    def test_regularizer_prox_and_residual(self):
        # the case-1 reference's single block: SparseGroupReg at step 1/L
        rng = np.random.default_rng(97)
        over = 0
        for _ in range(400):
            reg = _edge_case_reg(rng, int(rng.integers(1, 13)))
            L = float(rng.uniform(0.5, 50.0))
            x = _edge_case_point(rng, reg)
            if rng.random() < 0.5:
                x = reg.prox(x, 1.0 / L)
            g = self.gradient(rng, x.shape)
            bound = L * np.linalg.norm(x - reg.prox(x - g / L, 1.0 / np.float64(L)))
            residual = reg.subgrad_residual(1.0, g, x)
            assert bound - _apg_slack(reg.n, L, x, g) <= residual
            over += int(bound > residual)
        assert over > 0
