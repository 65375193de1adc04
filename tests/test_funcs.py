"""Function library: Huber losses, sparse-group prox, min-norm subgradients."""

import numpy as np
import pytest

from dfalopt import GroupPartition, HuberLoss, NodeProblem, SparseGroupReg
from dfalopt.funcs import huber_scalar
from conftest import random_partition, random_reg


class TestGroupPartition:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            GroupPartition(3, (np.array([0, 1]), np.array([1, 2])))

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="not covered"):
            GroupPartition(3, (np.array([0, 1]),))

    def test_contiguous(self):
        part = GroupPartition.contiguous(6, 3)
        assert part.num_groups == 2
        assert np.array_equal(part.groups[1], [3, 4, 5])


class TestHuber:
    def test_quadratic_branch(self):
        loss = HuberLoss(A=np.array([[1.0]]), b=np.array([0.0]), delta=1.0)
        value, grad = loss.value_grad(np.array([0.5]))
        assert value == pytest.approx(0.125)
        assert grad == pytest.approx([0.5])

    def test_linear_branch_clamps(self):
        loss = HuberLoss(A=np.array([[1.0]]), b=np.array([0.0]), delta=1.0)
        value, grad = loss.value_grad(np.array([2.0]))
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
            loss.value_grad(np.zeros(3))

    def test_rows_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HuberLoss(A=np.eye(2), b=np.zeros(3))

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

    def test_descent_lemma(self, rng):
        A = rng.standard_normal((5, 4))
        loss = HuberLoss(A=A, b=rng.standard_normal(5), delta=1.0)
        L = loss.lipschitz
        for _ in range(1000):
            x = rng.standard_normal(4) * 3
            y = rng.standard_normal(4) * 3
            fx, gx = loss.value_grad(x)
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
        assert loss.lipschitz == pytest.approx(sigma**2, rel=1e-6)


class TestProx:
    def test_identity_when_weights_zero(self, rng):
        reg = SparseGroupReg(0.0, 0.0, GroupPartition.single_group(4))
        x = rng.standard_normal(4)
        assert np.allclose(reg.prox(x, 1.0), x)

    def test_two_entry_example(self):
        reg = SparseGroupReg(1.0, 1.0, GroupPartition.single_group(2))
        out = reg.prox(np.array([3.0, -1.0]), 1.0)
        assert np.allclose(out, [1.0, 0.0])

    def test_zero_block_convention(self):
        reg = SparseGroupReg(1.0, 1.0, GroupPartition.single_group(2))
        out = reg.prox(np.array([0.5, 0.5]), 1.0)
        assert np.array_equal(out, [0.0, 0.0])

    def test_nonpositive_step_rejected(self):
        reg = SparseGroupReg(1.0, 1.0, GroupPartition.single_group(2))
        with pytest.raises(ValueError):
            reg.prox(np.zeros(2), 0.0)

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
        reg = SparseGroupReg(1.0, 0.5, GroupPartition.single_group(1))
        res = reg.subgrad_residual(1.0, np.array([0.5]), np.array([0.0]))
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_scalar_nonzero_point(self):
        reg = SparseGroupReg(1.0, 1.0, GroupPartition.single_group(1))
        res = reg.subgrad_residual(1.0, np.array([0.0]), np.array([2.0]))
        assert res == pytest.approx(2.0)

    def test_matches_projection_oracle(self, rng):
        # independent oracle: min over pi in the l1 subdifferential box and
        # omega in the group-norm ball/singleton by projected minimization
        for _ in range(200):
            n = int(rng.integers(1, 7))
            reg = random_reg(rng, n, num_groups=1)
            lam = float(rng.uniform(0.2, 2.0))
            x = rng.standard_normal(n)
            x[rng.random(n) < 0.4] = 0.0
            g = rng.standard_normal(n)
            res = reg.subgrad_residual(lam, g, x)
            oracle = _min_norm_oracle(reg, lam, g, x)
            assert res <= oracle + 1e-6
            assert oracle <= res + 1e-6


def _min_norm_oracle(reg, lam, grad_f, x, iters=4000):
    """Projected-gradient search for the min-norm composite subgradient."""
    b1, b2 = lam * reg.beta1, lam * reg.beta2
    pi = np.clip(-grad_f, -b1, b1)
    omega = np.zeros_like(x)
    nz = x != 0.0
    for _ in range(iters):
        v = pi + omega + grad_f
        pi = pi - 0.4 * v
        # project pi onto the l1 subdifferential at x
        pi[nz] = b1 * np.sign(x[nz])
        pi[~nz] = np.clip(pi[~nz], -b1, b1)
        omega = omega - 0.4 * v
        # project omega onto the group-norm subdifferential (single group)
        if np.any(nz):
            omega = b2 * x / np.linalg.norm(x)
        else:
            norm = np.linalg.norm(omega)
            if norm > b2:
                omega *= b2 / norm
    return float(np.linalg.norm(pi + omega + grad_f))


class TestValues:
    def test_zero_point(self):
        reg = SparseGroupReg(1.0, 2.0, GroupPartition.single_group(3))
        assert reg.value(np.zeros(3)) == 0.0

    def test_direct_formula(self):
        reg = SparseGroupReg(1.0, 2.0, GroupPartition.single_group(2))
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
            reg=SparseGroupReg(0.3, 0.6, GroupPartition.single_group(4)),
            loss=HuberLoss(A=A, b=rng.standard_normal(3)),
        )
        x = rng.standard_normal(4)
        assert node.value(x) == pytest.approx(
            node.reg.value(x) + node.loss.value(x)
        )


def test_huber_scalar_piecewise():
    r = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    expect = np.array([1.5, 0.125, 0.0, 0.125, 1.5])
    assert np.allclose(huber_scalar(r, 1.0), expect)


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
        assert any(r.partition.num_groups == r.n > 1 for r in regs)

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
        reg = SparseGroupReg(0.5, 0.5, GroupPartition.single_group(3))
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
        lay = part.layout
        assert lay.perm.tolist() == [0, 3, 4, 1, 2]
        assert lay.starts.tolist() == [0, 2, 3] and lay.sizes.tolist() == [2, 1, 2]
        x = np.arange(5.0)
        assert np.array_equal(lay.scatter(lay.gather(x)), x)
        np.testing.assert_allclose(lay.norms(lay.gather(x)), [3.0, 4.0, np.sqrt(5.0)])
        with pytest.raises(ValueError):
            lay.gather(np.zeros(4))
