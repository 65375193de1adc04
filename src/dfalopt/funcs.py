"""Composite function library: Huber losses, sparse-group regularizers,
closed-form proximal maps, and the minimum-norm subgradient residual used as
the distributed stopping test.

Sparse-group kernels read a :class:`GroupPartition` as a segment layout: a
permutation ``perm`` of the coordinates under which every group is one
contiguous segment, plus the segment starts and sizes.  Group norms are then
one ``np.add.reduceat`` over the permuted squares, and a per-group factor
reaches its coordinates by ``np.repeat`` over the segment sizes.  The same
kernels serve one regularizer (:class:`SparseGroupReg`, one node's K groups
over ``n`` coordinates) and all nodes at once (:class:`NodeStack`, the N*K
groups of :meth:`GroupPartition.stacked` over the ``N*n`` coordinates of a
stacked iterate, with per-node weights), so each node has its own partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint cover of the coordinate indices ``[0, n)`` into K groups.

    Groups are stored as sorted 0-based index arrays, and listed in order as
    contiguous segments: ``x[perm]`` lists group 0's coordinates, then group
    1's, and so on; segment ``s`` holds ``sizes[s]`` coordinates from
    ``starts[s]`` on, and ``xp[inverse]`` undoes the gather.
    """

    n: int
    groups: tuple[np.ndarray, ...]
    perm: np.ndarray = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    inverse: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        groups = tuple(np.sort(np.asarray(g, dtype=int).reshape(-1)) for g in self.groups)
        sizes = np.array([g.size for g in groups], dtype=np.intp)
        if np.any(sizes == 0):
            raise ValueError("empty group")
        perm = np.concatenate(groups) if groups else np.zeros(0, dtype=int)
        if perm.size and (perm.min() < 0 or perm.max() >= self.n):
            raise ValueError(f"group index out of range for n={self.n}")
        counts = np.bincount(perm, minlength=self.n)
        if np.any(counts > 1):
            raise ValueError("groups overlap")
        if not np.all(counts):
            missing = np.flatnonzero(counts == 0)
            raise ValueError(f"indices not covered by any group: {missing.tolist()}")
        layout = dict(groups=groups, perm=perm, sizes=sizes,
                      starts=np.cumsum(sizes) - sizes, inverse=np.argsort(perm))
        for name, value in layout.items():
            object.__setattr__(self, name, value)

    @classmethod
    def contiguous(cls, n: int, group_size: int) -> "GroupPartition":
        if n % group_size != 0:
            raise ValueError("group size must divide n")
        return cls(n, tuple(np.arange(n).reshape(-1, group_size)))

    @classmethod
    def stacked(cls, parts: Sequence["GroupPartition"]) -> "GroupPartition":
        """Partition of the concatenated coordinates of ``parts``: part ``i``'s
        groups offset by the sizes of the parts before it."""
        offsets = np.cumsum([0] + [part.n for part in parts]).tolist()
        groups = [g + off for part, off in zip(parts, offsets) for g in part.groups]
        return cls(offsets[-1], tuple(groups))

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Flattened ``x`` in segment order."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {x.size}")
        return x[self.perm]

    def scatter(self, xp: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`gather` (flat result)."""
        return xp[self.inverse]

    def norms(self, xp: np.ndarray) -> np.ndarray:
        """Euclidean norm of each segment of a permuted vector."""
        return np.sqrt(np.add.reduceat(xp * xp, self.starts))

    def spread(self, per_segment: np.ndarray) -> np.ndarray:
        """Repeat one value per segment over the segment's coordinates."""
        return per_segment.repeat(self.sizes)


def _clip(x: np.ndarray, bound) -> np.ndarray:
    """``np.clip(x, -bound, bound)`` with less call overhead."""
    return np.minimum(np.maximum(x, -bound), bound)


# Kernels on permuted coordinates, helpers written out.  Weights are scalars or
# arrays: l1 weights per permuted coordinate, group weights ``thr`` and their
# floors ``max(thr, _TINY)`` per segment.  The shrink ``1 - thr / max(norm,
# floor)`` is exactly 0 where ``norm <= thr``, and 1 where ``norm == thr == 0``.
_TINY = np.finfo(float).tiny
_SMALL_NORM = 2.0**-500


def sparse_group_prox(part: GroupPartition, xp: np.ndarray, thr1, thr2, fl2) -> np.ndarray:
    """Prox of ``thr1 ||.||_1 + sum_s thr2_s ||._s||`` (Friedman, Hastie and
    Tibshirani), ``fl2`` the floors of ``thr2``: soft-threshold at ``thr1``,
    then shrink each segment toward zero by its norm; a segment whose
    thresholded norm is at most ``thr2`` maps to zero."""
    eta = xp - np.minimum(np.maximum(xp, -thr1), thr1)
    norms = np.sqrt(np.add.reduceat(eta * eta, part.starts))
    return eta * (1.0 - thr2 / np.maximum(norms, fl2)).repeat(part.sizes)


def sparse_group_min_norm(
    part: GroupPartition, gp: np.ndarray, xp: np.ndarray, lb1, lb2, fl2
) -> np.ndarray:
    """Minimum-norm element of ``d(lb1 ||.||_1 + sum_s lb2_s ||._s||)(x) + g``,
    ``fl2`` the floors of ``lb2``.

    The l1 part is ``lb1 sign(x_j)`` on a nonzero coordinate and the clipped
    ``-g_j`` on a zero one, which leaves ``v``.  A segment holding a nonzero
    coordinate adds ``lb2 x_s / ||x_s||`` to ``v``; on an all-zero segment
    the group part is the point of the ``lb2``-ball nearest to ``-v``, which
    leaves ``v`` shrunk by ``lb2``.  Zero tests are exact.  A nonzero segment
    of norm below ``_SMALL_NORM``, whose squares may underflow, takes its
    direction from the segment scaled by ``2**600``, which is exact.
    """
    zero, starts, sizes = xp == 0.0, part.starts, part.sizes
    v = gp + lb1 * np.sign(xp) - zero * np.minimum(np.maximum(gp, -lb1), lb1)
    all_zero = np.logical_and.reduceat(zero, starts)
    x_norms = np.maximum(np.sqrt(np.add.reduceat(xp * xp, starts)), all_zero)
    if np.minimum.reduce(x_norms, initial=np.inf) < _SMALL_NORM:
        xp = xp * np.where(x_norms < _SMALL_NORM, 2.0**600, 1.0).repeat(sizes)
        x_norms = np.maximum(np.sqrt(np.add.reduceat(xp * xp, starts)), all_zero)
    v_norms = np.sqrt(np.add.reduceat(v * v, starts))
    # 1 on a segment with a nonzero coordinate, even where v is NaN
    v_scale = 1.0 - lb2 * all_zero / np.fmax(v_norms, fl2)
    return v * v_scale.repeat(sizes) + xp * (lb2 / x_norms).repeat(sizes)


@dataclass(frozen=True)
class SparseGroupReg:
    """Sparse-group regularizer ``b1 * ||x||_1 + b2 * sum_k ||x_{g(k)}||_2``.

    Satisfies ``value(x) >= (b1 + b2) * ||x||_2``, so its coercivity constant
    is ``b1 + b2``; its subgradients are uniformly bounded by
    ``b1 * sqrt(n) + b2 * sqrt(K)``.
    """

    beta1: float
    beta2: float
    partition: GroupPartition

    def __post_init__(self) -> None:
        if not (0 <= self.beta1 < math.inf and 0 <= self.beta2 < math.inf):
            raise ValueError(f"not 0 <= beta < inf: got {self.beta1}, {self.beta2}")

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def coercivity(self) -> float:
        """Lower-bound slope tau with ``value(x) >= tau * ||x||_2``."""
        return self.beta1 + self.beta2

    def value(self, x: np.ndarray) -> float:
        part = self.partition
        xp = part.gather(x)
        return float(np.sum(self.beta1 * np.abs(xp)) + np.sum(self.beta2 * part.norms(xp)))

    def prox(self, xbar: np.ndarray, t: float) -> np.ndarray:
        """Exact minimizer of ``t * value(y) + 0.5 * ||y - xbar||^2``.

        Soft-threshold at ``t*b1``, then shrink each group toward zero by the
        group-norm factor; a group whose thresholded norm is zero maps to the
        zero block.
        """
        # "not > 0" also rejects NaN
        if not t > 0:
            raise ValueError(f"prox step must be positive, got {t}")
        part, thr1, thr2 = self.partition, t * self.beta1, t * self.beta2
        out = sparse_group_prox(part, part.gather(xbar), thr1, thr2, max(thr2, _TINY))
        return part.scatter(out)

    def min_norm_subgradient(
        self, lam: float, grad_f: np.ndarray, xbar: np.ndarray
    ) -> np.ndarray:
        """Minimum-norm element of ``lam * d(value)(xbar) + grad_f``.

        The zero/nonzero case split is on exact zeros; callers pass prox
        outputs (which produce exact zeros) or extrapolated points where the
        nonzero branch is safe.
        """
        part, lb2 = self.partition, lam * self.beta2
        out = sparse_group_min_norm(
            part, part.gather(grad_f), part.gather(xbar),
            lam * self.beta1, lb2, max(lb2, _TINY),
        )
        return part.scatter(out)

    def subgrad_residual(
        self, lam: float, grad_f: np.ndarray, xbar: np.ndarray
    ) -> float:
        """Norm of the minimum-norm composite subgradient at ``xbar``."""
        return float(np.linalg.norm(self.min_norm_subgradient(lam, grad_f, xbar)))


def huber_grad(
    A: np.ndarray, At: np.ndarray, b: np.ndarray, delta, x: np.ndarray
) -> np.ndarray:
    """Huber loss gradient ``At @ clip(A @ x - b, -delta, delta)``, with ``At``
    the transpose of ``A``; no checks, so callers validate shapes once."""
    return At @ np.minimum(np.maximum(A @ x - b, -delta), delta)


def huber_scalar(r: np.ndarray, delta: float) -> np.ndarray:
    """Huber penalty: quadratic within ``delta`` of zero, linear beyond."""
    a = np.abs(r)
    return np.where(a <= delta, 0.5 * r * r, delta * a - 0.5 * delta * delta)


@dataclass(frozen=True)
class HuberLoss:
    """Robust data-fit term ``sum_j huber(a_j @ x - b_j)``.

    The gradient is Lipschitz with constant ``sigma_max(A)^2``.
    """

    A: np.ndarray
    b: np.ndarray
    delta: float = 1.0

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.shape[0] != b.shape[0]:
            raise ValueError(f"A has {A.shape[0]} rows but b has {b.shape[0]} entries")
        if not 0 < self.delta < math.inf:
            raise ValueError(f"not 0 < delta < inf: got {self.delta}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    def _checked(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected x of shape ({self.n},), got {x.shape}")
        return x

    def _residual(self, x: np.ndarray) -> np.ndarray:
        return self.A @ self._checked(x) - self.b

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        r = self._residual(x)
        value = float(huber_scalar(r, self.delta).sum())
        grad = self.A.T @ np.clip(r, -self.delta, self.delta)
        return value, grad

    def value(self, x: np.ndarray) -> float:
        return float(huber_scalar(self._residual(x), self.delta).sum())

    def grad(self, x: np.ndarray) -> np.ndarray:
        return huber_grad(self.A, self.A.T, self.b, self.delta, self._checked(x))

    @cached_property
    def lipschitz(self) -> float:
        """Gradient Lipschitz constant ``sigma_max(A)^2``, by power iteration
        on first use."""
        return _sigma_max_power(self.A) ** 2


def _sigma_max_power(A: np.ndarray, tol: float = 1e-8, max_iter: int = 10_000) -> float:
    """Largest singular value by power iteration on ``A^T A``."""
    n = A.shape[1]
    if A.size == 0:
        return 0.0
    # a seeded random start is almost surely not orthogonal to the top
    # singular vector, and repeats exactly
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    w = A.T @ (A @ v)
    lam = 0.0
    for _ in range(max_iter):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        # the Rayleigh quotient's product is the next iterate's
        w = A.T @ (A @ v)
        lam_new = float(v @ w)
        if abs(lam_new - lam) <= tol * max(lam_new, 1e-30):
            return float(np.sqrt(lam_new))
        lam = lam_new
    return float(np.sqrt(lam))


@dataclass(frozen=True)
class NodeProblem:
    """One node's private composite objective: regularizer plus smooth loss."""

    reg: SparseGroupReg
    loss: HuberLoss

    def __post_init__(self) -> None:
        if self.reg.n != self.loss.n:
            raise ValueError("regularizer and loss dimensions disagree")

    @property
    def n(self) -> int:
        return self.reg.n

    def value(self, x: np.ndarray) -> float:
        return self.reg.value(x) + self.loss.value(x)


class NodeStack:
    """All N node problems over stacked ``(N, n)`` iterates, in one call each.

    The regularizers share one ``partition`` of the ``N*n`` flat coordinates
    (node ``i``'s groups, offset into its slice), with the l1 weight per
    coordinate and the group weight per segment, so each node keeps its own
    partition and weights.  The losses are an ``(N, m, n)``
    stack, zero-padded to the longest ``m``: a padded row has residual 0 and
    Huber threshold 0, so it adds nothing to the gradient or the value and
    is never inside the threshold.  Build it once per solve.
    """

    def __init__(self, nodes: Sequence[NodeProblem]):
        N, n = len(nodes), nodes[0].n
        if any(p.n != n for p in nodes):
            raise ValueError("node problems must share one dimension")
        self.shape = (N, n)
        self.partition = GroupPartition.stacked([p.reg.partition for p in nodes])
        num_segments = [len(p.reg.partition.groups) for p in nodes]
        self._seg_node = np.repeat(np.arange(N), num_segments)
        ends = np.cumsum(num_segments).tolist()
        self._node_segs = [slice(a, z) for a, z in zip([0] + ends, ends)]
        self._b1 = np.repeat([p.reg.beta1 for p in nodes], n)
        self._b2 = np.array([p.reg.beta2 for p in nodes])[self._seg_node]
        m = max(p.loss.num_rows for p in nodes)
        self._A = np.zeros((N, m, n))
        self._b, self._delta = np.zeros((N, m)), np.zeros((N, m))
        for i, p in enumerate(nodes):
            self._A[i, : p.loss.num_rows] = p.loss.A
            self._b[i, : p.loss.num_rows] = p.loss.b
            self._delta[i, : p.loss.num_rows] = p.loss.delta
        self._At = np.ascontiguousarray(self._A.transpose(0, 2, 1))

    def objective(self, X: np.ndarray) -> float:
        """``sum_i nodes[i].value(X[i])`` in node order, each term bit for bit
        where the nodes share one ``m``."""
        if X.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {X.shape}")
        part, (N, n) = self.partition, self.shape
        xp = X.take(part.perm)
        l1 = np.add.reduce((self._b1 * np.abs(xp)).reshape(N, n), axis=1)
        # np.add.reduceat would sum a node's groups in another order
        weighted = self._b2 * part.norms(xp)
        group = [np.add.reduce(weighted[segs]) for segs in self._node_segs]
        r = (self._A @ X[:, :, None])[:, :, 0] - self._b
        loss = np.add.reduce(huber_scalar(r, self._delta), axis=1)
        return sum((l1 + group + loss).tolist())

    def loss_grad(self, Y: np.ndarray) -> np.ndarray:
        """Rows ``A_i^T clip(A_i y_i - b_i, -delta_i, delta_i)``."""
        r = (self._A @ Y[:, :, None])[:, :, 0] - self._b
        return (self._At @ _clip(r, self._delta)[:, :, None])[:, :, 0]

    def prox_map(self, t: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """``V ->`` the stacked prox whose row ``i`` is
        ``nodes[i].reg.prox(V[i], t[i])``, with the thresholds of the steps
        ``t`` formed once for every call."""
        t = np.broadcast_to(np.asarray(t, dtype=float), self.shape[:1])
        if not np.all(t > 0):
            raise ValueError("prox steps must be positive")
        part, shape, perm = self.partition, self.shape, self.partition.perm
        thr1, thr2 = np.repeat(t, shape[1]) * self._b1, t[self._seg_node] * self._b2
        fl2 = np.maximum(thr2, _TINY)

        def prox(V: np.ndarray) -> np.ndarray:
            if V.shape != shape:
                raise ValueError(f"expected shape {shape}, got {V.shape}")
            out = sparse_group_prox(part, V.take(perm), thr1, thr2, fl2)
            return part.scatter(out).reshape(shape)

        return prox

    def residual_map(self, lam) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """``(G, Y) ->`` the array whose entry ``i`` is
        ``nodes[i].reg.subgrad_residual(lam[i], G[i], Y[i])`` (a scalar ``lam``
        serves every node), with the weights ``lam * beta`` formed once."""
        part, shape, perm = self.partition, self.shape, self.partition.perm
        lam = np.broadcast_to(np.asarray(lam, dtype=float), shape[:1])
        lb1, lb2 = np.repeat(lam, shape[1]) * self._b1, lam[self._seg_node] * self._b2
        fl2 = np.maximum(lb2, _TINY)

        def residuals(G: np.ndarray, Y: np.ndarray) -> np.ndarray:
            if G.shape != shape or Y.shape != shape:
                raise ValueError(f"expected shape {shape}, got {G.shape} and {Y.shape}")
            out = sparse_group_min_norm(part, G.take(perm), Y.take(perm), lb1, lb2, fl2)
            # segment order keeps each node's coordinates in its own row
            return np.sqrt(np.add.reduce(out.reshape(shape) ** 2, axis=1))

        return residuals
