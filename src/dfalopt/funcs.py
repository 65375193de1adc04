"""Composite function library: Huber losses, sparse-group regularizers,
closed-form proximal maps, and the minimum-norm subgradient residual used as
the distributed stopping test.

Sparse-group kernels work on a segment layout.  A :class:`SegmentLayout`
holds a permutation ``perm`` of the coordinates under which every group is
one contiguous segment, plus the segment starts and sizes.  Group norms are
then one ``np.add.reduceat`` over the permuted squares, and a per-group
factor reaches its coordinates by ``np.repeat`` over the segment sizes.  The
same kernels serve one regularizer (:class:`SparseGroupReg`, one node's K
segments over ``n`` coordinates) and all nodes at once (:class:`NodeStack`,
N*K segments over the ``N*n`` coordinates of a stacked iterate, with
per-node weights), so nodes may each have their own partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class SegmentLayout:
    """Coordinates permuted so that each group is one contiguous segment.

    ``x[perm]`` lists segment 0's coordinates, then segment 1's, and so on;
    segment ``s`` holds ``sizes[s]`` coordinates from ``starts[s]`` on.
    Every segment is nonempty.
    """

    __slots__ = ("perm", "sizes", "starts", "_inverse")

    def __init__(self, perm: np.ndarray, sizes: np.ndarray):
        self.perm = np.asarray(perm, dtype=np.intp)
        self.sizes = np.asarray(sizes, dtype=np.intp)
        self.starts = np.zeros(self.sizes.size, dtype=np.intp)
        np.cumsum(self.sizes[:-1], out=self.starts[1:])
        self._inverse = np.argsort(self.perm)

    @classmethod
    def stacked(cls, layouts: Sequence["SegmentLayout"]) -> "SegmentLayout":
        """Layout of the concatenated coordinate vectors of ``layouts``."""
        offsets = np.cumsum([0] + [lay.size for lay in layouts[:-1]])
        perm = np.concatenate([lay.perm + off for lay, off in zip(layouts, offsets)])
        return cls(perm, np.concatenate([lay.sizes for lay in layouts]))

    @property
    def size(self) -> int:
        return self.perm.size

    @property
    def num_segments(self) -> int:
        return self.sizes.size

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Flattened ``x`` in segment order."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.size:
            raise ValueError(f"expected {self.size} coordinates, got {x.size}")
        return x[self.perm]

    def scatter(self, xp: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`gather` (flat result)."""
        return xp[self._inverse]

    def norms(self, xp: np.ndarray) -> np.ndarray:
        """Euclidean norm of each segment of a permuted vector."""
        return np.sqrt(np.add.reduceat(xp * xp, self.starts))

    def spread(self, per_segment: np.ndarray) -> np.ndarray:
        """Repeat one value per segment over the segment's coordinates."""
        return np.repeat(per_segment, self.sizes)


_TINY = np.finfo(float).tiny


def _group_shrink(norms: np.ndarray, thr) -> np.ndarray:
    """Per-segment factor ``max(1 - thr / norm, 0)``.

    A segment with ``norm <= thr`` gets exactly 0 (``thr / thr == 1``); a
    zero-norm segment with ``thr == 0`` gets 1, harmless since it scales zeros.
    """
    return 1.0 - thr / np.maximum(np.maximum(norms, thr), _TINY)


def _clip(x: np.ndarray, bound) -> np.ndarray:
    """``np.clip(x, -bound, bound)`` with less call overhead."""
    return np.minimum(np.maximum(x, -bound), bound)


# Kernels on permuted coordinates.  Weights are scalars or arrays: the
# l1 weights per permuted coordinate, the group weights per segment.


def sparse_group_value(lay: SegmentLayout, xp: np.ndarray, b1, b2) -> float:
    """``sum b1 |x_j| + sum_s b2_s ||x_s||``."""
    return float(np.sum(b1 * np.abs(xp)) + np.sum(b2 * lay.norms(xp)))


def sparse_group_prox(lay: SegmentLayout, xp: np.ndarray, thr1, thr2) -> np.ndarray:
    """Prox of ``thr1 ||.||_1 + sum_s thr2_s ||._s||`` (Friedman, Hastie and
    Tibshirani): soft-threshold at ``thr1``, then shrink each segment toward
    zero by its norm; a segment whose thresholded norm is at most ``thr2``
    maps to zero."""
    eta = xp - _clip(xp, thr1)
    return eta * lay.spread(_group_shrink(lay.norms(eta), thr2))


def sparse_group_min_norm(
    lay: SegmentLayout, gp: np.ndarray, xp: np.ndarray, lb1, lb2
) -> np.ndarray:
    """Minimum-norm element of ``d(lb1 ||.||_1 + sum_s lb2_s ||._s||)(x) + g``.

    The l1 part is ``lb1 sign(x_j)`` on a nonzero coordinate and the clipped
    ``-g_j`` on a zero one, which leaves ``v``.  A segment holding a nonzero
    coordinate adds ``lb2 x_s / ||x_s||`` to ``v``; on an all-zero segment
    the group part is the point of the ``lb2``-ball nearest to ``-v``, which
    leaves ``v`` shrunk by ``lb2``.  Zero tests are exact.
    """
    zero = xp == 0.0
    v = gp + lb1 * np.sign(xp) - zero * _clip(gp, lb1)
    nonzero = np.logical_or.reduceat(~zero, lay.starts)
    x_norms = np.where(nonzero, lay.norms(xp), 1.0)
    v_scale = np.where(nonzero, 1.0, _group_shrink(lay.norms(v), lb2))
    return v * lay.spread(v_scale) + xp * lay.spread(lb2 / x_norms)


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint cover of the coordinate indices ``[0, n)`` into K groups.

    Groups are stored as sorted 0-based index arrays.  ``layout`` lists the
    groups in order as contiguous segments.
    """

    n: int
    groups: tuple[np.ndarray, ...]
    layout: SegmentLayout = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "layout", SegmentLayout(perm, sizes))

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @classmethod
    def single_group(cls, n: int) -> "GroupPartition":
        return cls(n, (np.arange(n),))

    @classmethod
    def contiguous(cls, n: int, group_size: int) -> "GroupPartition":
        if n % group_size != 0:
            raise ValueError("group size must divide n")
        return cls(n, tuple(np.arange(n).reshape(-1, group_size)))


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
        if self.beta1 < 0 or self.beta2 < 0:
            raise ValueError("regularization weights must be nonnegative")

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def coercivity(self) -> float:
        """Lower-bound slope tau with ``value(x) >= tau * ||x||_2``."""
        return self.beta1 + self.beta2

    def value(self, x: np.ndarray) -> float:
        lay = self.partition.layout
        return sparse_group_value(lay, lay.gather(x), self.beta1, self.beta2)

    def prox(self, xbar: np.ndarray, t: float) -> np.ndarray:
        """Exact minimizer of ``t * value(y) + 0.5 * ||y - xbar||^2``.

        Soft-threshold at ``t*b1``, then shrink each group toward zero by the
        group-norm factor; a group whose thresholded norm is zero maps to the
        zero block.
        """
        if t <= 0:
            raise ValueError(f"prox step must be positive, got {t}")
        lay = self.partition.layout
        out = sparse_group_prox(lay, lay.gather(xbar), t * self.beta1, t * self.beta2)
        return lay.scatter(out)

    def min_norm_subgradient(
        self, lam: float, grad_f: np.ndarray, xbar: np.ndarray
    ) -> np.ndarray:
        """Minimum-norm element of ``lam * d(value)(xbar) + grad_f``.

        The zero/nonzero case split is on exact zeros; callers pass prox
        outputs (which produce exact zeros) or extrapolated points where the
        nonzero branch is safe.
        """
        lay = self.partition.layout
        out = sparse_group_min_norm(
            lay, lay.gather(grad_f), lay.gather(xbar),
            lam * self.beta1, lam * self.beta2,
        )
        return lay.scatter(out)

    def subgrad_residual(
        self, lam: float, grad_f: np.ndarray, xbar: np.ndarray
    ) -> float:
        """Norm of the minimum-norm composite subgradient at ``xbar``."""
        return float(np.linalg.norm(self.min_norm_subgradient(lam, grad_f, xbar)))


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
    _sigma_max: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.shape[0] != b.shape[0]:
            raise ValueError(f"A has {A.shape[0]} rows but b has {b.shape[0]} entries")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_sigma_max", _sigma_max_power(A))

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    def _residual(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected x of shape ({self.n},), got {x.shape}")
        return self.A @ x - self.b

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        r = self._residual(x)
        value = float(huber_scalar(r, self.delta).sum())
        grad = self.A.T @ np.clip(r, -self.delta, self.delta)
        return value, grad

    def value(self, x: np.ndarray) -> float:
        return float(huber_scalar(self._residual(x), self.delta).sum())

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.A.T @ _clip(self._residual(x), self.delta)

    @property
    def lipschitz(self) -> float:
        """Gradient Lipschitz constant ``sigma_max(A)^2``."""
        return self._sigma_max ** 2


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
    lam = 0.0
    for _ in range(max_iter):
        w = A.T @ (A @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        w /= norm
        lam_new = float(w @ (A.T @ (A @ w)))
        if abs(lam_new - lam) <= tol * max(lam_new, 1e-30):
            return float(np.sqrt(lam_new))
        lam, v = lam_new, w
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


def objective_sum(nodes: Sequence[NodeProblem], x: np.ndarray) -> float:
    """``sum_i F_i(x_i)`` over the rows of the stacked ``x``, node by node."""
    return sum(p.value(x[i]) for i, p in enumerate(nodes))


class NodeStack:
    """All N node problems over stacked ``(N, n)`` iterates, in one call each.

    The regularizers share one segment layout over the ``N*n`` flat
    coordinates (node ``i``'s groups are segments of its slice), with the
    l1 weight per coordinate and the group weight per segment, so each node
    keeps its own partition and weights.  The losses are an ``(N, m, n)``
    stack, zero-padded to the longest ``m``: a padded row has residual 0 and
    adds nothing to the gradient.  Build it once per solve.
    """

    def __init__(self, nodes: Sequence[NodeProblem]):
        N, n = len(nodes), nodes[0].n
        if any(p.n != n for p in nodes):
            raise ValueError("node problems must share one dimension")
        layouts = [p.reg.partition.layout for p in nodes]
        self.shape = (N, n)
        self.layout = SegmentLayout.stacked(layouts)
        self._seg_node = np.repeat(np.arange(N), [lay.num_segments for lay in layouts])
        self._b1 = np.repeat([p.reg.beta1 for p in nodes], n)
        self._b2 = np.array([p.reg.beta2 for p in nodes])[self._seg_node]
        m = max(p.loss.num_rows for p in nodes)
        self._A = np.zeros((N, m, n))
        self._b = np.zeros((N, m))
        for i, p in enumerate(nodes):
            self._A[i, : p.loss.num_rows] = p.loss.A
            self._b[i, : p.loss.num_rows] = p.loss.b
        self._At = np.ascontiguousarray(self._A.transpose(0, 2, 1))
        self._delta = np.array([[p.loss.delta] for p in nodes])

    def loss_grad(self, Y: np.ndarray) -> np.ndarray:
        """Rows ``A_i^T clip(A_i y_i - b_i, -delta_i, delta_i)``."""
        r = (self._A @ Y[:, :, None])[:, :, 0] - self._b
        return (self._At @ _clip(r, self._delta)[:, :, None])[:, :, 0]

    def prox(self, V: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Row ``i`` is ``nodes[i].reg.prox(V[i], t[i])``."""
        t = np.broadcast_to(np.asarray(t, dtype=float), self.shape[:1])
        if np.any(t <= 0):
            raise ValueError("prox steps must be positive")
        lay = self.layout
        out = sparse_group_prox(
            lay, lay.gather(V), np.repeat(t, self.shape[1]) * self._b1,
            t[self._seg_node] * self._b2,
        )
        return lay.scatter(out).reshape(self.shape)

    def residuals(self, lam: float, G: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Entry ``i`` is ``nodes[i].reg.subgrad_residual(lam, G[i], Y[i])``."""
        lay = self.layout
        out = sparse_group_min_norm(
            lay, lay.gather(G), lay.gather(Y), lam * self._b1, lam * self._b2
        )
        # segment order keeps each node's coordinates in its own row
        return np.sqrt(np.sum(out.reshape(self.shape) ** 2, axis=1))
