"""Composite function library: Huber losses, sparse-group regularizers,
closed-form proximal maps, and the minimum-norm subgradient residual used as
the distributed stopping test.

Sparse-group kernels read a :class:`GroupPartition` as a segment layout: a
permutation ``perm`` of the coordinates under which every group is one
contiguous segment, plus the segment starts and sizes.  Group norms are then
one ``np.add.reduceat`` over the permuted squares.  Both kernels, the prox and
the minimum-norm element, take and return coordinate order, a per-group factor
reaching each coordinate through its segment index ``segment``.  The same
kernels serve one regularizer (:class:`SparseGroupReg`, one node's K groups
over ``n`` coordinates) and all nodes at once (:class:`NodeStack`, the N*K
groups of :meth:`GroupPartition.stacked` over the ``N*n`` coordinates of a
stacked iterate, with the per-node weights of :meth:`NodeStack.weights`), so
each node has its own partition and a stacked row is its node's result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .checks import _NUMBER, _is, array, indices, integer, real


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint cover of the coordinate indices ``[0, n)`` into K groups.

    Groups are stored as sorted 0-based index arrays, and listed in order as
    contiguous segments: ``x[perm]`` lists group 0's coordinates, then group
    1's, and so on; segment ``s`` holds ``sizes[s]`` coordinates from
    ``starts[s]`` on, ``xp[inverse]`` undoes the permutation, and coordinate
    ``j`` lies in segment ``segment[j]``.
    """

    n: int
    groups: tuple[np.ndarray, ...]
    perm: np.ndarray = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    inverse: np.ndarray = field(init=False, repr=False, compare=False)
    segment: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        integer("n", self.n, 1)
        try:  # read before the cast to int, which would take 1.5 as 1
            groups = tuple(np.sort(indices(f"groups[{k}]", g)).astype(int, copy=False)
                           for k, g in enumerate(self.groups))
        except TypeError:  # from groups that are no sequence
            raise ValueError(f"groups must be a sequence, got {self.groups!r}") from None
        sizes = np.array([g.size for g in groups], dtype=np.intp)
        perm = np.concatenate(groups) if groups else np.zeros(0, dtype=int)
        if perm.size and (perm.min() < 0 or perm.max() >= self.n):
            raise ValueError(f"group index out of range for n={self.n}")
        # in range and without overlap, n indices cover [0, n); a shortfall is
        # found before counting up to n, which may not fit in memory
        if perm.size < self.n:
            missing = self.n - perm.size
            raise ValueError(f"not covered by any group: {missing} of n={self.n} indices")
        if np.any(np.bincount(perm, minlength=self.n) > 1):
            raise ValueError("groups overlap")
        inverse = np.argsort(perm)
        layout = dict(groups=groups, perm=perm, sizes=sizes, starts=np.cumsum(sizes) - sizes,
                      inverse=inverse, segment=np.arange(sizes.size).repeat(sizes)[inverse])
        for name, value in layout.items():
            object.__setattr__(self, name, value)

    @classmethod
    def contiguous(cls, n: int, group_size: int) -> "GroupPartition":
        if n % integer("group_size", group_size, 1) != 0:
            raise ValueError("group size must divide n")
        return cls(n, tuple(np.arange(n).reshape(-1, group_size)))

    @classmethod
    def stacked(cls, parts: Sequence["GroupPartition"]) -> "GroupPartition":
        """Partition of the concatenated coordinates of ``parts``: part ``i``'s
        groups offset by the sizes of the parts before it; a lone part is its own."""
        if len(parts) == 1:
            return parts[0]
        offsets = np.cumsum([0] + [part.n for part in parts]).tolist()
        groups = [g + off for part, off in zip(parts, offsets) for g in part.groups]
        return cls(offsets[-1], tuple(groups))

    def norms(self, xp: np.ndarray) -> np.ndarray:
        """Euclidean norm of each segment of a permuted vector."""
        return np.sqrt(np.add.reduceat(xp * xp, self.starts))


def _vector(x: np.ndarray, n: int) -> np.ndarray:
    """``x`` as a contiguous float array, which must have shape ``(n,)``: a strided view
    is copied, since BLAS sums ``A.dot(x)`` in another order when its stride is not 1."""
    x = np.asarray(x, dtype=float, order="C")
    if x.shape != (n,):
        raise ValueError(f"expected shape ({n},), got {x.shape}")
    return x


def _clip(x: np.ndarray, bound) -> np.ndarray:
    """``np.clip(x, -bound, bound)`` with less call overhead."""
    return np.minimum(np.maximum(x, -bound), bound)


# Kernels with their helpers written out, in coordinate order: a segment sum takes its
# terms through ``part.perm``, in segment order, and a per-segment factor goes back
# through ``part.segment``.  Weights are scalars or arrays: l1 weights, negated and
# plain, per coordinate, group weights ``thr`` and their floors ``max(thr, _TINY)`` per
# segment.  The shrink ``1 - thr / max(norm, floor)`` is exactly 0 where ``norm <=
# thr``, 1 where ``norm == thr == 0``.
# Hot callers pass scalars as 0-d float64 arrays: a ufunc converts a Python float on
# every call (0.60 against 0.39 us on 100 entries, numpy 2.4.6).  The bits are the same.
_TINY = np.finfo(float).tiny
_SMALL_NORM = 2.0**-500
_ONE = np.array(1.0)


def sparse_group_prox(part: GroupPartition, x: np.ndarray, nthr1, thr1, thr2, fl2) -> np.ndarray:
    """Prox of ``thr1 ||.||_1 + sum_s thr2_s ||._s||`` (Friedman, Hastie and Tibshirani),
    ``nthr1 = -thr1`` and ``fl2`` the floors of ``thr2``, in coordinate order:
    soft-threshold ``x`` at ``thr1``, then shrink each segment toward zero by its norm, the
    factor reaching each coordinate through ``part.segment``; a segment whose thresholded
    norm is at most ``thr2`` maps to zero.  The norms sum the squares in segment order.  The
    caller forms the weights once per step, :meth:`SparseGroupReg.prox` as 0-d arrays."""
    eta = x - np.minimum(np.maximum(x, nthr1), thr1)
    norms = np.sqrt(np.add.reduceat((eta * eta)[part.perm], part.starts))
    return eta * (_ONE - thr2 / np.maximum(norms, fl2))[part.segment]


def sparse_group_gauge(part: GroupPartition, z: np.ndarray, b1, b2) -> np.ndarray:
    """Per segment, in segment order, the least ``t >= 0`` with ``||soft(z_s, t b1)|| <= t
    b2``: the gauge of the sparse-group dual ball ``{z : ||soft(z_s, b1)|| <= b2 for all s}``
    (Ndiaye, Fercoq, Gramfort and Salmon 2016), ``b1`` and ``b2`` scalars or per segment.
    On each segment's magnitudes, scaled by their largest and sorted (one zero-padded row),
    ``||soft||^2 = (t b2)^2`` is a quadratic in t on the piece where the k largest exceed
    ``t b1``; the root's piece holds the ``a_j`` with ``b1^2 sum_{i<j} (a_i - a_j)^2 < (b2
    a_j)^2``.  A zero segment's gauge is 0, a nonzero one's with ``b1 = b2 = 0`` inf."""
    P = np.zeros((part.sizes.size, part.sizes.max()))
    P[part.segment, part.inverse - part.starts[part.segment]] = np.abs(z)
    top = np.maximum.reduce(P, axis=1)
    P = -np.sort(P / -np.where(top > 0, top, 1.0)[:, None], axis=1)
    S1, S2 = np.cumsum(P, axis=1), np.cumsum(P * P, axis=1)
    b1, b2, j = np.asarray(b1, dtype=float), np.asarray(b2, dtype=float), np.arange(P.shape[1])
    inside = b1[..., None] ** 2 * (S2 - 2 * P * S1 + (j + 1) * P * P) < (b2[..., None] * P) ** 2
    k = np.maximum(np.add.reduce(inside, axis=1), 1)
    s1, s2 = S1[np.arange(k.size), k - 1], S2[np.arange(k.size), k - 1]
    den = b1 * s1 + np.sqrt(np.maximum((b1 * s1) ** 2 - (k * b1 * b1 - b2 * b2) * s2, 0.0))
    # den is 0 only on a zero segment, or at b1 = b2 = 0
    t = np.divide(s2, den, out=np.full(top.shape, np.inf), where=den > 0)
    return np.where(top > 0, t, 0.0) * top


def sparse_group_min_norm(
    part: GroupPartition, g: np.ndarray, x: np.ndarray, nlb1, lb1, lb2, fl2
) -> np.ndarray:
    """Minimum-norm element of ``d(lb1 ||.||_1 + sum_s lb2_s ||._s||)(x) + g``, ``nlb1 =
    -lb1`` and ``fl2`` the floors of ``lb2``, in coordinate order.

    The l1 part is ``lb1 sign(x_j)`` on a nonzero coordinate and the clipped
    ``-g_j`` on a zero one, which leaves ``v``.  A segment holding a nonzero
    coordinate adds ``lb2 x_s / ||x_s||`` to ``v``; on an all-zero segment
    the group part is the point of the ``lb2``-ball nearest to ``-v``, which
    leaves ``v`` shrunk by ``lb2``.  Zero tests are exact.  A nonzero segment
    of norm below ``_SMALL_NORM``, whose squares may underflow, takes its
    direction from the segment scaled by ``2**600``, which is exact.
    """
    zero, perm, starts, segment = x == 0.0, part.perm, part.starts, part.segment
    v = g + lb1 * np.sign(x) - zero * np.minimum(np.maximum(g, nlb1), lb1)
    all_zero = np.logical_and.reduceat(zero[perm], starts)
    x_norms = np.maximum(np.sqrt(np.add.reduceat((x * x)[perm], starts)), all_zero)
    if np.minimum.reduce(x_norms, initial=np.inf) < _SMALL_NORM:
        x = x * np.where(x_norms < _SMALL_NORM, 2.0**600, 1.0)[segment]
        x_norms = np.maximum(np.sqrt(np.add.reduceat((x * x)[perm], starts)), all_zero)
    v_norms = np.sqrt(np.add.reduceat((v * v)[perm], starts))
    # 1 on a segment with a nonzero coordinate, even where v is NaN
    v_scale = _ONE - lb2 * all_zero / np.fmax(v_norms, fl2)
    return v * v_scale[segment] + x * (lb2 / x_norms)[segment]


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
    # the last (prox step or lam, weights): derived, no fields; a NaN key matches nothing
    _step_memo = _lam_memo = (math.nan, ())

    def __post_init__(self) -> None:
        real("beta1", self.beta1, 0)
        real("beta2", self.beta2, 0)
        if not isinstance(self.partition, GroupPartition):
            raise ValueError(f"partition must be a GroupPartition, got {self.partition!r}")

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def coercivity(self) -> float:
        """Lower-bound slope tau with ``value(x) >= tau * ||x||_2``."""
        return self.beta1 + self.beta2

    def value(self, x: np.ndarray) -> float:
        part = self.partition
        xp = _vector(x, part.n)[part.perm]
        return float(np.sum(self.beta1 * np.abs(xp)) + np.sum(self.beta2 * part.norms(xp)))

    def _weights(self, memo: str, name: str, v, strict: bool) -> tuple[np.ndarray, ...]:
        """The weights ``v (-b1, b1, b2)`` and ``max(v b2, tiny)`` as 0-d arrays (no per-call
        conversion, same bits), kept in the one-entry memo ``memo``, formed and ``v`` checked
        (finite; positive if ``strict``) only when ``v`` differs in type or value from the last."""
        last, weights = getattr(self, memo)
        if v.__class__ is last.__class__ and v == last:
            return weights
        if not (v.__class__ is float and 0.0 < v < math.inf):  # such a float needs no check
            # "not > 0" also rejects NaN; real refuses bools, arrays and inf
            if strict and _is(v, _NUMBER) and not v > 0:
                raise ValueError(f"{name} must be positive, got {v}")
            real(name, v, 0)
        w1, w2 = v * self.beta1, v * self.beta2
        thr2 = np.array(w2)
        weights = np.array(-w1), np.array(w1), thr2, thr2 if w2 > _TINY else np.array(_TINY)
        if v:  # a zero key would also match -0.0, whose weights' zeros have the other sign
            self.__dict__[memo] = v, weights  # past the frozen __setattr__, as cached_property
        return weights

    def prox(self, xbar: np.ndarray, t: float) -> np.ndarray:
        """Exact minimizer of ``t * value(y) + 0.5 * ||y - xbar||^2``.

        Soft-threshold at ``t*b1``, then shrink each group toward zero by the group-norm
        factor; a group whose thresholded norm is zero maps to the zero block.  The weights
        are 0-d arrays from :meth:`_weights`, so the events of an ``rbcd`` subproblem, which
        share one step, form them and check ``t`` once, with unchanged bits.
        """
        part, weights = self.partition, self._weights("_step_memo", "prox step", t, True)
        return sparse_group_prox(part, _vector(xbar, part.n), *weights)

    def min_norm_subgradient(
        self, lam: float, grad_f: np.ndarray, xbar: np.ndarray
    ) -> np.ndarray:
        """Minimum-norm element of ``lam * d(value)(xbar) + grad_f``.

        The zero/nonzero case split is on exact zeros; callers pass prox
        outputs (which produce exact zeros) or extrapolated points where the
        nonzero branch is safe.  The weights are 0-d arrays from :meth:`_weights`,
        formed and ``lam`` checked once per value of ``lam``.
        """
        part, weights = self.partition, self._weights("_lam_memo", "lam", lam, False)
        return sparse_group_min_norm(part, _vector(grad_f, part.n), _vector(xbar, part.n), *weights)

    def subgrad_residual(self, lam: float, grad_f: np.ndarray, xbar: np.ndarray) -> float:
        """Norm of the minimum-norm composite subgradient at ``xbar``, summed in
        coordinate order."""
        v = self.min_norm_subgradient(lam, grad_f, xbar)
        return math.sqrt(np.add.reduce(v * v))


def huber_grad(
    A: np.ndarray, At: np.ndarray, b: np.ndarray, lo, hi, x: np.ndarray
) -> np.ndarray:
    """Huber loss gradient ``At @ clip(A @ x - b, lo, hi)`` at ``(lo, hi) = (-delta, delta)``
    (0-d arrays from :func:`dfal._event_kernels`), ``At`` the transpose of ``A``; no checks,
    so callers validate shapes once.  ``ndarray.dot`` runs ``@``'s BLAS gemv with less overhead."""
    return At.dot(np.minimum(np.maximum(A.dot(x) - b, lo), hi))


def huber_scalar(r: np.ndarray, delta: float, half_dd: np.ndarray | None = None) -> np.ndarray:
    """Huber penalty: quadratic within ``delta`` of zero, linear beyond;
    ``half_dd``, if given, is ``0.5 * delta * delta`` formed once."""
    a, half_dd = np.abs(r), (0.5 * delta * delta if half_dd is None else half_dd)
    return np.where(a <= delta, 0.5 * r * r, delta * a - half_dd)


@dataclass(frozen=True)
class HuberLoss:
    """Robust data-fit term ``sum_j huber(a_j @ x - b_j)``.

    The gradient is Lipschitz with constant ``sigma_max(A)^2``.
    """

    A: np.ndarray
    b: np.ndarray
    delta: float = 1.0

    def __post_init__(self) -> None:
        A = np.asarray(array("A", self.A, 2), dtype=float)
        b = np.asarray(array("b", self.b, 1), dtype=float)
        if b.shape != A.shape[:1]:
            raise ValueError(f"A has {A.shape[0]} rows but b has shape {b.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        real("delta", self.delta, 0, strict=True)

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    def _residual(self, x: np.ndarray) -> np.ndarray:
        return self.A.dot(_vector(x, self.n)) - self.b

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return self.value(x), self.grad(x)

    def value(self, x: np.ndarray) -> float:
        return float(huber_scalar(self._residual(x), self.delta).sum())

    def grad(self, x: np.ndarray) -> np.ndarray:
        return huber_grad(self.A, self.A.T, self.b, -self.delta, self.delta, _vector(x, self.n))

    @cached_property
    def lipschitz(self) -> float:
        """Gradient Lipschitz constant ``sigma_max(A)^2``, the top eigenvalue
        of ``A A^T``, on first use."""
        return float(np.linalg.eigvalsh(self.A @ self.A.T)[-1])


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

    The regularizers share one ``partition`` of the ``N*n`` flat coordinates (node ``i``'s
    groups, offset into its slice), with the l1 weight per coordinate and the group weight
    per segment, so each node keeps its own partition and weights.  The losses are an ``(N,
    m, n)`` stack, zero-padded to the longest ``m``: a padded row has residual 0 and Huber
    threshold 0, so it adds nothing to the gradient or the value and is never inside the
    threshold.  Build it once per solve.  At a shared ``x`` it is the consensus problem
    ``min_x sum_i F_i(x)``, with its :meth:`value` and :meth:`relative_gap`.
    """

    def __init__(self, nodes: Sequence[NodeProblem]):
        N, n = len(nodes), nodes[0].n
        if any(p.n != n for p in nodes):
            raise ValueError("node problems must share one dimension")
        self.shape, self._nodes = (N, n), tuple(nodes)
        self.partition = GroupPartition.stacked([p.reg.partition for p in nodes])
        num_segments = [len(p.reg.partition.groups) for p in nodes]
        self._seg_node = np.repeat(np.arange(N), num_segments)
        ends = np.cumsum(num_segments).tolist()
        self._node_segs = None if len(set(num_segments)) == 1 else [
            slice(a, z) for a, z in zip([0] + ends, ends)]
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
        self._half_dd = 0.5 * self._delta * self._delta

    def objective(self, X: np.ndarray) -> float:
        """``sum_i nodes[i].value(X[i])`` in node order, each term bit for bit
        where the nodes share one ``m``."""
        if X.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {X.shape}")
        part, (N, n) = self.partition, self.shape
        xp = X.take(part.perm)
        l1 = np.add.reduce((self._b1 * np.abs(xp)).reshape(N, n), axis=1)
        # np.add.reduceat would sum a node's groups in another order; a reshape does not
        weighted = self._b2 * part.norms(xp)
        group = (np.add.reduce(weighted.reshape(N, -1), axis=1) if self._node_segs is None
                 else [np.add.reduce(weighted[segs]) for segs in self._node_segs])
        r = (self._A @ X[:, :, None])[:, :, 0] - self._b
        loss = np.add.reduce(huber_scalar(r, self._delta, self._half_dd), axis=1)
        return sum((l1 + group + loss).tolist())

    def value(self, x: np.ndarray) -> float:
        """``sum_i F_i(x)`` at a shared ``x`` in node order, free of the group order: ``beta1
        sum |x|`` in coordinate order, plus the Huber value, plus ``beta2`` sum(sorted norms)."""
        return float(sum(p.reg.beta1 * np.add.reduce(np.abs(x)) + p.loss.value(x) + p.reg.beta2
                         * np.add.reduce(np.sort(p.reg.partition.norms(x[p.reg.partition.perm])))
                         for p in self._nodes))

    def relative_gap(self, f: float, x: np.ndarray, Z: np.ndarray) -> float:
        """``(F - D) / |F|`` (absolute where ``F = 0``) at ``x`` of value ``f``, for the weak
        duality bound ``D = -(theta^2 w.w / 2 + theta b.w) <= F*`` of the stacked rows: ``w =
        clip(A x - b, delta)``, the duals ``Z`` (a row per node) shifted to sum to ``-A^T w``,
        both scaled by ``theta = 1 / max(1, max gauge)`` into the nodes' balls.  Below 0 (-4e-16
        at an optimum) is rounding and reads 0; NaN stays NaN.  At ``beta1 = beta2 = 0`` the
        ball is {0}, so ``theta = D = 0``, true as ``F >= 0`` but vacuous: the gap reads 1."""
        part, A, b = self.partition, self._A.reshape(-1, self.shape[1]), self._b.ravel()
        w = _clip(A.dot(x) - b, self._delta.ravel())
        Z = Z - (np.add.reduce(Z) + A.T.dot(w)) / len(Z)
        gauge = sparse_group_gauge(part, Z.reshape(-1), self._b1[part.perm[part.starts]], self._b2)
        theta = 1.0 / max(1.0, float(np.max(gauge)))
        return max((f + theta * float(0.5 * theta * w.dot(w) + b.dot(w))) / (abs(f) or 1.0), 0.0)

    def loss_grad(self, Y: np.ndarray) -> np.ndarray:
        """Rows ``A_i^T clip(A_i y_i - b_i, -delta_i, delta_i)``."""
        r = (self._A @ Y[:, :, None])[:, :, 0] - self._b
        return (self._At @ _clip(r, self._delta)[:, :, None])[:, :, 0]

    def weights(self, t: np.ndarray) -> tuple[np.ndarray, ...]:
        """The stacked kernels' weights ``(-thr1, thr1, thr2, max(thr2, tiny))`` at the
        steps ``t``, one per node: node ``i``'s ``t_i b1_i`` on each of its coordinates
        and ``t_i b2_i`` on each of its segments."""
        t = np.broadcast_to(np.asarray(t, dtype=float), self.shape[:1])
        if not np.all((0 < t) & (t < math.inf)):
            raise ValueError(f"prox steps must be positive and finite, got {t}")
        thr1, thr2 = np.repeat(t, self.shape[1]) * self._b1, t[self._seg_node] * self._b2
        return -thr1, thr1, thr2, np.maximum(thr2, _TINY)

    def prox_map(self, t: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """``V ->`` the stacked prox whose row ``i`` is
        ``nodes[i].reg.prox(V[i], t[i])``, with the :meth:`weights` of the steps
        ``t`` formed once for every call."""
        part, shape, weights = self.partition, self.shape, self.weights(t)

        def prox(V: np.ndarray) -> np.ndarray:
            if V.shape != shape:
                raise ValueError(f"expected shape {shape}, got {V.shape}")
            return sparse_group_prox(part, V.reshape(-1), *weights).reshape(shape)

        return prox
