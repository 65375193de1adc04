"""Block-structured first-order solvers.

All solvers operate on stacked iterates of shape ``(N, n)`` (``N`` blocks of
length ``n``) described by a :class:`BlockObjective`.  The accelerated
multi-step solver uses a separate step size ``1/L_i`` per block and proxes
all blocks in one call; the randomized solvers update one uniformly drawn
block per event, draw their blocks from a seeded activation stream
(:func:`activation_stream`), and report how often each block was drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Callable, Iterator, Sequence

import numpy as np

from .checks import integer, real
from .funcs import _TINY


@dataclass
class BlockObjective:
    """Composite objective ``Phi(Y) = f(Y) + sum_i rho_i(Y_i)``.

    Parameters
    ----------
    L : ndarray
        Per-block curvature constants ``L_i > 0`` for the smooth part, one
        per block, so ``len(L)`` is the number of blocks ``N``.
    smooth_grad : callable
        ``Y ->`` the full gradient (shape ``(N, n)``) of ``f``.
    prox_all : callable
        ``V ->`` the stacked ``argmin_y rho_i(y) / L_i + 0.5 * ||y - V_i||^2``
        of every block in one call, each block at its own step ``1 / L_i``.
    blocks : sequence
        Entry ``i`` is block ``i``'s kernels ``(grad(Y), prox(v, tau),
        residual(Y, g))`` from its own data: the gradient of ``f`` in block
        ``i``, ``argmin_y tau * rho_i(y) + 0.5 * ||y - v||^2`` and the norm of
        the minimum-norm element of ``d(rho_i)(Y_i) + g``, with ``prox`` the
        prox of the ``rho_i`` that ``residual`` measures.  The randomized
        solvers and every stopping test (:meth:`residual_reached`) run on them,
        so an objective without one entry per block is refused.
    value : callable, optional
        ``Y -> Phi(Y)``.  Read by ``ms_apg(record_values=True)``,
        :func:`arbcd_run` and :func:`level_set_constants`, which reject an
        objective without one.
    """

    L: np.ndarray
    smooth_grad: Callable[[np.ndarray], np.ndarray]
    prox_all: Callable[[np.ndarray], np.ndarray]
    blocks: Sequence[tuple[Callable, Callable, Callable]]
    value: Callable[[np.ndarray], float] | None = None
    # the block that failed the last residual test, checked first next time
    _failed: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.L = np.asarray(self.L, dtype=float)
        if self.L.ndim != 1 or self.L.size == 0 or not np.all(self.L > 0):
            raise ValueError("need a 1-D array of positive curvature constants")
        count = None if self.blocks is None else len(self.blocks)
        if count != self.L.size:
            raise ValueError(
                f"need one entry of blocks per curvature constant, {self.L.size}, got {count}"
            )

    @property
    def num_blocks(self) -> int:
        return self.L.size

    def residual_reached(self, Y: np.ndarray, target: float, known: dict | None = None) -> bool:
        """The per-block stopping test at ``Y``: every block's residual is at most
        ``target``, decided as the exact max would be.  The blocks go in one order
        (``known``'s first, then the last to fail, then the rest), twice.  The first pass
        takes each block's gradient and prox step at ``1 / L_j`` (handed in by ``known =
        {j: (g, step)}``) and fails at the first :func:`_mapping_over` gate that fires,
        a certified lower bound on that block's residual; only once every gate has passed
        does the second run the exact ``residual`` on those gradients, failing at the
        first block over ``target`` or NaN.  So a test that fails at a gate runs no
        exact residual, and no test takes more gradients than a passing one."""
        L, known = self.L.tolist(), known or {}
        taken = []
        for j in dict.fromkeys((*known, self._failed, *range(self.num_blocks))):
            grad, prox, _ = self.blocks[j]
            g = known[j][0] if j in known else grad(Y)
            new = known[j][1] if j in known else prox(Y[j] - g / L[j], 1.0 / L[j])
            if _mapping_over(Y[j] - new, Y[j], g, L[j], target):
                self._failed = j
                return False
            taken.append((j, g))
        for j, g in taken:
            if not self.blocks[j][2](Y, g) <= target:
                self._failed = j
                return False
        return True


_SLACK = 8.0 * float(np.finfo(float).eps)


def _mapping_over(s: np.ndarray, y: np.ndarray, g: np.ndarray, L_j: float, target: float) -> bool:
    """The gradient-mapping gate (Nesterov 2013) at step ``s = y - prox(y - g / L_j)``:
    ``L_j ||s|| <= residual`` as ``y = prox(y + xi / L_j)`` for ``xi`` in ``d(rho)(y)``;
    rounding moves both by about ``7 (n + 8) u (L_j ||y|| + ||g||)``, ``u = eps / 2``,
    so the gate fires when the bound less ``16 (n + 8) u`` of that is over ``target``."""
    scale = L_j * math.sqrt(y.dot(y)) + math.sqrt(g.dot(g))
    return L_j * math.sqrt(s.dot(s)) - _SLACK * (y.size + 8) * scale > target


def _start(obj: BlockObjective, y0: np.ndarray, residual_target: float | None) -> np.ndarray:
    """``y0`` as a float copy with one row per block, once a set target is checked."""
    if residual_target is not None:
        real("residual_target", residual_target, 0)
    y = np.array(y0, dtype=float)
    if y.ndim != 2 or y.shape[0] != obj.num_blocks:
        raise ValueError(f"need a start point of shape ({obj.num_blocks}, n), got {y.shape}")
    return y


def _value(obj: BlockObjective, caller: str) -> Callable[[np.ndarray], float]:
    if obj.value is None:
        raise ValueError(f"{caller} reads the value of the objective, which has no value")
    return obj.value


@dataclass
class SolveResult:
    """An inner solve's point, iterations or events, and stop reason; how many
    of them updated each block (``activations``); ``ms_apg``'s recorded values."""

    y: np.ndarray
    iterations: int
    stop_reason: str
    activations: np.ndarray
    values: list[float] = field(default_factory=list)


def fista_momentum(t: float) -> float:
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))


def ms_apg(
    obj: BlockObjective,
    y0: np.ndarray,
    residual_target: float | None = None,
    max_iter: int = 1000,
    record_values: bool = False,
    callback: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
    restart: bool = False,
) -> SolveResult:
    """Accelerated proximal gradient with per-block step sizes.

    Each iteration takes the prox step ``y = prox_all(ybar - grad / L)`` from
    the extrapolated point ``ybar`` and stops when
    :meth:`BlockObjective.residual_reached` passes at ``ybar``, handed every
    row's gradient and prox step (returning ``ybar``; that last prox only
    served the test), or at ``max_iter`` (returning ``y``).  The block that
    failed the last test decides most iterations alone, through its
    :func:`_mapping_over` gate, run before the call; the test then runs every
    block's gate on the handed steps, that block first, before any exact
    residual (``prox_all`` is the prox of the ``rho`` that the blocks'
    ``residual`` measures).  ``callback(ell, ybar,
    grad)`` fires before the prox step; ``record_values`` keeps ``obj.value``
    of each prox step in ``values``.  Each iteration updates every block, so
    ``activations`` is ``iterations`` for each block.

    ``restart=True`` resets FISTA's ``t`` to 1 when ``<ybar - y, y - y_prev>
    > 0`` (adaptive restart, O'Donoghue and Candes 2015, FoCM), which recovers
    the linear rate near a solution; only the case-1 reference sets it.

    A gradient with a NaN or infinite entry raises ``FloatingPointError``.  The
    test is exact: the squares in ``np.vdot(grad, grad)`` are at least 0, so no
    ``inf - inf`` arises and such an entry makes the sum NaN or ``+inf``; only a
    sum that is not finite (entries over about ``1e154`` overflow it too) is
    checked entry by entry.  Unlike ``ndarray.dot``, ``np.vdot`` warns on no overflow.
    """
    integer("max_iter", max_iter, 1)
    value = _value(obj, "record_values") if record_values else None
    y_prev = _start(obj, y0, residual_target)
    ybar = y_prev.copy()
    t = 1.0
    L_col, L_rows = obj.L[:, None], obj.L.tolist()
    values: list[float] = []
    for ell in range(1, max_iter + 1):
        grad = obj.smooth_grad(ybar)
        if not math.isfinite(np.vdot(grad, grad)) and not np.isfinite(grad).all():
            raise FloatingPointError(f"non-finite gradient at inner iteration {ell}")
        if callback is not None:
            callback(ell, ybar, grad)
        y = obj.prox_all(ybar - grad / L_col)
        step = ybar - y
        if residual_target is not None:
            f = obj._failed  # the block that failed the last test decides most tests alone
            if not _mapping_over(step[f], ybar[f], grad[f], L_rows[f], residual_target) and (
                obj.residual_reached(ybar, residual_target,  # every row handed, f first
                                     {j: (grad[j], y[j]) for j in (f, *range(len(L_rows)))})
            ):
                return SolveResult(ybar, ell, "residual", np.full(len(L_rows), ell), values)
        if value is not None:
            values.append(value(y))
        if ell == max_iter:
            return SolveResult(y, ell, "cap", np.full(len(L_rows), ell), values)
        move = y - y_prev
        if restart and np.vdot(step, move) > 0.0:
            t = 1.0
        t_next = fista_momentum(t)
        ybar = y + ((t - 1.0) / t_next) * move
        t = t_next
        y_prev = y


def apg(
    smooth_grad: Callable[[np.ndarray], np.ndarray],
    prox: Callable[[np.ndarray, float], np.ndarray],
    residual: Callable[[np.ndarray, np.ndarray], float],
    lipschitz: float,
    x0: np.ndarray,
    residual_target: float | None = None,
    max_iter: int = 1000,
    restart: bool = False,
) -> SolveResult:
    """Centralized accelerated proximal gradient with one combined prox.

    Thin single-block wrapper over :func:`ms_apg`, so the two share one
    arithmetic path exactly.  ``residual(g, x)`` is the minimum-norm residual
    of ``prox``'s regularizer at ``x`` with smooth gradient ``g``; ``restart``
    is passed on, and the case-1 reference solve sets it.
    """
    step = 1.0 / np.float64(lipschitz)
    obj = BlockObjective(
        L=np.array([lipschitz]),
        smooth_grad=lambda Y: smooth_grad(Y[0])[None, :],
        prox_all=lambda V: prox(V[0], step)[None, :],
        blocks=[(lambda Y: smooth_grad(Y[0]), prox, lambda Y, g: residual(g, Y[0]))],
    )
    res = ms_apg(
        obj,
        np.asarray(x0, dtype=float)[None, :],
        residual_target=residual_target,
        max_iter=max_iter,
        restart=restart,
    )
    res.y = res.y[0]
    return res


def activation_stream(seed: int, num_nodes: int) -> Iterator[int]:
    """Seeded i.i.d. uniform node activations as 0-based indices: the ``k``-th
    is the ``k``-th ``integers(num_nodes)`` of ``np.random.default_rng(seed)``.
    Drawn lazily in chunks, so memory stays flat even when the nominal event
    budget is astronomically large; both arguments are checked at the call."""
    integer("seed", seed, 0)
    integer("num_nodes", num_nodes, 1)
    rng = np.random.default_rng(seed)
    # a memoryview iterates as Python ints, with no per-chunk copy
    return chain.from_iterable(
        memoryview(rng.integers(0, num_nodes, size=1 << 16)) for _ in count())


def rbcd_run(
    obj: BlockObjective,
    y0: np.ndarray,
    iters: int,
    seed: int,
    residual_target: float | None = None,
) -> SolveResult:
    """Randomized block coordinate descent: one uniform block per event, drawn
    from ``activation_stream(seed, N)``.

    The optional residual test (:meth:`BlockObjective.residual_reached`,
    checked once per ``N`` events) may stop early; it starts with the next
    event's block, drawn early, and hands that event its gradient and prox
    step.  ``activations`` of the result counts the events that drew each block.
    Gradients are divided by ``L_i`` as 0-d arrays (no per-event conversion, same bits); the
    prox steps ``1 / L_i`` are floats, as :meth:`BlockObjective.residual_reached` passes them.
    """
    integer("iters", iters, 0)
    y = _start(obj, y0, residual_target)
    N = obj.num_blocks
    L = [obj.L[k, ...] for k in range(N)]
    step = [1.0 / L_i for L_i in obj.L.tolist()]
    grad, prox, _ = zip(*obj.blocks)
    draw = activation_stream(seed, N).__next__
    drawn = [0] * N
    stop, known = "cap", None
    for ell in range(1, iters + 1):
        if known is None:
            i = draw()
            y[i] = prox[i](y[i] - grad[i](y) / L[i], step[i])
        else:
            (i, _, y[i]), known = known, None
        drawn[i] += 1
        if residual_target is not None and ell % N == 0:
            i = draw()
            g = grad[i](y)
            known = (i, g, prox[i](y[i] - g / L[i], step[i]))
            if obj.residual_reached(y, residual_target, {i: known[1:]}):
                iters, stop = ell, "residual"
                break
    return SolveResult(y, iters, stop, np.array(drawn, dtype=np.int64))


def arbcd_momentum(t: float, num_blocks: int) -> float:
    n2 = 2.0 * num_blocks
    return (1.0 + math.sqrt(1.0 + (n2 * t) ** 2)) / n2


def arbcd_candidate(z: np.ndarray, u: np.ndarray, t: float, num_blocks: int) -> np.ndarray:
    return (1.0 / (num_blocks * t)) ** 2 * u + z


def arbcd_chain(
    obj: BlockObjective,
    z0: np.ndarray,
    iters: int,
    seed: int,
    residual_target: float | None = None,
) -> SolveResult:
    """One accelerated randomized block coordinate descent chain, its blocks
    drawn from ``activation_stream(seed, N)``.

    Gradients are taken at the momentum-combined point; the candidate iterate
    after each event combines the auxiliary sequence back in.  The optional
    residual test runs on the proximal sequence ``z`` (whose blocks carry the
    exact sparsity pattern the per-block test needs) and returns ``z`` when it
    fires; otherwise the final candidate is returned at the cap.
    ``activations`` of the result counts the events that drew each block.
    """
    integer("iters", iters, 0)
    z = _start(obj, z0, residual_target)
    u = np.zeros_like(z)
    t = 1.0
    N = obj.num_blocks
    L = obj.L.tolist()
    grad, prox, _ = zip(*obj.blocks)
    draw = activation_stream(seed, N).__next__
    drawn = [0] * N
    y, stop = z.copy(), "cap"
    for ell in range(1, iters + 1):
        i = draw()
        drawn[i] += 1
        g = grad[i](arbcd_candidate(z, u, t, N))
        step = t / L[i]
        z_new_i = prox[i](z[i] - step * g, step)
        u[i] = u[i] + N * N * t * (1.0 - t) * (z_new_i - z[i])
        z[i] = z_new_i
        t_event, t = t, arbcd_momentum(t, N)
        if residual_target is not None and ell % N == 0:
            if obj.residual_reached(z, residual_target):
                y, iters, stop = z.copy(), ell, "residual"
                break
    else:
        if iters > 0:
            # the candidate after the last event, with that event's t
            y = arbcd_candidate(z, u, t_event, N)
    return SolveResult(y, iters, stop, np.array(drawn, dtype=np.int64))


def rbcd_events(num_blocks: int, c_estimate: float, alpha: float, p: float) -> int:
    """Events of one randomized descent run at confidence ``1 - p``:
    ``ceil(2N C / alpha * (1 + log(1/p)))``."""
    return math.ceil(2.0 * num_blocks * c_estimate / alpha * (1.0 + math.log(1.0 / p)))


def arbcd_chain_events(num_blocks: int, c_estimate: float, alpha: float) -> int:
    """Events of one accelerated chain: ``ceil(2N sqrt(2C/alpha))``."""
    return math.ceil(2.0 * num_blocks * math.sqrt(2.0 * c_estimate / alpha))


def level_set_constants(
    obj: BlockObjective, y0: np.ndarray, kappa: np.ndarray
) -> tuple[float, float]:
    """The constants of :func:`rbcd_events` and :func:`arbcd_chain_events` from ``y0``,
    for ``Phi >= 0`` with ``Phi(Y) >= sum_i kappa_i ||Y_i||``: every point of the level
    set ``{Phi <= Phi(y0)}``, the optimum too, has blocks ``||y_i|| <= R_i = Phi(y0) /
    kappa_i``, and the gap is at most ``Phi(y0)``.  So ``max(Phi(y0), sum_i L_i (2 R_i)^2)``
    bounds the level-set radius of randomized descent (Richtarik and Takac 2014), and
    ``(1 - 1/N) Phi(y0) + sum_i L_i (||y0_i|| + R_i)^2 / 2`` the restart constant of the
    accelerated chain (Fercoq and Richtarik 2015).  Each is at least the smallest
    normal float, so an optimal start (``Phi(y0) = 0``) gets one event per run or chain."""
    phi0 = _value(obj, "level_set_constants")(y0)
    R = phi0 / np.asarray(kappa, dtype=float)
    start = np.sqrt(np.sum(y0 * y0, axis=1))
    rbcd = max(phi0, float(np.sum(obj.L * (2.0 * R) ** 2)))
    arbcd = (1.0 - 1.0 / obj.num_blocks) * phi0 + 0.5 * float(np.sum(obj.L * (start + R) ** 2))
    return tuple(np.maximum([rbcd, arbcd], _TINY).tolist())


def arbcd_run(
    obj: BlockObjective,
    z0: np.ndarray,
    alpha: float,
    p: float,
    rng: np.random.Generator,
    c_estimate: float,
    residual_target: float | None = None,
) -> SolveResult:
    """Restarted accelerated randomized block descent.

    Runs ``ceil(log2(1/p))`` (at least one) independent chains of
    :func:`arbcd_chain_events` events at restart constant ``c_estimate``
    (see :func:`level_set_constants`), each on a fresh activation
    stream seeded from ``rng``, and returns the candidate (including the
    start point) with the smallest objective; a chain whose residual test
    fires is returned at once.  ``activations`` sums the chains' block counts.
    """
    real("alpha", alpha, 0, strict=True)
    real("p", p, 0, 1, strict=True)
    real("c_estimate", c_estimate, 0, strict=True)
    N = obj.num_blocks
    value = _value(obj, "arbcd_run")
    chain_iters = arbcd_chain_events(N, c_estimate, alpha)
    best_y = np.array(z0, dtype=float)
    best_phi = value(best_y)
    result = SolveResult(best_y, 0, "cap", np.zeros(N, dtype=np.int64))
    for _ in range(max(1, math.ceil(math.log2(1.0 / p)))):
        res = arbcd_chain(
            obj, z0, chain_iters, int(rng.integers(2**31)),
            residual_target=residual_target,
        )
        result.iterations += res.iterations
        result.activations += res.activations
        phi = value(res.y)
        if phi < best_phi:
            best_phi, result.y = phi, res.y
        if res.stop_reason == "residual":
            result.y, result.stop_reason = res.y, "residual"
            break
    return result
