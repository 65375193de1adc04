"""Block-structured first-order solvers.

All solvers operate on stacked iterates of shape ``(N, n)`` (``N`` blocks of
length ``n``) described by a :class:`BlockObjective`.  The accelerated
multi-step solver uses a separate step size ``1/L_i`` per block and proxes
all blocks in one call; the randomized solvers update one uniformly drawn
block per event, are deterministic given a seeded generator, and report how
often each block was drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .netsim import ActivationSchedule


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
    smooth_grad_block : callable
        ``(i, Y) -> grad`` of ``f`` in block ``i`` (0-based), used by the
        randomized solvers.
    prox : callable
        ``(i, v, tau) -> argmin_y tau * rho_i(y) + 0.5 * ||y - v||^2``.
    prox_all : callable
        ``(V, tau) ->`` the stacked ``prox(i, V[i], tau[i])`` of every block
        in one call.
    residuals : callable
        ``(G, Y) ->`` the ``N`` norms (array or sequence), entry ``i`` that
        of the minimum-norm element of ``d(rho_i)(Y_i) + G_i``; the
        per-block stopping test, for all blocks in one call.
    value : callable, optional
        ``Y -> Phi(Y)``.  Read by ``ms_apg(record_values=True)``,
        :func:`arbcd_run` and the budget-constant pilots, which reject an
        objective without one.
    """

    L: np.ndarray
    smooth_grad: Callable[[np.ndarray], np.ndarray]
    smooth_grad_block: Callable[[int, np.ndarray], np.ndarray]
    prox: Callable[[int, np.ndarray, float], np.ndarray]
    prox_all: Callable[[np.ndarray, np.ndarray], np.ndarray]
    residuals: Callable[[np.ndarray, np.ndarray], np.ndarray]
    value: Callable[[np.ndarray], float] | None = None

    def __post_init__(self) -> None:
        self.L = np.asarray(self.L, dtype=float)
        if self.L.ndim != 1 or self.L.size == 0 or not np.all(self.L > 0):
            raise ValueError("need a 1-D array of positive curvature constants")

    @property
    def num_blocks(self) -> int:
        return self.L.size

    def max_residual(self, G: np.ndarray, Y: np.ndarray) -> float:
        return float(max(self.residuals(G, Y)))

    def residual_reached(self, Y: np.ndarray, target: float) -> bool:
        """The per-block stopping test at ``Y`` from a full gradient."""
        return self.max_residual(self.smooth_grad(Y), Y) <= target


def _value_of(obj: BlockObjective, caller: str) -> Callable[[np.ndarray], float]:
    if obj.value is None:
        raise ValueError(f"{caller} evaluates the objective, which has no value")
    return obj.value


@dataclass
class SolveResult:
    y: np.ndarray
    iterations: int
    stop_reason: str
    values: list[float] = field(default_factory=list)
    # randomized solvers: how many events drew each block
    activations: np.ndarray | None = None


def fista_momentum(t: float) -> float:
    return 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))


def ms_apg(
    obj: BlockObjective,
    y0: np.ndarray,
    residual_target: float | None = None,
    max_iter: int = 1000,
    record_values: bool = False,
    callback: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
    strong_convexity: float = 0.0,
) -> SolveResult:
    """Accelerated proximal gradient with per-block step sizes.

    Stops when the per-block minimum-norm subgradient at the extrapolated
    point drops to ``residual_target`` (the returned iterate is then the
    extrapolated point) or when ``max_iter`` is reached (the returned iterate
    is the proximal step).  ``callback(ell, ybar, grad)`` fires once per
    iteration before the prox step.  ``record_values`` keeps ``obj.value``
    of every proximal step in ``values``.

    With ``strong_convexity = mu > 0`` (the smooth part's modulus, at most
    every ``L_i``) the momentum is the constant
    ``(sqrt(L_i / mu) - 1) / (sqrt(L_i / mu) + 1)`` of each block (Nesterov
    2004, section 2.2) in place of FISTA's.
    """
    if not 0.0 <= strong_convexity <= obj.L.min():
        raise ValueError(
            f"strong_convexity must lie in [0, min(L)] = [0, {obj.L.min()}], "
            f"got {strong_convexity}"
        )
    value = _value_of(obj, "record_values") if record_values else None
    y_prev = np.array(y0, dtype=float)
    ybar = y_prev.copy()
    t = 1.0
    step = 1.0 / obj.L
    L_col = obj.L[:, None]
    if strong_convexity > 0.0:
        q = np.sqrt(L_col / strong_convexity)
        beta = (q - 1.0) / (q + 1.0)
    result = SolveResult(y_prev, 0, "cap")
    for ell in range(1, max_iter + 1):
        grad = obj.smooth_grad(ybar)
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite gradient at inner iteration {ell}")
        if callback is not None:
            callback(ell, ybar, grad)
        if residual_target is not None:
            if obj.max_residual(grad, ybar) <= residual_target:
                result.y, result.iterations, result.stop_reason = ybar, ell, "residual"
                return result
        y = obj.prox_all(ybar - grad / L_col, step)
        if value is not None:
            result.values.append(value(y))
        if ell == max_iter:
            result.y, result.iterations, result.stop_reason = y, ell, "cap"
            return result
        if strong_convexity > 0.0:
            ybar = y + beta * (y - y_prev)
        else:
            t_next = fista_momentum(t)
            ybar = y + ((t - 1.0) / t_next) * (y - y_prev)
            t = t_next
        y_prev = y
    return result


def apg(
    smooth_grad: Callable[[np.ndarray], np.ndarray],
    prox: Callable[[np.ndarray, float], np.ndarray],
    residual: Callable[[np.ndarray, np.ndarray], float],
    lipschitz: float,
    x0: np.ndarray,
    residual_target: float | None = None,
    max_iter: int = 1000,
    strong_convexity: float = 0.0,
) -> SolveResult:
    """Centralized accelerated proximal gradient with one combined prox.

    Thin single-block wrapper over :func:`ms_apg`, so the two share one
    arithmetic path exactly.  ``residual(g, x)`` is the stopping test's norm
    at ``x`` with smooth gradient ``g``; ``strong_convexity`` is passed on.
    """
    obj = BlockObjective(
        L=np.array([lipschitz]),
        smooth_grad=lambda Y: smooth_grad(Y[0])[None, :],
        smooth_grad_block=lambda i, Y: smooth_grad(Y[0]),
        prox=lambda i, v, tau: prox(v, tau),
        prox_all=lambda V, tau: prox(V[0], tau[0])[None, :],
        residuals=lambda G, Y: (residual(G[0], Y[0]),),
    )
    res = ms_apg(
        obj,
        np.asarray(x0, dtype=float)[None, :],
        residual_target=residual_target,
        max_iter=max_iter,
        strong_convexity=strong_convexity,
    )
    res.y = res.y[0]
    return res


def rbcd_run(
    obj: BlockObjective,
    y0: np.ndarray,
    iters: int,
    rng: np.random.Generator | ActivationSchedule,
    residual_target: float | None = None,
) -> SolveResult:
    """Randomized block coordinate descent: one uniform block per event.

    The optional residual test (checked once per ``N`` events) evaluates the
    full gradient and may stop early.
    ``activations`` of the result counts the events that drew each block.
    """
    y = np.array(y0, dtype=float)
    N = obj.num_blocks
    drawn = [0] * N
    result = SolveResult(y, iters, "cap")
    for ell in range(1, iters + 1):
        i = int(rng.integers(N))
        drawn[i] += 1
        g = obj.smooth_grad_block(i, y)
        y[i] = obj.prox(i, y[i] - g / obj.L[i], 1.0 / obj.L[i])
        if residual_target is not None and ell % N == 0:
            if obj.residual_reached(y, residual_target):
                result.iterations, result.stop_reason = ell, "residual"
                break
    result.activations = np.array(drawn, dtype=np.int64)
    return result


def arbcd_momentum(t: float, num_blocks: int) -> float:
    n2 = 2.0 * num_blocks
    return (1.0 + np.sqrt(1.0 + (n2 * t) ** 2)) / n2


def arbcd_candidate(z: np.ndarray, u: np.ndarray, t: float, num_blocks: int) -> np.ndarray:
    return (1.0 / (num_blocks * t)) ** 2 * u + z


def arbcd_chain(
    obj: BlockObjective,
    z0: np.ndarray,
    iters: int,
    rng: np.random.Generator | ActivationSchedule,
    residual_target: float | None = None,
) -> SolveResult:
    """One accelerated randomized block coordinate descent chain.

    Gradients are taken at the momentum-combined point; the candidate iterate
    after each event combines the auxiliary sequence back in.  The optional
    residual test runs on the proximal sequence ``z`` (whose blocks carry the
    exact sparsity pattern the per-block test needs) and returns ``z`` when it
    fires; otherwise the final candidate is returned at the cap.
    ``activations`` of the result counts the events that drew each block.
    """
    z = np.array(z0, dtype=float)
    u = np.zeros_like(z)
    t = 1.0
    N = obj.num_blocks
    drawn = [0] * N
    result = SolveResult(z.copy(), iters, "cap")
    for ell in range(1, iters + 1):
        i = int(rng.integers(N))
        drawn[i] += 1
        w = arbcd_candidate(z, u, t, N)
        g = obj.smooth_grad_block(i, w)
        z_new_i = obj.prox(i, z[i] - (t / obj.L[i]) * g, t / obj.L[i])
        u[i] = u[i] + N * N * t * (1.0 - t) * (z_new_i - z[i])
        z[i] = z_new_i
        result.y = arbcd_candidate(z, u, t, N)
        t = arbcd_momentum(t, N)
        if residual_target is not None and ell % N == 0:
            if obj.residual_reached(z, residual_target):
                result.iterations, result.stop_reason = ell, "residual"
                result.y = z.copy()
                break
    result.activations = np.array(drawn, dtype=np.int64)
    return result


def _pilot(
    obj: BlockObjective,
    y0: np.ndarray,
    run: Callable[..., SolveResult],
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Objective gap and ``L``-weighted squared distance from ``y0`` to the
    better of ``y0`` and the end of a ``4N``-event pilot ``run``, which stands
    in for the unknown optimum of the randomized solvers' constants."""
    value = _value_of(obj, "the budget pilot")
    phi0 = value(y0)
    pilot = run(obj, y0, 4 * obj.num_blocks, rng)
    phi_best = min(phi0, value(pilot.y))
    y_best = pilot.y if phi_best < phi0 else y0
    return phi0 - phi_best, float(np.sum(obj.L * np.sum((y0 - y_best) ** 2, axis=1)))


def estimate_restart_constant(
    obj: BlockObjective, z0: np.ndarray, rng: np.random.Generator
) -> float:
    """Upper-bound estimate of the restart constant for the accelerated chain,
    ``(1 - 1/N) gap + dist / 2`` from an :func:`arbcd_chain` pilot, with a
    safety factor of 2 that keeps it on the safe (over-budgeted) side."""
    gap, dist = _pilot(obj, z0, arbcd_chain, rng)
    return 2.0 * max((1.0 - 1.0 / obj.num_blocks) * gap + 0.5 * dist, 1e-12)


def rbcd_budget_constant(
    obj: BlockObjective, y0: np.ndarray, rng: np.random.Generator
) -> float:
    """Safe over-estimate of the randomized-descent complexity constant,
    ``max(gap, dist)`` from an :func:`rbcd_run` pilot, with a factor-2
    margin that keeps it an upper bound in practice."""
    gap, dist = _pilot(obj, y0, rbcd_run, rng)
    return 2.0 * max(gap, dist, 1e-12)


def rbcd_events(num_blocks: int, c_estimate: float, alpha: float, p: float) -> int:
    """Events of one randomized descent run at confidence ``1 - p``:
    ``ceil(2N C / alpha * (1 + log(1/p)))``."""
    return math.ceil(2.0 * num_blocks * c_estimate / alpha * (1.0 + math.log(1.0 / p)))


def arbcd_chain_events(num_blocks: int, c_estimate: float, alpha: float) -> int:
    """Events of one accelerated chain: ``ceil(2N sqrt(2C/alpha))``."""
    return math.ceil(2.0 * num_blocks * math.sqrt(2.0 * c_estimate / alpha))


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
    (see :func:`estimate_restart_constant`), each on a fresh activation
    schedule seeded from ``rng``, and returns the candidate (including the
    start point) with the smallest objective; a chain whose residual test
    fires is returned at once.  ``activations`` sums the chains' block counts.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    N = obj.num_blocks
    value = _value_of(obj, "arbcd_run")
    chain_iters = arbcd_chain_events(N, c_estimate, alpha)
    best_y = np.array(z0, dtype=float)
    best_phi = value(best_y)
    result = SolveResult(best_y, 0, "cap", activations=np.zeros(N, dtype=np.int64))
    for _ in range(max(1, math.ceil(math.log2(1.0 / p)))):
        schedule = ActivationSchedule(int(rng.integers(2**31)), N)
        res = arbcd_chain(
            obj, z0, chain_iters, schedule, residual_target=residual_target
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
