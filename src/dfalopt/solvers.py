"""Block-structured first-order solvers.

All solvers operate on stacked iterates of shape ``(N, n)`` (``N`` blocks of
length ``n``) described by a :class:`BlockObjective`.  The accelerated
multi-step solver uses a separate step size ``1/L_i`` per block; the
randomized solvers update one uniformly drawn block per event and are
deterministic given a seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class BlockObjective:
    """Composite objective ``Phi(Y) = f(Y) + sum_i rho_i(Y_i)``.

    Parameters
    ----------
    num_blocks, block_len : int
        Shape of the stacked iterate.
    L : ndarray
        Per-block curvature constants ``L_i > 0`` for the smooth part.
    smooth_value, smooth_grad : callables
        Value and full gradient (shape ``(N, n)``) of ``f``.
    smooth_grad_block : callable
        ``(i, Y) -> grad`` of ``f`` in block ``i`` (0-based), used by the
        randomized solvers.
    prox : callable
        ``(i, v, tau) -> argmin_y tau * rho_i(y) + 0.5 * ||y - v||^2``.
    rho_value : callable
        ``(i, y_i) -> rho_i(y_i)``.
    residuals : callable
        ``(G, Y) ->`` the ``N`` norms (array or sequence), entry ``i`` that
        of the minimum-norm element of ``d(rho_i)(Y_i) + G_i``; the
        per-block stopping test, for all blocks in one call.
    """

    num_blocks: int
    block_len: int
    L: np.ndarray
    smooth_value: Callable[[np.ndarray], float]
    smooth_grad: Callable[[np.ndarray], np.ndarray]
    smooth_grad_block: Callable[[int, np.ndarray], np.ndarray]
    prox: Callable[[int, np.ndarray, float], np.ndarray]
    rho_value: Callable[[int, np.ndarray], float]
    residuals: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_evals: int = field(default=0, repr=False)
    prox_evals: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self.L = np.asarray(self.L, dtype=float)
        if self.L.shape != (self.num_blocks,) or np.any(self.L <= 0):
            raise ValueError("need one positive curvature constant per block")

    def value(self, Y: np.ndarray) -> float:
        total = self.smooth_value(Y)
        for i in range(self.num_blocks):
            total += self.rho_value(i, Y[i])
        return total

    def max_residual(self, G: np.ndarray, Y: np.ndarray) -> float:
        return float(max(self.residuals(G, Y)))


@dataclass
class SolveResult:
    y: np.ndarray
    iterations: int
    stop_reason: str
    values: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)


def fista_momentum(t: float) -> float:
    return 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))


def ms_apg(
    obj: BlockObjective,
    y0: np.ndarray,
    residual_target: float | None = None,
    max_iter: int = 1000,
    record_values: bool = False,
    callback: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> SolveResult:
    """Accelerated proximal gradient with per-block step sizes.

    Stops when the per-block minimum-norm subgradient at the extrapolated
    point drops to ``residual_target`` (the returned iterate is then the
    extrapolated point) or when ``max_iter`` is reached (the returned iterate
    is the proximal step).  ``callback(ell, ybar, grad)`` fires once per
    iteration before the prox step.
    """
    y_prev = np.array(y0, dtype=float)
    ybar = y_prev.copy()
    t = 1.0
    result = SolveResult(y_prev, 0, "cap")
    for ell in range(1, max_iter + 1):
        grad = obj.smooth_grad(ybar)
        obj.grad_evals += obj.num_blocks
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite gradient at inner iteration {ell}")
        if callback is not None:
            callback(ell, ybar, grad)
        if residual_target is not None:
            res = obj.max_residual(grad, ybar)
            if record_values:
                result.residuals.append(res)
            if res <= residual_target:
                result.y, result.iterations, result.stop_reason = ybar, ell, "residual"
                return result
        y = np.empty_like(ybar)
        for i in range(obj.num_blocks):
            y[i] = obj.prox(i, ybar[i] - grad[i] / obj.L[i], 1.0 / obj.L[i])
        obj.prox_evals += obj.num_blocks
        if record_values:
            result.values.append(obj.value(y))
        if ell == max_iter:
            result.y, result.iterations, result.stop_reason = y, ell, "cap"
            return result
        t_next = fista_momentum(t)
        ybar = y + ((t - 1.0) / t_next) * (y - y_prev)
        y_prev, t = y, t_next
    return result


def apg(
    smooth_value: Callable[[np.ndarray], float],
    smooth_grad: Callable[[np.ndarray], np.ndarray],
    prox: Callable[[np.ndarray, float], np.ndarray],
    rho_value: Callable[[np.ndarray], float],
    residual: Callable[[np.ndarray, np.ndarray], float],
    lipschitz: float,
    x0: np.ndarray,
    residual_target: float | None = None,
    max_iter: int = 1000,
    record_values: bool = False,
) -> SolveResult:
    """Centralized accelerated proximal gradient with one combined prox.

    Thin single-block wrapper over :func:`ms_apg`, so the two share one
    arithmetic path exactly.
    """
    obj = BlockObjective(
        num_blocks=1,
        block_len=int(np.asarray(x0).size),
        L=np.array([lipschitz]),
        smooth_value=lambda Y: smooth_value(Y[0]),
        smooth_grad=lambda Y: smooth_grad(Y[0])[None, :],
        smooth_grad_block=lambda i, Y: smooth_grad(Y[0]),
        prox=lambda i, v, tau: prox(v, tau),
        rho_value=lambda i, y: rho_value(y),
        residuals=lambda G, Y: (residual(G[0], Y[0]),),
    )
    res = ms_apg(
        obj,
        np.asarray(x0, dtype=float)[None, :],
        residual_target=residual_target,
        max_iter=max_iter,
        record_values=record_values,
    )
    res.y = res.y[0]
    return res


def rbcd_run(
    obj: BlockObjective,
    y0: np.ndarray,
    iters: int,
    rng: np.random.Generator,
    record_values: bool = False,
    residual_target: float | None = None,
    check_every: int | None = None,
    event_callback: Callable[[int, int], None] | None = None,
) -> SolveResult:
    """Randomized block coordinate descent: one uniform block per event.

    The optional residual test (checked every ``check_every`` events, default
    once per ``N`` events) evaluates the full gradient and may stop early.
    ``event_callback(ell, i)`` fires after each event with the drawn block.
    """
    y = np.array(y0, dtype=float)
    N = obj.num_blocks
    if check_every is None:
        check_every = N
    result = SolveResult(y, 0, "cap")
    for ell in range(1, iters + 1):
        i = int(rng.integers(N))
        g = obj.smooth_grad_block(i, y)
        obj.grad_evals += 1
        y[i] = obj.prox(i, y[i] - g / obj.L[i], 1.0 / obj.L[i])
        obj.prox_evals += 1
        if event_callback is not None:
            event_callback(ell, i)
        if record_values:
            result.values.append(obj.value(y))
        if residual_target is not None and ell % check_every == 0:
            grad = obj.smooth_grad(y)
            obj.grad_evals += N
            res = obj.max_residual(grad, y)
            if res <= residual_target:
                result.y, result.iterations, result.stop_reason = y, ell, "residual"
                return result
    result.y, result.iterations, result.stop_reason = y, iters, "cap"
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
    rng: np.random.Generator,
    residual_target: float | None = None,
    check_every: int | None = None,
    event_callback: Callable[[int, int], None] | None = None,
) -> SolveResult:
    """One accelerated randomized block coordinate descent chain.

    Gradients are taken at the momentum-combined point; the candidate iterate
    after each event combines the auxiliary sequence back in.  The optional
    residual test runs on the proximal sequence ``z`` (whose blocks carry the
    exact sparsity pattern the per-block test needs) and returns ``z`` when it
    fires; otherwise the final candidate is returned at the cap.
    """
    z = np.array(z0, dtype=float)
    u = np.zeros_like(z)
    t = 1.0
    N = obj.num_blocks
    if check_every is None:
        check_every = N
    result = SolveResult(z.copy(), 0, "cap")
    candidate = z.copy()
    for ell in range(1, iters + 1):
        i = int(rng.integers(N))
        w = arbcd_candidate(z, u, t, N)
        g = obj.smooth_grad_block(i, w)
        obj.grad_evals += 1
        z_new_i = obj.prox(i, z[i] - (t / obj.L[i]) * g, t / obj.L[i])
        obj.prox_evals += 1
        u[i] = u[i] + N * N * t * (1.0 - t) * (z_new_i - z[i])
        z[i] = z_new_i
        candidate = arbcd_candidate(z, u, t, N)
        t = arbcd_momentum(t, N)
        if event_callback is not None:
            event_callback(ell, i)
        if residual_target is not None and ell % check_every == 0:
            grad = obj.smooth_grad(z)
            obj.grad_evals += N
            res = obj.max_residual(grad, z)
            if res <= residual_target:
                result.y, result.iterations, result.stop_reason = (
                    z.copy(),
                    ell,
                    "residual",
                )
                return result
    result.y, result.iterations, result.stop_reason = candidate, iters, "cap"
    return result


def estimate_restart_constant(
    obj: BlockObjective,
    z0: np.ndarray,
    rng: np.random.Generator,
    pilot_iters: int | None = None,
) -> float:
    """Upper-bound estimate of the restart constant for the accelerated chain.

    The exact constant needs the unknown optimum; a short pilot chain supplies
    a stand-in best point, and a safety factor of 2 keeps the estimate on the
    safe (over-budgeted) side.
    """
    N = obj.num_blocks
    if pilot_iters is None:
        pilot_iters = 4 * N
    phi0 = obj.value(z0)
    pilot = arbcd_chain(obj, z0, pilot_iters, rng)
    phi_best = min(phi0, obj.value(pilot.y))
    z_best = pilot.y if phi_best < phi0 else z0
    gap = (1.0 - 1.0 / N) * (phi0 - phi_best)
    dist = 0.5 * float(np.sum(obj.L * np.sum((z0 - z_best) ** 2, axis=1)))
    return 2.0 * max(gap + dist, 1e-12)


def arbcd_run(
    obj: BlockObjective,
    z0: np.ndarray,
    alpha: float,
    p: float,
    rng: np.random.Generator,
    c_estimate: float | None = None,
    residual_target: float | None = None,
    event_callback: Callable[[int, int], None] | None = None,
) -> SolveResult:
    """Restarted accelerated randomized block descent.

    Runs ``ceil(log2(1/p))`` independent chains of ``ceil(2N sqrt(2C/alpha))``
    events each and returns the candidate (including the start point) with the
    smallest objective.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    N = obj.num_blocks
    if c_estimate is None:
        c_estimate = estimate_restart_constant(obj, z0, rng)
    restarts = int(np.ceil(np.log2(1.0 / p)))
    chain_iters = int(np.ceil(2.0 * N * np.sqrt(2.0 * c_estimate / alpha)))
    best_y = np.array(z0, dtype=float)
    best_phi = obj.value(best_y)
    total_iters = 0
    stop_reason = "cap"
    for _ in range(max(restarts, 1)):
        res = arbcd_chain(
            obj,
            z0,
            chain_iters,
            rng,
            residual_target=residual_target,
            event_callback=event_callback,
        )
        total_iters += res.iterations
        phi = obj.value(res.y)
        if phi < best_phi:
            best_phi, best_y = phi, res.y
        if res.stop_reason == "residual":
            stop_reason = "residual"
            best_y = res.y
            break
    return SolveResult(best_y, total_iters, stop_reason, values=[best_phi])
