"""Consensus ADMM baselines.

Two alternating-direction baselines over the same graph Laplacian coupling:
a direct method whose per-node subproblem is the proximal map of the full
composite objective, and a split method that separates the regularizer (in
closed form) from the Huber loss (exact prox by semismooth Newton).  Both
avoid materializing edge variables and dual multipliers; running per-node
sums carry the same information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .funcs import NodeProblem, _clip, objective_sum
from .graph import Graph, consensus_violation, laplacian_apply
from .netsim import CommLedger
from .solvers import apg
from .trace import RunTrace, check_budget_secs, rel_subopt

NESTED_TOL = 1e-9
# iteration caps of the nested composite-prox APG and the Huber-prox Newton
NESTED_CAP = 200_000
NEWTON_CAP = 50
# sufficient-decrease fraction and smallest step of the Newton line search
ARMIJO = 1e-4
MIN_STEP = 1e-12


class NestedSolveError(RuntimeError):
    """The inner proximal subproblem did not reach its tolerance."""


@dataclass
class SadmmState:
    """Split-method state: two primal copies and the running sums.

    ``p`` and ``p_tilde`` accumulate the neighborhood averages ``s`` and
    ``s_tilde``; ``r`` accumulates half the split gap ``x - y``.
    """

    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    p_tilde: np.ndarray
    r: np.ndarray
    c_admm: float

    def __post_init__(self) -> None:
        if self.c_admm <= 0:
            raise ValueError("penalty parameter must be positive")


def neighborhood_average(graph: Graph, x: np.ndarray) -> np.ndarray:
    """Per-node ``s_i = (d_i x_i - sum_{j ~ i} x_j) / (d_i + 1)``."""
    return laplacian_apply(graph, x) / (graph.degrees[:, None] + 1.0)


def _huber_prox(
    node: NodeProblem, center: np.ndarray, t: float, start: np.ndarray
) -> tuple[np.ndarray, int]:
    """``argmin_u t * loss(u) + 0.5 ||u - center||^2`` by semismooth Newton
    from ``start``, to a gradient of norm at most ``NESTED_TOL``.

    With ``F`` the rows of ``A u - b`` inside the Huber threshold, the
    generalized Hessian is ``I + t A_F^T A_F``; Woodbury turns each Newton
    system into one ``|F| x |F|`` solve.  An Armijo backtracking search on the
    objective makes the method converge from any start.  Returns the point
    and the number of passes, one gradient each.
    """
    A, b, delta = node.loss.A, node.loss.b, node.loss.delta
    u = np.array(start, dtype=float)
    for passes in range(1, NEWTON_CAP + 1):
        r = A @ u - b
        w = _clip(r, delta)
        g = t * (A.T @ w) + (u - center)
        g_norm = float(np.linalg.norm(g))
        if g_norm <= NESTED_TOL:
            return u, passes
        if not math.isfinite(g_norm):
            raise FloatingPointError(f"non-finite Huber prox gradient at pass {passes}")
        A_F = A[np.abs(r) < delta]
        z = np.linalg.solve(np.eye(A_F.shape[0]) + t * (A_F @ A_F.T), A_F @ g)
        p = t * (A_F.T @ z) - g
        q = A @ p
        descent = (1.0 - ARMIJO) * float(g @ p)
        half_pp = 0.5 * float(p @ p)
        s = 1.0
        while True:
            # objective change at step s less ARMIJO * s * g.p, summed without
            # cancellation: with w = clip(r), each Huber term changes by
            # w d + (w' - w)(r' - (w' + w) / 2)
            r_s = r + s * q
            w_s = _clip(r_s, delta)
            curvature = t * float(np.sum((w_s - w) * (r_s - 0.5 * (w_s + w))))
            if s * descent + curvature + s * s * half_pp <= 0.0:
                break
            s *= 0.5
            if s < MIN_STEP:
                raise NestedSolveError("Huber prox line search found no decrease")
        u += s * p
    raise NestedSolveError(
        f"Huber prox gradient above {NESTED_TOL} after {NEWTON_CAP} Newton passes"
    )


def _composite_prox(
    node: NodeProblem, center: np.ndarray, t: float, start: np.ndarray
) -> tuple[np.ndarray, int]:
    """``argmin_u t * F(u) + 0.5 ||u - center||^2`` for the full composite.

    An accelerated run from ``start`` in which the quadratic anchor joins the
    smooth part, making it 1-strongly convex, so the momentum is the
    strongly convex constant.  The regularizer keeps its closed-form prox,
    and the stopping test is the minimum-norm subgradient of the whole
    shifted objective.
    """
    res = apg(
        smooth_grad=lambda u: t * node.loss.grad(u) + (u - center),
        prox=lambda v, tau: node.reg.prox(v, tau * t),
        residual=lambda g, u: node.reg.subgrad_residual(t, g, u),
        lipschitz=t * node.loss.lipschitz + 1.0,
        x0=start,
        residual_target=NESTED_TOL,
        max_iter=NESTED_CAP,
        strong_convexity=1.0,
    )
    if res.stop_reason != "residual":
        raise NestedSolveError(f"nested prox stalled above residual {NESTED_TOL}")
    return res.y, res.iterations


def sadmm_midpoint_objective(nodes, x: np.ndarray, y: np.ndarray) -> float:
    return objective_sum(nodes, 0.5 * (x + y))


def sadmm_cv(graph: Graph, x: np.ndarray, y: np.ndarray) -> float:
    """Consensus violation including the split gap, normalized by sqrt(n)."""
    edge_cv = consensus_violation(graph, x, normalize=False)
    split_cv = float(np.max(np.linalg.norm(x - y, axis=1)))
    return max(edge_cv, split_cv) / math.sqrt(x.shape[1])


def _check_admm_args(
    nodes, graph: Graph, x0, c_admm: float, iters: int, budget_secs: float | None
) -> np.ndarray:
    """Reject bad arguments of both baselines; returns the start point,
    ``x0`` or zeros of shape ``(N, n)``."""
    if len(nodes) != graph.num_nodes:
        raise ValueError("need one node problem per graph node")
    if not c_admm > 0:
        raise ValueError(f"c_admm must be positive, got {c_admm}")
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    check_budget_secs(budget_secs)
    shape = (graph.num_nodes, nodes[0].n)
    x = np.zeros(shape) if x0 is None else np.array(x0, dtype=float)
    if x.shape != shape:
        raise ValueError(f"x0 must have shape {shape}, got {x.shape}")
    return x


def _admm_loop(
    trace: RunTrace,
    ledger: CommLedger,
    step: Callable[[], tuple[float, float, float, int]],
    c_admm: float,
    iters: int,
    reference: float | None,
    eps_opt: float,
    eps_feas: float,
    budget_secs: float | None,
) -> None:
    """Run ``step() -> (F_sum, CV, dual_norm, nested iterations)`` once per
    iteration, recording each, until converged, out of time or out of
    iterations."""
    for k in range(1, iters + 1):
        f_sum, cv, dual_norm, nested = step()
        rel = rel_subopt(f_sum, reference)
        converged = rel <= eps_opt and cv <= eps_feas
        timed_out = trace.past_budget(budget_secs)
        trace.record(
            k=k, lam=c_admm, F_sum=f_sum, reference=reference, CV=cv,
            ledger=ledger, dual_norm=dual_norm, inner_iters=nested,
            stop_reason=(
                "converged" if converged
                else "timeout" if timed_out
                else "iters" if k == iters
                else "running"
            ),
        )
        if converged or timed_out:
            trace.converged = converged
            break
    trace.config["ledger"] = ledger.snapshot()


def sadmm_solve(
    nodes,
    graph: Graph,
    c_admm: float = 1.0,
    iters: int = 1000,
    x0: np.ndarray | None = None,
    reference: float | None = None,
    eps_opt: float = 1e-3,
    eps_feas: float = 1e-4,
    budget_secs: float | None = None,
) -> RunTrace:
    """Split alternating-direction baseline.

    Each iteration runs, per node: a closed-form regularizer prox at the
    coupled center, the Huber-loss prox warm-started at the node's previous
    ``y_i`` (one gradient charged per Newton pass), then refreshes the
    neighborhood averages and running sums.  The reported objective takes
    both primal copies at their midpoint.
    """
    x = _check_admm_args(nodes, graph, x0, c_admm, iters, budget_secs)
    trace = RunTrace("sadmm", config={"c_admm": c_admm})
    N = graph.num_nodes
    degrees = graph.degrees.astype(float)
    coef = degrees**2 + degrees + 1.0
    step = 1.0 / (c_admm * coef)

    state = SadmmState(
        x=x, y=x.copy(), p=np.zeros_like(x), p_tilde=np.zeros_like(x),
        r=np.zeros_like(x), c_admm=c_admm,
    )
    s = neighborhood_average(graph, state.x)
    s_tilde = neighborhood_average(graph, state.y)
    ledger = CommLedger(N)

    def sadmm_step() -> tuple[float, float, float, int]:
        nonlocal s, s_tilde
        half_gap = 0.5 * (state.x - state.y)
        agg_x = laplacian_apply(graph, s + state.p)
        agg_y = laplacian_apply(graph, s_tilde + state.p_tilde)
        x_center = state.x - (agg_x + state.r + half_gap) / coef[:, None]
        y_center = state.y - (agg_y - state.r - half_gap) / coef[:, None]

        nested = 0
        for i in range(N):
            state.x[i] = nodes[i].reg.prox(x_center[i], step[i])
            ledger.charge_prox(i + 1)
            state.y[i], it = _huber_prox(nodes[i], y_center[i], step[i], state.y[i])
            ledger.charge_grad(i + 1, it)
            nested += it
            # per-iteration traffic: both primal copies plus both sum streams
            ledger.charge_send(i + 1, 6)

        s = neighborhood_average(graph, state.x)
        state.p += s
        s_tilde = neighborhood_average(graph, state.y)
        state.p_tilde += s_tilde
        state.r += 0.5 * (state.x - state.y)
        return (
            sadmm_midpoint_objective(nodes, state.x, state.y),
            sadmm_cv(graph, state.x, state.y),
            float(c_admm * np.linalg.norm(state.p)),
            nested,
        )

    _admm_loop(trace, ledger, sadmm_step, c_admm, iters, reference, eps_opt,
               eps_feas, budget_secs)
    trace.config["final_state"] = state
    return trace


def admm_solve(
    nodes,
    graph: Graph,
    c_admm: float = 1.0,
    iters: int = 1000,
    x0: np.ndarray | None = None,
    reference: float | None = None,
    eps_opt: float = 1e-3,
    eps_feas: float = 1e-4,
    budget_secs: float | None = None,
) -> RunTrace:
    """Direct alternating-direction baseline with one primal copy per node.

    The per-node subproblem is the proximal map of the full composite
    objective, solved to high accuracy by a nested accelerated run
    warm-started at the node's previous ``x_i``; that cost is the point of
    the comparison.  Traffic is charged at 3 vector units per node per
    iteration.
    """
    x = _check_admm_args(nodes, graph, x0, c_admm, iters, budget_secs)
    trace = RunTrace("admm", config={"c_admm": c_admm})
    N = graph.num_nodes
    degrees = graph.degrees.astype(float)
    # isolated nodes decouple entirely; unit coefficient keeps the prox defined
    coef = np.maximum(degrees**2 + degrees, 1.0)
    step = 1.0 / (c_admm * coef)

    p = np.zeros_like(x)
    s = neighborhood_average(graph, x)
    ledger = CommLedger(N)

    def admm_step() -> tuple[float, float, float, int]:
        nonlocal s, p
        agg = laplacian_apply(graph, s + p)
        center = x - agg / coef[:, None]
        nested = 0
        for i in range(N):
            x[i], it = _composite_prox(nodes[i], center[i], step[i], x[i])
            ledger.charge_prox(i + 1, it)
            ledger.charge_grad(i + 1, it)
            nested += it
            ledger.charge_send(i + 1, 3)
        s = neighborhood_average(graph, x)
        p += s
        return (
            objective_sum(nodes, x),
            consensus_violation(graph, x),
            float(c_admm * np.linalg.norm(p)),
            nested,
        )

    _admm_loop(trace, ledger, admm_step, c_admm, iters, reference, eps_opt,
               eps_feas, budget_secs)
    trace.config["final_x"] = x
    return trace
