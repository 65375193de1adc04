"""Consensus ADMM baselines.

Two alternating-direction baselines over the same graph Laplacian coupling:
a direct method whose per-node subproblem is the proximal map of the full
composite objective, and a split method that separates the regularizer (in
closed form) from the smooth loss (nested solve).  Both avoid materializing
edge variables and dual multipliers; running per-node sums carry the same
information.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .funcs import NodeProblem
from .graph import Graph, consensus_violation, laplacian_apply
from .netsim import CommLedger
from .solvers import apg
from .trace import RunTrace, rel_subopt

NESTED_TOL = 1e-9
NESTED_CAP = 200_000


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


def _anchored_prox(
    node: NodeProblem,
    center: np.ndarray,
    t: float,
    prox: Callable[[np.ndarray, float], np.ndarray],
    rho_value: Callable[[np.ndarray], float],
    residual: Callable[[np.ndarray, np.ndarray], float],
) -> tuple[np.ndarray, int]:
    """``argmin_u t * loss(u) + rho(u) + 0.5 ||u - center||^2`` by an
    accelerated run in which the quadratic anchor joins the smooth part."""
    res = apg(
        smooth_value=lambda u: t * node.loss.value(u)
        + 0.5 * float(np.sum((u - center) ** 2)),
        smooth_grad=lambda u: t * node.loss.grad(u) + (u - center),
        prox=prox,
        rho_value=rho_value,
        residual=residual,
        lipschitz=t * node.loss.lipschitz + 1.0,
        x0=center,
        residual_target=NESTED_TOL,
        max_iter=NESTED_CAP,
    )
    if res.stop_reason != "residual":
        raise NestedSolveError(f"nested prox stalled above residual {NESTED_TOL}")
    return res.y, res.iterations


def _huber_prox(node: NodeProblem, center: np.ndarray, t: float) -> tuple[np.ndarray, int]:
    """``argmin_u t * loss(u) + 0.5 ||u - center||^2``, to a small gradient."""
    return _anchored_prox(
        node, center, t,
        prox=lambda v, tau: v,
        rho_value=lambda u: 0.0,
        residual=lambda g, u: float(np.linalg.norm(g)),
    )


def _composite_prox(node: NodeProblem, center: np.ndarray, t: float) -> tuple[np.ndarray, int]:
    """``argmin_u t * F(u) + 0.5 ||u - center||^2`` for the full composite.

    The regularizer keeps its closed-form prox, and the stopping test is the
    minimum-norm subgradient of the whole shifted objective.
    """
    return _anchored_prox(
        node, center, t,
        prox=lambda v, tau: node.reg.prox(v, tau * t),
        rho_value=lambda u: t * node.reg.value(u),
        residual=lambda g, u: node.reg.subgrad_residual(t, g, u),
    )


def sadmm_midpoint_objective(nodes, x: np.ndarray, y: np.ndarray) -> float:
    mid = 0.5 * (x + y)
    return sum(p.value(mid[i]) for i, p in enumerate(nodes))


def sadmm_cv(graph: Graph, x: np.ndarray, y: np.ndarray) -> float:
    """Consensus violation including the split gap, normalized by sqrt(n)."""
    edge_cv = consensus_violation(graph, x, normalize=False)
    split_cv = float(np.max(np.linalg.norm(x - y, axis=1)))
    return max(edge_cv, split_cv) / math.sqrt(x.shape[1])


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
        timed_out = (
            budget_secs is not None and time.monotonic() - trace.started > budget_secs
        )
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
    coupled center, a nested smooth-loss prox, then refreshes the
    neighborhood averages and running sums.  The reported objective takes
    both primal copies at their midpoint.
    """
    trace = RunTrace("sadmm", config={"c_admm": c_admm})
    N, n = graph.num_nodes, nodes[0].n
    degrees = graph.degrees.astype(float)
    coef = degrees**2 + degrees + 1.0
    step = 1.0 / (c_admm * coef)

    x = np.zeros((N, n)) if x0 is None else np.array(x0, dtype=float)
    state = SadmmState(
        x=x, y=x.copy(), p=np.zeros((N, n)), p_tilde=np.zeros((N, n)),
        r=np.zeros((N, n)), c_admm=c_admm,
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
            state.y[i], it = _huber_prox(nodes[i], y_center[i], step[i])
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
    objective, solved to high accuracy by a nested accelerated run; that cost
    is the point of the comparison.  Traffic is charged at 3 vector units per
    node per iteration.
    """
    trace = RunTrace("admm", config={"c_admm": c_admm})
    N, n = graph.num_nodes, nodes[0].n
    degrees = graph.degrees.astype(float)
    # isolated nodes decouple entirely; unit coefficient keeps the prox defined
    coef = np.maximum(degrees**2 + degrees, 1.0)
    step = 1.0 / (c_admm * coef)

    x = np.zeros((N, n)) if x0 is None else np.array(x0, dtype=float)
    p = np.zeros((N, n))
    s = neighborhood_average(graph, x)
    ledger = CommLedger(N)

    def admm_step() -> tuple[float, float, float, int]:
        nonlocal s, p
        agg = laplacian_apply(graph, s + p)
        center = x - agg / coef[:, None]
        nested = 0
        for i in range(N):
            x[i], it = _composite_prox(nodes[i], center[i], step[i])
            ledger.charge_prox(i + 1, it)
            ledger.charge_grad(i + 1, it)
            nested += it
            ledger.charge_send(i + 1, 3)
        s = neighborhood_average(graph, x)
        p += s
        return (
            sum(pb.value(x[i]) for i, pb in enumerate(nodes)),
            consensus_violation(graph, x),
            float(c_admm * np.linalg.norm(p)),
            nested,
        )

    _admm_loop(trace, ledger, admm_step, c_admm, iters, reference, eps_opt,
               eps_feas, budget_secs)
    trace.config["final_x"] = x
    return trace
