"""Consensus ADMM baselines.

Two alternating-direction baselines over the same graph Laplacian coupling:
a direct method whose per-node subproblem is the proximal map of the full
composite objective (projected semismooth Newton on its Huber dual), and a
split method that separates the regularizer (in closed form) from the Huber
loss (exact prox by semismooth Newton), each solving all nodes' subproblems
in one stacked loop.  Both avoid materializing edge variables and dual
multipliers; running per-node sums carry the same information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import integer, real
from .funcs import _TINY, NodeStack, _clip, sparse_group_min_norm
from .graph import Graph, consensus_violation, laplacian_apply
from .solvers import apg  # noqa: F401  (benchmark/spans.py traces it)
from .trace import CommLedger, RunTrace, TraceRow

NESTED_TOL = 1e-9
# pass cap of the Huber-prox and composite-prox Newton loops
NEWTON_CAP = 100
# sufficient-decrease fraction and smallest step of the Newton line search
ARMIJO = 1e-4
MIN_STEP = 1e-12
# the penalty's and the iteration count's domains, also in bench.CONFIG_DOMAINS
PENALTY, ITERS = dict(low=0, strict=True), dict(low=1)


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


def neighborhood_average(graph: Graph, x: np.ndarray) -> np.ndarray:
    """Per-node ``s_i = (d_i x_i - sum_{j ~ i} x_j) / (d_i + 1)``."""
    return laplacian_apply(graph, x) / (graph.degrees[:, None] + 1.0)


def _huber_prox(
    stack: NodeStack, centers: np.ndarray, t: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row ``i`` is ``argmin_u t_i * loss_i(u) + 0.5 ||u - centers_i||^2`` by
    semismooth Newton from ``starts[i]``, to a gradient of norm at most
    ``NESTED_TOL``, for all nodes in one loop.

    With ``F`` the rows of ``A u - b`` inside the Huber threshold, the
    generalized Hessian is ``I + t A_F^T A_F``; Woodbury turns each Newton
    system into one ``|F| x |F|`` solve, batched over the nodes whose ``F``
    have one size.  An Armijo backtracking search on the objective makes the
    method converge from any start.  Each node keeps its own test, direction,
    step and pass count, and retires once its test holds (a zero direction from
    then on); where the nodes share one ``m`` its row is a per-node loop's bit
    for bit.  Returns the points and the passes per node, one gradient each.
    """
    u = np.array(starts, dtype=float)
    U, passes = np.empty_like(u), np.zeros(len(u), dtype=np.int64)
    running = np.ones(len(u), dtype=bool)
    A, b, delta, C = stack._A, stack._b, stack._delta, centers
    t = np.asarray(t, dtype=float)[:, None]
    for k in range(1, NEWTON_CAP + 1):
        r = (A @ u[:, :, None])[:, :, 0] - b
        w = _clip(r, delta)
        g = t * (A.transpose(0, 2, 1) @ w[:, :, None])[:, :, 0] + (u - C)
        # each np.vecdot row is its ``x @ y`` bit for bit, so this norm is
        # np.linalg.norm's
        g_norm = np.sqrt(np.vecdot(g, g))
        # a node that is done has a finite gradient norm
        if not np.isfinite(g_norm).all():
            raise FloatingPointError(f"non-finite Huber prox gradient at pass {k}")
        done = running & (g_norm <= NESTED_TOL)
        if done.any():
            U[done], passes[done], running = u[done], k, running & ~done
            if not running.any():
                return U, passes
        # a padded row has threshold 0, so it is never inside; a retired node
        # has no row inside and a zero gradient, so its direction is zero
        inside = np.abs(r) < delta
        if not running.all():
            inside &= running[:, None]
            g *= running[:, None]
        sizes = inside.sum(axis=1)
        P = np.empty_like(g)
        F_sizes = sorted(set(sizes.tolist()))
        for f in F_sizes:
            sel = slice(None) if len(F_sizes) == 1 else np.flatnonzero(sizes == f)
            t_F, g_F = t[sel], g[sel]
            A_F = A[sel][inside[sel]].reshape(len(g_F), f, A.shape[2])
            A_Ft = A_F.transpose(0, 2, 1)
            M = np.eye(f) + t_F[:, :, None] * (A_F @ A_Ft)
            z = np.linalg.solve(M, A_F @ g_F[:, :, None])
            P[sel] = t_F * (A_Ft @ z)[:, :, 0] - g_F
        q = (A @ P[:, :, None])[:, :, 0]
        descent = (1.0 - ARMIJO) * np.vecdot(g, P)
        half_pp = 0.5 * np.vecdot(P, P)
        s = np.ones(len(u))
        while True:
            # objective change at step s less ARMIJO * s * g.p, summed without
            # cancellation: with w = clip(r), each Huber term changes by
            # w d + (w' - w)(r' - (w' + w) / 2); a node passes again at its s
            r_s = r + s[:, None] * q
            w_s = _clip(r_s, delta)
            curvature = t[:, 0] * np.add.reduce(
                (w_s - w) * (r_s - 0.5 * (w_s + w)), axis=1)
            fail = ~(s * descent + curvature + s * s * half_pp <= 0.0)
            if not fail.any():
                break
            s[fail] *= 0.5
            if (s < MIN_STEP).any():
                raise NestedSolveError("Huber prox line search found no decrease")
        u = u + s[:, None] * P
    raise NestedSolveError(
        f"Huber prox gradient above {NESTED_TOL} after {NEWTON_CAP} Newton passes"
    )


def _composite_prox(
    stack: NodeStack, centers: np.ndarray, t: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row ``i`` is ``argmin_u t_i * F_i(u) + 0.5 ||u - centers_i||^2`` for the
    full composite ``F_i``, for all nodes in one loop: projected semismooth
    Newton (Bertsekas 1982) on the Huber dual ``w`` in ``[-delta, delta]^m``
    from ``clip(A starts - b)``, with ``u = prox_{t rho}(c - t A^T w)``.  A
    node stops at the first point tried that passes ``stack.residual_map(t)``
    at ``NESTED_TOL``.  Returns the points and the points tried per node, one
    gradient and one prox each.
    """
    prox, residuals, part = stack.prox_map(t), stack.residual_map(t), stack.partition
    (N, n), A, At, b, delta = stack.shape, stack._A, stack._At, stack._b, stack._delta
    t_col, tau, m = t[:, None], t[stack._seg_node] * stack._b2, b.shape[1]
    # the loss columns in segment order, per node and side by side
    Ap = np.take_along_axis(A, (part.perm.reshape(N, n) % n)[:, None, :], axis=2)
    Apt, Apm = Ap.transpose(0, 2, 1), Ap.transpose(1, 0, 2).reshape(m, N * n)
    w = _clip((A @ starts[:, :, None])[:, :, 0] - b, delta)
    z = centers - t_col * (At @ w[:, :, None])[:, :, 0]
    u, U = prox(z), np.empty_like(centers)
    tried, running = np.ones(N, dtype=np.int64), np.ones(N, dtype=bool)
    for k in range(1, NEWTON_CAP + 1):
        r = (A @ u[:, :, None])[:, :, 0] - b
        g = t_col * (At @ _clip(r, delta)[:, :, None])[:, :, 0] + (u - centers)
        res = residuals(g, u)
        if not np.isfinite(res[running]).all():
            raise FloatingPointError(f"non-finite composite prox residual at pass {k}")
        done = running & (res <= NESTED_TOL)
        U[done], running = u[done], running & ~done
        if not running.any():
            return U, tried
        # phi(w) = t (0.5 ||w||^2 + b^T w) + 0.5 ||u||^2 (as rho is positively
        # homogeneous) has gradient t (w - r) and generalized Hessian t (I + t A
        # J A^T).  A row within eps of the bound its gradient pushes it to is
        # bound and takes a gradient step over t; the free rows a Newton step
        gs = w - r
        eps = np.minimum(0.1 * delta, np.linalg.norm(w - _clip(r, delta), axis=1)[:, None])
        free = ~(((w <= eps - delta) & (gs > 0)) | ((w >= delta - eps) & (gs < 0)))
        # J, the prox's generalized Jacobian (Zhang, Zhang, Sun and Toh 2020), is
        # a I + (1 - a) u_s u_s^T / ||u_s||^2 on group s's nonzeros, a = ||u_s||
        # / (||u_s|| + tau_s): d holds a and h h^T the rest
        up = u.take(part.perm)
        norms = part.norms(up)
        a = norms / np.maximum(norms + tau, _TINY)
        d = part.spread(a) * (up != 0.0)
        h = up * part.spread(np.sqrt(1.0 - a) / np.maximum(norms, _TINY))

        def J(x: np.ndarray) -> np.ndarray:  # along the last axis, in segment order
            group = np.add.reduceat(h * x, part.starts, axis=-1)
            return d * x + h * np.repeat(group, part.sizes, axis=-1)

        AJA = J(Apm).reshape(m, N, n).transpose(1, 0, 2) @ Apt
        M = np.eye(m) + t_col[:, :, None] * (AJA * (free[:, :, None] & free[:, None, :]))
        p = np.linalg.solve(M, -gs[:, :, None])[:, :, 0] * running[:, None]
        slope = t * np.vecdot(gs * free, p)
        # u(w) is rounded to about eps ||z||, so phi's change is known to about
        # eps ||z|| ||u|| and a smaller rise counts as none.  That grows with t;
        # once the Newton fall is below it, the primal Newton step -(J - t J A^T
        # M^-1 A J) v from u, v the minimum-norm subgradient, is tried too
        roundoff = np.finfo(float).eps * np.sqrt(np.vecdot(z, z) * np.vecdot(u, u))
        polish = running & (-slope <= roundoff)
        if polish.any():
            v = sparse_group_min_norm(part, g.take(part.perm), up, t.repeat(n) * stack._b1,
                                      tau, np.maximum(tau, _TINY))
            Av = (Ap @ J(v).reshape(N, n, 1)) * free[:, :, None]
            step = J(v - (Apt @ (t_col[:, :, None] * np.linalg.solve(M, Av))).reshape(-1))
            u_pol = u - part.scatter(step).reshape(N, n)
            g_pol = t_col * stack.loss_grad(u_pol) + (u_pol - centers)
            done, tried = polish & (residuals(g_pol, u_pol) <= NESTED_TOL), tried + polish
            U[done], running = u_pol[done], running & ~done
        s, searching = np.ones(N), running
        while True:
            w_s = _clip(w + s[:, None] * p, delta)
            z_s = centers - t_col * (At @ w_s[:, :, None])[:, :, 0]
            u_s, tried = prox(z_s), tried + searching
            dw, du = w_s - w, u_s - u
            # phi(w_s) - phi(w) from the differences, which do not cancel
            change = t * np.vecdot(dw, 0.5 * (w_s + w) + b) + np.vecdot(du, 0.5 * (u_s + u))
            predicted = s * slope + t * np.vecdot(gs * ~free, dw)
            searching = searching & ~(change <= ARMIJO * predicted + roundoff)
            if not searching.any():
                break
            s[searching] *= 0.5
            if (s < MIN_STEP).any():
                raise NestedSolveError("composite prox line search found no decrease")
        w, z, u = w_s, z_s, u_s
    raise NestedSolveError(
        f"composite prox residual above {NESTED_TOL} after {NEWTON_CAP} Newton passes"
    )


def sadmm_cv(graph: Graph, x: np.ndarray, y: np.ndarray) -> float:
    """Consensus violation including the split gap, normalized by sqrt(n)."""
    split_gap = float(np.max(np.linalg.norm(x - y, axis=1)))
    return max(consensus_violation(graph, x), split_gap / math.sqrt(x.shape[1]))


def _check_admm_args(
    nodes, graph: Graph, c_admm: float, iters: int
) -> tuple[np.ndarray, NodeStack]:
    """Reject bad arguments of both baselines; returns the start point (zeros
    of shape ``(N, n)``) and the node stack."""
    if len(nodes) != graph.num_nodes:
        raise ValueError("need one node problem per graph node")
    real("c_admm", c_admm, **PENALTY)
    integer("iters", iters, **ITERS)
    stack = NodeStack(nodes)
    return np.zeros(stack.shape), stack


def sadmm_solve(
    nodes,
    graph: Graph,
    c_admm: float = 1.0,
    iters: int = 1000,
    reference: float | None = None,
    eps_opt: float = 1e-3,
    eps_feas: float = 1e-4,
    budget_secs: float | None = None,
) -> RunTrace:
    """Split alternating-direction baseline.

    Each iteration runs, for all nodes at once: the closed-form regularizer
    prox at the coupled centers, the Huber-loss prox warm-started at the
    previous ``y`` (one gradient charged per Newton pass of each node),
    then refreshes the neighborhood averages and running sums.  The reported
    objective takes both primal copies at their midpoint.
    """
    x, stack = _check_admm_args(nodes, graph, c_admm, iters)
    trace = RunTrace("sadmm", CommLedger(graph.num_nodes), reference, {"c_admm": c_admm})
    degrees = graph.degrees.astype(float)
    coef = degrees**2 + degrees + 1.0
    step = 1.0 / (c_admm * coef)
    prox = stack.prox_map(step)

    state = SadmmState(
        x=x, y=x.copy(), p=np.zeros_like(x), p_tilde=np.zeros_like(x),
        r=np.zeros_like(x),
    )
    s = neighborhood_average(graph, state.x)
    s_tilde = neighborhood_average(graph, state.y)

    def sadmm_step(k: int) -> tuple[TraceRow, bool]:
        nonlocal s, s_tilde
        half_gap = 0.5 * (state.x - state.y)
        agg_x = laplacian_apply(graph, s + state.p)
        agg_y = laplacian_apply(graph, s_tilde + state.p_tilde)
        x_center = state.x - (agg_x + state.r + half_gap) / coef[:, None]
        y_center = state.y - (agg_y - state.r - half_gap) / coef[:, None]

        state.x = prox(x_center)
        state.y, passes = _huber_prox(stack, y_center, step, state.y)
        trace.ledger.prox_evals += 1
        trace.ledger.grad_evals += passes
        # per-iteration traffic: both primal copies plus both sum streams
        trace.ledger.vectors_sent += 6

        s = neighborhood_average(graph, state.x)
        state.p += s
        s_tilde = neighborhood_average(graph, state.y)
        state.p_tilde += s_tilde
        state.r += 0.5 * (state.x - state.y)
        row = trace.record(
            k=k, lam=c_admm, F_sum=stack.objective(0.5 * (state.x + state.y)),
            CV=sadmm_cv(graph, state.x, state.y),
            dual_norm=float(c_admm * np.linalg.norm(state.p)),
            inner_iters=int(passes.sum()), stop_reason="residual",
        )
        return row, False

    trace.config["final_state"] = state
    return trace.run(sadmm_step, iters, eps_opt, eps_feas, budget_secs)


def admm_solve(
    nodes,
    graph: Graph,
    c_admm: float = 1.0,
    iters: int = 1000,
    reference: float | None = None,
    eps_opt: float = 1e-3,
    eps_feas: float = 1e-4,
    budget_secs: float | None = None,
) -> RunTrace:
    """Direct alternating-direction baseline with one primal copy per node.

    The per-node subproblem is the proximal map of the full composite
    objective, solved to high accuracy for all nodes at once by a nested
    Newton run warm-started at the previous ``x`` (one gradient and one prox
    charged per point it tries for each node); that cost is the point of the
    comparison.  Traffic is charged at 3 vector units per node per iteration.
    """
    x, stack = _check_admm_args(nodes, graph, c_admm, iters)
    trace = RunTrace("admm", CommLedger(graph.num_nodes), reference, {"c_admm": c_admm})
    degrees = graph.degrees.astype(float)
    coef = degrees**2 + degrees
    step = 1.0 / (c_admm * coef)

    p = np.zeros_like(x)
    s = neighborhood_average(graph, x)

    def admm_step(k: int) -> tuple[TraceRow, bool]:
        nonlocal s, p
        agg = laplacian_apply(graph, s + p)
        center = x - agg / coef[:, None]
        x[:], nested = _composite_prox(stack, center, step, x)
        trace.ledger.prox_evals += nested
        trace.ledger.grad_evals += nested
        trace.ledger.vectors_sent += 3
        s = neighborhood_average(graph, x)
        p += s
        row = trace.record(
            k=k, lam=c_admm, F_sum=stack.objective(x), CV=consensus_violation(graph, x),
            dual_norm=float(c_admm * np.linalg.norm(p)), inner_iters=int(nested.sum()),
            stop_reason="residual",
        )
        return row, False

    trace.config["final_state"] = x
    return trace.run(admm_step, iters, eps_opt, eps_feas, budget_secs)
