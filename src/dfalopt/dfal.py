"""Distributed first-order augmented Lagrangian solver.

The outer loop shrinks a penalty schedule geometrically and solves each
penalized subproblem inexactly: synchronously with the multi-step accelerated
proximal gradient oracle running over neighbor-exchange rounds, or
asynchronously with randomized block coordinate oracles driven by a seeded
activation schedule.  Dual variables are never materialized; their norms come
from Laplacian quadratic forms of the running penalty-weighted accumulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .funcs import NodeProblem, NodeStack
from .graph import Graph, laplacian_apply, laplacian_quadratic, spectral_bounds
from .netsim import AsyncNetwork, SyncNetwork
from .solvers import BlockObjective, arbcd_chain, fista_momentum, rbcd_run
from .trace import RunTrace, TraceRow


class ProtocolError(RuntimeError):
    """A node update referenced data it cannot have received."""


@dataclass
class DfalParams:
    """Penalty schedule and bounds for the outer loop.

    ``lam1, alpha1, xi1`` start the three geometric sequences (ratios
    ``c, c^2, c^2``); ``bx`` bounds iterate norms and only scales the inner
    iteration cap.
    """

    lam1: float
    alpha1: float
    xi1: float
    c: float = 0.7
    bx: float = 10.0
    psi_max: float = 0.0
    outer_cap: int = 100
    eps_opt: float = 1e-3
    eps_feas: float = 1e-4

    def __post_init__(self) -> None:
        if self.lam1 <= 0 or self.alpha1 <= 0 or self.xi1 <= 0:
            raise ValueError("schedule starting values must be positive")
        if not 0.0 < self.c < 1.0:
            raise ValueError("shrink factor must lie in (0, 1)")
        if self.bx <= 0:
            raise ValueError("iterate bound must be positive")

    def schedule(self, k: int) -> tuple[float, float, float]:
        """Values ``(lam, alpha, xi)`` at outer iteration ``k`` (1-based)."""
        f = self.c ** (k - 1)
        return self.lam1 * f, self.alpha1 * f * f, self.xi1 * f * f


@dataclass
class DfalState:
    """Mutable outer-loop state: iterate, accumulator, and diagnostics."""

    x: np.ndarray
    xbar: np.ndarray
    lam: float
    k: int
    theta_norm: float = 0.0

    def copy(self) -> "DfalState":
        return DfalState(self.x.copy(), self.xbar.copy(), self.lam, self.k,
                         self.theta_norm)


def coupling_constants(nodes: Sequence[NodeProblem]) -> tuple[float, float]:
    """(max smooth Lipschitz constant, min regularizer coercivity)."""
    l_bar = max(p.loss.lipschitz for p in nodes)
    tau_bar = min(p.reg.coercivity for p in nodes)
    return l_bar, tau_bar


def default_bx(nodes: Sequence[NodeProblem], x0: np.ndarray | None = None) -> float:
    scale = 0.0 if x0 is None else float(np.linalg.norm(x0))
    data = sum(
        float(np.linalg.norm(p.loss.b)) / math.sqrt(max(p.loss.num_rows, 1))
        for p in nodes
    )
    return 10.0 * (1.0 + scale + data)


def default_params(
    nodes: Sequence[NodeProblem],
    graph: Graph,
    c: float = 0.7,
    outer_cap: int = 100,
    eps_opt: float = 1e-3,
    eps_feas: float = 1e-4,
    bx: float | None = None,
) -> DfalParams:
    """Schedule start derived from the problem constants.

    ``lam1 = min(1, psi_max / max_i L_i)``; the accuracy sequences start at
    ``alpha1 = (lam1 * tau)^2 / (4N)`` and ``xi1 = lam1 * tau / 2``, which
    keeps ``xi1 / lam1 = tau / 2`` strictly below the coercivity constant.
    """
    l_bar, tau_bar = coupling_constants(nodes)
    if tau_bar <= 0:
        raise ValueError(
            "regularizer coercivity is zero (both weights vanish); "
            "the penalty method does not apply"
        )
    psi_max, _ = spectral_bounds(graph)
    lam1 = min(1.0, psi_max / l_bar) if l_bar > 0 else 1.0
    n_nodes = graph.num_nodes
    alpha1 = (lam1 * tau_bar) ** 2 / (4.0 * n_nodes)
    xi1 = 0.5 * lam1 * tau_bar
    return DfalParams(
        lam1=lam1,
        alpha1=alpha1,
        xi1=xi1,
        c=c,
        bx=bx if bx is not None else default_bx(nodes),
        psi_max=psi_max,
        outer_cap=outer_cap,
        eps_opt=eps_opt,
        eps_feas=eps_feas,
    )


def local_gradient(
    node: NodeProblem,
    lam: float,
    degree: int,
    own_y: np.ndarray,
    neighbor_y: Mapping[int, np.ndarray],
    own_xbar: np.ndarray,
    neighbor_xbar: Mapping[int, np.ndarray],
) -> np.ndarray:
    """Subproblem gradient block assembled from neighbor data only.

    ``q_i = lam * grad_i(y_i) + d_i (y_i + xbar_i) - sum_j (y_j + xbar_j)``
    over the neighbors ``j``; equals the corresponding block of the dense
    penalized gradient.
    """
    if set(neighbor_y) != set(neighbor_xbar) or len(neighbor_y) != degree:
        raise ProtocolError(
            f"expected blocks for {degree} neighbors, got {sorted(neighbor_y)}"
        )
    q = lam * node.loss.grad(own_y) + degree * (own_y + own_xbar)
    for j, yj in neighbor_y.items():
        q -= yj + neighbor_xbar[j]
    return q


def consensus_violation(graph: Graph, x: np.ndarray, normalize: bool = True) -> float:
    cv = max(
        float(np.linalg.norm(x[i - 1] - x[j - 1])) for i, j in graph.edges
    )
    if normalize:
        cv /= math.sqrt(x.shape[1])
    return cv


def objective_sum(nodes: Sequence[NodeProblem], x: np.ndarray) -> float:
    return sum(p.value(x[i]) for i, p in enumerate(nodes))


def feasibility_diagnostics(
    graph: Graph, state: DfalState
) -> tuple[float, float]:
    """Constraint-violation norm and dual norm, via quadratic forms only."""
    ax_norm = math.sqrt(max(laplacian_quadratic(graph, state.x), 0.0))
    return ax_norm, state.theta_norm


def _dual_norm(graph: Graph, xbar: np.ndarray, lam: float) -> float:
    return math.sqrt(max(laplacian_quadratic(graph, xbar), 0.0)) / lam


def _rel_subopt(f_sum: float, reference: float | None) -> float:
    if reference is None:
        return math.nan
    if reference == 0.0:
        return abs(f_sum)
    return abs(f_sum - reference) / abs(reference)


def inner_cap(params: DfalParams, block_L: np.ndarray, alpha: float) -> int:
    return max(1, math.ceil(params.bx * math.sqrt(2.0 * float(block_L.sum()) / alpha)))


def dfal_solve(
    nodes: Sequence[NodeProblem],
    graph: Graph,
    params: DfalParams,
    x0: np.ndarray | None = None,
    reference: float | None = None,
    lam_min: float = 0.0,
    gradient_check: Callable[[int, int, np.ndarray, np.ndarray, np.ndarray], None]
    | None = None,
) -> RunTrace:
    """Synchronous penalized consensus solve over the message simulator.

    Terminates when relative suboptimality (against ``reference``, if given)
    and consensus violation reach their targets, when the penalty drops below
    ``lam_min``, or at the outer cap.  ``gradient_check(k, ell, ybar, xbar, q)``
    fires at every inner iteration with the assembled gradient blocks.
    """
    N = graph.num_nodes
    if len(nodes) != N:
        raise ValueError("need one node problem per graph node")
    n = nodes[0].n
    _, tau_bar = coupling_constants(nodes)
    if params.xi1 / params.lam1 >= tau_bar:
        raise ValueError("xi1 / lam1 must stay below the coercivity constant")
    psi_max = params.psi_max if params.psi_max > 0 else spectral_bounds(graph)[0]
    loss_lip = np.array([p.loss.lipschitz for p in nodes])
    degrees = graph.degrees
    stack = NodeStack(nodes)

    x = np.zeros((N, n)) if x0 is None else np.array(x0, dtype=float)
    state = DfalState(x=x, xbar=np.zeros((N, n)), lam=params.lam1, k=0)
    net = SyncNetwork(graph, x)
    # Per-node view of neighbors' accumulators, rebuilt from received iterates.
    nbr_xbar = {
        i: {j: np.zeros(n) for j in graph.neighbors(i)} for i in range(1, N + 1)
    }

    trace = RunTrace("dfal", config={"lam1": params.lam1, "c": params.c})
    for k in range(1, params.outer_cap + 1):
        # closed-form schedule values, so traces match the geometric law exactly
        lam, alpha, xi = params.schedule(k)
        block_L = lam * loss_lip + psi_max
        cap = inner_cap(params, block_L, alpha)
        target = xi / math.sqrt(N)

        y_prev = state.x.copy()
        net.broadcast_state(state.x, charge=False)  # ybar^(1); already known
        t = 1.0
        inner = 0
        stop_reason = "cap"
        x_new = state.x.copy()
        for ell in range(1, cap + 1):
            inner = ell
            ybar = net.blocks
            q = np.empty((N, n))
            for i in range(1, N + 1):
                own, mailbox = net.node_inputs(i)
                q[i - 1] = local_gradient(
                    nodes[i - 1], lam, degrees[i - 1], own, mailbox,
                    state.xbar[i - 1], nbr_xbar[i],
                )
                net.ledger.charge_grad(i)
            if not np.all(np.isfinite(q)):
                raise FloatingPointError(
                    f"non-finite gradient at outer {k}, inner {ell}"
                )
            if gradient_check is not None:
                gradient_check(k, ell, ybar.copy(), state.xbar.copy(), q.copy())
            if stack.residuals(lam, q, ybar).max() <= target:
                x_new = ybar.copy()
                stop_reason = "residual"
                break
            y = stack.prox(ybar - q / block_L[:, None], lam / block_L)
            for i in range(1, N + 1):
                net.ledger.charge_prox(i)
            if ell == cap:
                x_new = y
                stop_reason = "cap"
                break
            t_next = fista_momentum(t)
            ybar_next = y + ((t - 1.0) / t_next) * (y - y_prev)
            y_prev, t = y, t_next
            net.broadcast_state(ybar_next)

        # outer update: share the adopted iterate, roll the accumulator
        state.x = x_new
        state.k = k
        state.lam = lam
        net.broadcast_state(state.x)
        lam_next = params.schedule(k + 1)[0]
        state.xbar = (lam_next / lam) * (state.xbar + state.x)
        for i in range(1, N + 1):
            _, mailbox = net.node_inputs(i)
            for j in graph.neighbors(i):
                nbr_xbar[i][j] = (lam_next / lam) * (nbr_xbar[i][j] + mailbox[j])
        state.theta_norm = _dual_norm(graph, state.xbar, lam_next)

        f_sum = objective_sum(nodes, state.x)
        cv = consensus_violation(graph, state.x)
        rel = _rel_subopt(f_sum, reference)
        ledger = net.ledger
        trace.append(
            TraceRow(
                k=k,
                lam=lam,
                F_sum=f_sum,
                rel_subopt=rel,
                CV=cv,
                comm_per_node_max=int(ledger.vectors_sent.max()),
                prox_count=int(ledger.prox_evals.sum()),
                grad_count=int(ledger.grad_evals.sum()),
                dual_norm=state.theta_norm,
                inner_iters=inner,
                stop_reason=stop_reason,
            )
        )
        if reference is not None and rel <= params.eps_opt and cv <= params.eps_feas:
            trace.converged = True
            break
        if reference is None and lam_min > 0 and lam_next <= lam_min:
            trace.converged = True
            break
    trace.config["final_state"] = state
    trace.config["ledger"] = net.ledger_snapshot()
    return trace


def _subproblem_objective(
    nodes: Sequence[NodeProblem],
    graph: Graph,
    lam: float,
    xbar: np.ndarray,
    block_L: np.ndarray,
    stack: NodeStack | None = None,
) -> BlockObjective:
    """Penalized subproblem as a block objective over stacked iterates.

    One event's block gradient is assembled from neighbor data by
    :func:`local_gradient`; the full gradient and the residuals of the
    every-``N``-events stopping test come from ``stack`` (built from
    ``nodes`` when not given) for all blocks at once.
    """
    if stack is None:
        stack = NodeStack(nodes)
    degrees = graph.degrees

    def smooth_value(Y: np.ndarray) -> float:
        total = lam * sum(p.loss.value(Y[i]) for i, p in enumerate(nodes))
        return total + 0.5 * laplacian_quadratic(graph, Y + xbar)

    def smooth_grad(Y: np.ndarray) -> np.ndarray:
        return lam * stack.loss_grad(Y) + laplacian_apply(graph, Y + xbar)

    def smooth_grad_block(i: int, Y: np.ndarray) -> np.ndarray:
        node_id = i + 1
        neighbor_y = {j: Y[j - 1] for j in graph.neighbors(node_id)}
        neighbor_xbar = {j: xbar[j - 1] for j in graph.neighbors(node_id)}
        return local_gradient(
            nodes[i], lam, degrees[i], Y[i], neighbor_y, xbar[i], neighbor_xbar
        )

    def prox(i: int, v: np.ndarray, tau: float) -> np.ndarray:
        return nodes[i].reg.prox(v, tau * lam)

    def rho_value(i: int, y: np.ndarray) -> float:
        return lam * nodes[i].reg.value(y)

    def residuals(G: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return stack.residuals(lam, G, Y)

    return BlockObjective(
        num_blocks=graph.num_nodes,
        block_len=nodes[0].n,
        L=block_L,
        smooth_value=smooth_value,
        smooth_grad=smooth_grad,
        smooth_grad_block=smooth_grad_block,
        prox=prox,
        rho_value=rho_value,
        residuals=residuals,
    )


def rbcd_budget_constant(
    obj: BlockObjective, y0: np.ndarray, rng: np.random.Generator
) -> float:
    """Safe over-estimate of the randomized-descent complexity constant.

    The exact constant involves the unknown optimal level set; a pilot chain
    supplies a stand-in best point and a factor-2 margin keeps the estimate an
    upper bound in practice.
    """
    N = obj.num_blocks
    phi0 = obj.value(y0)
    pilot = rbcd_run(obj, y0, 4 * N, rng)
    phi_best = min(phi0, obj.value(pilot.y))
    z_best = pilot.y if phi_best < phi0 else y0
    gap = phi0 - phi_best
    dist = float(np.sum(obj.L * np.sum((y0 - z_best) ** 2, axis=1)))
    return 2.0 * max(gap, dist, 1e-12)


@dataclass
class AsyncBudget:
    """Oracle budgets per subproblem, frozen so they grow geometrically."""

    oracle: str
    constant: float
    p_sub: float
    restarts: int = 1

    def events(self, alpha: float, num_blocks: int) -> int:
        if self.oracle == "rbcd":
            return math.ceil(
                2.0 * num_blocks * self.constant / alpha
                * (1.0 + math.log(1.0 / self.p_sub))
            )
        return math.ceil(2.0 * num_blocks * math.sqrt(2.0 * self.constant / alpha))


def async_dfal_solve(
    nodes: Sequence[NodeProblem],
    graph: Graph,
    params: DfalParams,
    p: float,
    oracle: str = "rbcd",
    seed: int = 0,
    outer_iters: int | None = None,
    x0: np.ndarray | None = None,
    reference: float | None = None,
) -> RunTrace:
    """Asynchronous variant: subproblems solved by randomized block oracles.

    Runs ``outer_iters`` outer iterations (defaults to the outer cap); each
    subproblem gets its theory-prescribed event budget at per-subproblem
    confidence ``(1 - p) ** (1 / outer_iters)``, with the per-block residual
    test still allowed to stop it early.  Events follow the simulator's
    seeded uniform activation schedule.
    """
    if oracle not in ("rbcd", "arbcd"):
        raise ValueError(f"unknown oracle {oracle!r}")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    N = graph.num_nodes
    n = nodes[0].n
    K_outer = outer_iters if outer_iters is not None else params.outer_cap
    p_sub = 1.0 - (1.0 - p) ** (1.0 / K_outer)

    psi_max = params.psi_max if params.psi_max > 0 else spectral_bounds(graph)[0]
    loss_lip = np.array([pb.loss.lipschitz for pb in nodes])
    degrees = graph.degrees.astype(float)
    stack = NodeStack(nodes)

    x = np.zeros((N, n)) if x0 is None else np.array(x0, dtype=float)
    state = DfalState(x=x, xbar=np.zeros((N, n)), lam=params.lam1, k=0)
    net = AsyncNetwork(graph, x)
    rng = np.random.default_rng(seed)

    trace = RunTrace(
        "afal-" + oracle,
        config={"p": p, "p_sub": p_sub, "seed": seed, "oracle": oracle,
                "budgets": [], "budget_constant": None},
    )
    budget: AsyncBudget | None = None
    for k in range(1, K_outer + 1):
        lam, alpha, xi = params.schedule(k)
        if oracle == "rbcd":
            block_L = lam * loss_lip + psi_max
        else:
            # separable-overapproximation constants for the accelerated oracle
            block_L = lam * loss_lip + degrees
        obj = _subproblem_objective(nodes, graph, lam, state.xbar, block_L, stack)
        if budget is None:
            const = (
                rbcd_budget_constant(obj, state.x, np.random.default_rng(seed + 1))
                if oracle == "rbcd"
                else _arbcd_constant(obj, state.x, np.random.default_rng(seed + 1))
            )
            restarts = 1 if oracle == "rbcd" else max(
                1, math.ceil(math.log2(1.0 / p_sub))
            )
            budget = AsyncBudget(oracle, const, p_sub, restarts)
            trace.config["budget_constant"] = const
        events = budget.events(alpha, N)
        trace.config["budgets"].append(events)
        target = xi / math.sqrt(N)

        def on_event(ell: int, i0: int) -> None:
            # one activation: broadcast to neighbors, one grad and one prox
            nid = i0 + 1
            deg = len(graph.neighbors(nid))
            net.ledger.charge_send(nid, deg)
            for j in graph.neighbors(nid):
                net.ledger.charge_receive(j)
            net.ledger.charge_grad(nid)
            net.ledger.charge_prox(nid)

        if oracle == "rbcd":
            result = rbcd_run(
                obj,
                state.x,
                events,
                _ScheduleSampler(int(rng.integers(2**31)), N),
                residual_target=target,
                event_callback=on_event,
            )
            used = result.iterations
        else:
            result, used = _arbcd_restarts(
                obj, state.x, budget.restarts, events, target, rng, N, on_event
            )
        if result.stop_reason == "residual":
            for i in range(1, N + 1):
                net.terminate_notice(i)

        state.x = result.y
        net.blocks = state.x.copy()
        state.k = k
        state.lam = lam
        lam_next = params.schedule(k + 1)[0]
        state.xbar = (lam_next / lam) * (state.xbar + state.x)
        state.theta_norm = _dual_norm(graph, state.xbar, lam_next)

        f_sum = objective_sum(nodes, state.x)
        cv = consensus_violation(graph, state.x)
        rel = _rel_subopt(f_sum, reference)
        trace.append(
            TraceRow(
                k=k,
                lam=lam,
                F_sum=f_sum,
                rel_subopt=rel,
                CV=cv,
                comm_per_node_max=int(net.ledger.vectors_sent.max()),
                prox_count=int(net.ledger.prox_evals.sum()),
                grad_count=int(net.ledger.grad_evals.sum()),
                dual_norm=state.theta_norm,
                inner_iters=used,
                stop_reason=result.stop_reason,
            )
        )
        if reference is not None and rel <= params.eps_opt and cv <= params.eps_feas:
            trace.converged = True
            break
    trace.config["final_state"] = state
    trace.config["ledger"] = net.ledger_snapshot()
    return trace


class _ScheduleSampler:
    """Lazy uniform activation schedule, drawn in chunks.

    Presents the ``integers`` interface the randomized solvers expect while
    matching the simulator's seeded uniform activation model; chunking keeps
    memory flat even when the nominal event budget is astronomically large.
    """

    def __init__(self, seed: int, num_nodes: int, chunk: int = 1 << 16):
        self._rng = np.random.default_rng(seed)
        self._num_nodes = num_nodes
        self._chunk = chunk
        self._buf = np.empty(0, dtype=np.int64)
        self._pos = 0

    def integers(self, *args, **kwargs) -> int:
        if self._pos >= self._buf.size:
            self._buf = self._rng.integers(
                0, self._num_nodes, size=self._chunk
            )
            self._pos = 0
        i = int(self._buf[self._pos])
        self._pos += 1
        return i


def _arbcd_constant(
    obj: BlockObjective, z0: np.ndarray, rng: np.random.Generator
) -> float:
    from .solvers import estimate_restart_constant

    return estimate_restart_constant(obj, z0, rng)


def _arbcd_restarts(obj, z0, restarts, chain_events, target, rng, num_nodes,
                    event_callback):
    """Independent accelerated chains, each on a fresh activation schedule."""
    from .solvers import SolveResult

    best_y = np.array(z0, dtype=float)
    best_phi = obj.value(best_y)
    total = 0
    stop_reason = "cap"
    for _ in range(restarts):
        res = arbcd_chain(
            obj,
            z0,
            chain_events,
            _ScheduleSampler(int(rng.integers(2**31)), num_nodes),
            residual_target=target,
            event_callback=event_callback,
        )
        total += res.iterations
        phi = obj.value(res.y)
        if phi < best_phi:
            best_phi, best_y = phi, res.y
        if res.stop_reason == "residual":
            stop_reason = "residual"
            best_y = res.y
            break
    return SolveResult(best_y, total, stop_reason), total
