"""Distributed first-order augmented Lagrangian solver.

The outer loop shrinks a penalty schedule geometrically and solves each
penalized subproblem inexactly with an inner oracle from :mod:`solvers`.
Synchronously, :func:`solvers.ms_apg` runs over neighbor-exchange rounds of
:class:`netsim.SyncNetwork`: each gradient broadcasts the extrapolated point
and every node assembles its block from its mailbox.  Asynchronously,
:func:`solvers.rbcd_run` or :func:`solvers.arbcd_run` consumes seeded
activation schedules, and :class:`netsim.AsyncNetwork` charges the
activations they report.  Dual variables are never materialized; their norms
come from Laplacian quadratic forms of the running penalty-weighted
accumulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .funcs import NodeProblem, NodeStack
from .graph import (
    Graph,
    consensus_violation,
    laplacian_apply,
    laplacian_quadratic,
    spectral_bounds,
)
from .netsim import ActivationSchedule, AsyncNetwork, SyncNetwork
from .solvers import (  # noqa: F401  (arbcd_chain stays reachable as dfal.arbcd_chain)
    BlockObjective,
    SolveResult,
    arbcd_chain,
    arbcd_chain_events,
    arbcd_run,
    estimate_restart_constant,
    ms_apg,
    rbcd_run,
)
from .trace import RunTrace


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


def inner_cap(params: DfalParams, block_L: np.ndarray, alpha: float) -> int:
    return max(1, math.ceil(params.bx * math.sqrt(2.0 * float(block_L.sum()) / alpha)))


def _outer_loop(
    trace: RunTrace,
    nodes: Sequence[NodeProblem],
    graph: Graph,
    params: DfalParams,
    state: DfalState,
    num_outer: int,
    solve_subproblem: Callable[[int, float, float, float], SolveResult],
    net: SyncNetwork | AsyncNetwork,
    reference: float | None,
    lam_min: float = 0.0,
) -> RunTrace:
    """The outer iterations shared by both solves.

    ``solve_subproblem(k, lam, alpha, xi)`` solves subproblem ``k`` from
    ``state`` and charges its work to ``net``; its solution becomes
    ``x^(k)``, the accumulator rolls, and the row is recorded.  Stops when
    both accuracy targets are met, when the penalty drops below ``lam_min``
    (without a reference), or after ``num_outer`` iterations.
    """
    for k in range(1, num_outer + 1):
        # closed-form schedule values, so traces match the geometric law exactly
        lam, alpha, xi = params.schedule(k)
        result = solve_subproblem(k, lam, alpha, xi)
        lam_next = params.schedule(k + 1)[0]
        state.x, state.k, state.lam = result.y, k, lam
        state.xbar = (lam_next / lam) * (state.xbar + state.x)
        state.theta_norm = _dual_norm(graph, state.xbar, lam_next)
        row = trace.record(
            k=k,
            lam=lam,
            F_sum=objective_sum(nodes, state.x),
            reference=reference,
            CV=consensus_violation(graph, state.x),
            ledger=net.ledger,
            dual_norm=state.theta_norm,
            inner_iters=result.iterations,
            stop_reason=result.stop_reason,
        )
        # without a reference the gap is NaN and never meets its target
        reached = row.rel_subopt <= params.eps_opt and row.CV <= params.eps_feas
        floor = reference is None and 0.0 < lam_min and lam_next <= lam_min
        if reached or floor:
            trace.converged = True
            break
    trace.config["final_state"] = state
    trace.config["ledger"] = net.ledger_snapshot()
    return trace


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
    _, tau_bar = coupling_constants(nodes)
    if params.xi1 / params.lam1 >= tau_bar:
        raise ValueError("xi1 / lam1 must stay below the coercivity constant")
    trace = RunTrace("dfal", config={"lam1": params.lam1, "c": params.c})
    psi_max = params.psi_max if params.psi_max > 0 else spectral_bounds(graph)[0]
    loss_lip = np.array([p.loss.lipschitz for p in nodes])
    stack = NodeStack(nodes)
    x = np.zeros(stack.shape) if x0 is None else np.array(x0, dtype=float)
    state = DfalState(x=x, xbar=np.zeros(stack.shape), lam=params.lam1, k=0)
    net = SyncNetwork(graph, state.x)
    # Per-node view of neighbors' accumulators, rebuilt from received iterates.
    nbr_xbar = {
        i: {j: np.zeros(stack.shape[1]) for j in graph.neighbors(i)}
        for i in range(1, N + 1)
    }

    def solve_subproblem(k: int, lam: float, alpha: float, xi: float) -> SolveResult:
        block_L = lam * loss_lip + psi_max
        # the warm start already sits in every mailbox, so its delivery is free
        warm_start = True

        def smooth_grad(Y: np.ndarray) -> np.ndarray:
            nonlocal warm_start
            net.broadcast_state(Y, charge=not warm_start)
            warm_start = False
            q = np.empty_like(Y)
            for i in range(1, N + 1):
                own, mailbox = net.node_inputs(i)
                q[i - 1] = local_gradient(
                    nodes[i - 1], lam, graph.degrees[i - 1], own, mailbox,
                    state.xbar[i - 1], nbr_xbar[i],
                )
                net.ledger.charge_grad(i)
            return q

        def prox_all(V: np.ndarray, tau: np.ndarray) -> np.ndarray:
            for i in range(1, N + 1):
                net.ledger.charge_prox(i)
            return stack.prox(V, tau * lam)

        def check(ell: int, ybar: np.ndarray, q: np.ndarray) -> None:
            gradient_check(k, ell, ybar.copy(), state.xbar.copy(), q.copy())

        obj = replace(
            _subproblem_objective(nodes, graph, lam, state.xbar, block_L, stack),
            smooth_grad=smooth_grad,
            prox_all=prox_all,
        )
        result = ms_apg(
            obj,
            state.x,
            residual_target=xi / math.sqrt(N),
            max_iter=inner_cap(params, block_L, alpha),
            callback=None if gradient_check is None else check,
        )
        # share the adopted iterate; each node rolls its neighbors' accumulators
        net.broadcast_state(result.y)
        ratio = params.schedule(k + 1)[0] / lam
        for i in range(1, N + 1):
            _, mailbox = net.node_inputs(i)
            for j in graph.neighbors(i):
                nbr_xbar[i][j] = ratio * (nbr_xbar[i][j] + mailbox[j])
        return result

    return _outer_loop(
        trace, nodes, graph, params, state, params.outer_cap, solve_subproblem,
        net, reference, lam_min,
    )


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
    :func:`local_gradient`; the full gradient, the prox of all blocks and the
    residuals of the stopping test come from ``stack`` (built from ``nodes``
    when not given) for all blocks at once.
    """
    if stack is None:
        stack = NodeStack(nodes)

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
            nodes[i], lam, graph.degrees[i], Y[i], neighbor_y, xbar[i], neighbor_xbar
        )

    def prox(i: int, v: np.ndarray, tau: float) -> np.ndarray:
        return nodes[i].reg.prox(v, tau * lam)

    def prox_all(V: np.ndarray, tau: np.ndarray) -> np.ndarray:
        return stack.prox(V, tau * lam)

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
        prox_all=prox_all,
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
    """Oracle budgets per subproblem, frozen so they grow geometrically.

    ``events`` is the budget of one ``rbcd`` run or of one ``arbcd`` chain.
    """

    oracle: str
    constant: float
    p_sub: float

    def events(self, alpha: float, num_blocks: int) -> int:
        if self.oracle == "rbcd":
            return math.ceil(
                2.0 * num_blocks * self.constant / alpha
                * (1.0 + math.log(1.0 / self.p_sub))
            )
        return arbcd_chain_events(num_blocks, self.constant, alpha)


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
    test still allowed to stop it early.  Every ``rbcd`` run and every
    ``arbcd`` chain follows its own activation schedule seeded from ``seed``.
    """
    if oracle not in ("rbcd", "arbcd"):
        raise ValueError(f"unknown oracle {oracle!r}")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    N = graph.num_nodes
    K_outer = outer_iters if outer_iters is not None else params.outer_cap
    p_sub = 1.0 - (1.0 - p) ** (1.0 / K_outer)
    trace = RunTrace(
        "afal-" + oracle,
        config={"p": p, "p_sub": p_sub, "seed": seed, "oracle": oracle,
                "budgets": [], "budget_constant": None},
    )
    psi_max = params.psi_max if params.psi_max > 0 else spectral_bounds(graph)[0]
    loss_lip = np.array([p.loss.lipschitz for p in nodes])
    stack = NodeStack(nodes)
    x = np.zeros(stack.shape) if x0 is None else np.array(x0, dtype=float)
    state = DfalState(x=x, xbar=np.zeros(stack.shape), lam=params.lam1, k=0)
    net = AsyncNetwork(graph)
    rng = np.random.default_rng(seed)
    budget: AsyncBudget | None = None

    def solve_subproblem(k: int, lam: float, alpha: float, xi: float) -> SolveResult:
        nonlocal budget
        if oracle == "rbcd":
            block_L = lam * loss_lip + psi_max
        else:
            # separable-overapproximation constants for the accelerated oracle
            block_L = lam * loss_lip + graph.degrees
        obj = _subproblem_objective(nodes, graph, lam, state.xbar, block_L, stack)
        if budget is None:
            estimate = (
                rbcd_budget_constant if oracle == "rbcd" else estimate_restart_constant
            )
            const = estimate(obj, state.x, np.random.default_rng(seed + 1))
            budget = AsyncBudget(oracle, const, p_sub)
            trace.config["budget_constant"] = const
        events = budget.events(alpha, N)
        trace.config["budgets"].append(events)
        target = xi / math.sqrt(N)

        if oracle == "rbcd":
            schedule = ActivationSchedule(int(rng.integers(2**31)), N)
            result = rbcd_run(obj, state.x, events, schedule, residual_target=target)
        else:
            result = arbcd_run(
                obj, state.x, alpha, p_sub, rng,
                c_estimate=budget.constant, residual_target=target,
            )
        net.activate(result.activations)
        if result.stop_reason == "residual":
            for i in range(1, N + 1):
                net.terminate_notice(i)
        return result

    return _outer_loop(
        trace, nodes, graph, params, state, K_outer, solve_subproblem, net,
        reference,
    )
