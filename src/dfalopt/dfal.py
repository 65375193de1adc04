"""Distributed first-order augmented Lagrangian solver.

The outer loop shrinks a penalty schedule geometrically and solves each
penalized subproblem inexactly with an inner oracle from :mod:`solvers`.
Synchronously, :func:`solvers.ms_apg` runs over neighbor-exchange rounds of
:class:`netsim.SyncNetwork`: each gradient broadcasts the extrapolated point
and evaluates the stacked subproblem gradient on the delivered snapshot, so
node ``i``'s block reads only its own data and its neighbours' delivered
blocks.  Asynchronously, :func:`solvers.rbcd_run` or :func:`solvers.arbcd_run`
consumes seeded activation schedules, each event assembling one block from
the node's neighbour index row, and :class:`netsim.AsyncNetwork` charges the
activations they report.  :func:`local_gradient` is the per-node reference
for both gradients.  Dual variables are never materialized; their norms come
from Laplacian quadratic forms of the running penalty-weighted accumulator,
which every node can roll from the same delivered iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .funcs import NodeProblem, NodeStack, objective_sum
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
    rbcd_budget_constant,
    rbcd_events,
    rbcd_run,
)
from .trace import RunTrace, check_budget_secs


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
        if self.outer_cap < 1:
            raise ValueError(f"outer_cap must be at least 1, got {self.outer_cap}")

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


def _psi_max(params: DfalParams, graph: Graph) -> float:
    """``params.psi_max`` when set, else the graph's spectral bound."""
    return params.psi_max if params.psi_max > 0 else spectral_bounds(graph)[0]


def _setup(
    nodes: Sequence[NodeProblem],
    graph: Graph,
    params: DfalParams,
    x0: np.ndarray | None,
) -> tuple[np.ndarray, NodeStack, DfalState]:
    """Input checks and starting point shared by both solves.

    Returns the loss Lipschitz constants, the node stack and the starting
    state at ``x0`` (zeros by default).
    """
    if len(nodes) != graph.num_nodes:
        raise ValueError("need one node problem per graph node")
    _, tau_bar = coupling_constants(nodes)
    if params.xi1 / params.lam1 >= tau_bar:
        raise ValueError("xi1 / lam1 must stay below the coercivity constant")
    stack = NodeStack(nodes)
    x = np.zeros(stack.shape) if x0 is None else np.array(x0, dtype=float)
    if x.shape != stack.shape:
        raise ValueError(f"x0 must have shape {stack.shape}, got {x.shape}")
    loss_lip = np.array([p.loss.lipschitz for p in nodes])
    state = DfalState(x=x, xbar=np.zeros(stack.shape), lam=params.lam1, k=0)
    return loss_lip, stack, state


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
    budget_secs: float | None = None,
) -> RunTrace:
    """The outer iterations shared by both solves.

    ``solve_subproblem(k, lam, alpha, xi)`` solves subproblem ``k`` from
    ``state`` and charges its work to ``net``; its solution becomes
    ``x^(k)``, the accumulator rolls, and the row is recorded.  Stops when
    both accuracy targets are met, when the penalty drops below ``lam_min``
    (without a reference), once more than ``budget_secs`` seconds have
    passed since the trace began (the row's stop reason is then
    ``"timeout"``), or after ``num_outer`` iterations.
    """
    check_budget_secs(budget_secs)
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
        if trace.past_budget(budget_secs):
            row.stop_reason = "timeout"
            break
    trace.config["final_state"] = state
    trace.config["ledger"] = net.ledger.snapshot()
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
    budget_secs: float | None = None,
) -> RunTrace:
    """Synchronous penalized consensus solve over the message simulator.

    Terminates when relative suboptimality (against ``reference``, if given)
    and consensus violation reach their targets, when the penalty drops below
    ``lam_min``, after the outer iteration that ends past ``budget_secs``
    seconds (stop reason ``"timeout"``), or at the outer cap.
    ``gradient_check(k, ell, ybar, xbar, q)`` fires at every inner iteration
    with the assembled gradient blocks.
    """
    N = graph.num_nodes
    loss_lip, stack, state = _setup(nodes, graph, params, x0)
    psi_max = _psi_max(params, graph)
    trace = RunTrace("dfal", config={"lam1": params.lam1, "c": params.c})
    net = SyncNetwork(graph, state.x)

    def solve_subproblem(k: int, lam: float, alpha: float, xi: float) -> SolveResult:
        block_L = lam * loss_lip + psi_max
        subproblem = _subproblem_objective(
            nodes, graph, lam, state.xbar, block_L, stack
        )
        # the warm start is already delivered, so its broadcast is free
        warm_start = True

        def smooth_grad(Y: np.ndarray) -> np.ndarray:
            nonlocal warm_start
            net.broadcast_state(Y, charge=not warm_start)
            warm_start = False
            net.ledger.grad_evals += 1
            return subproblem.smooth_grad(net.delivered)

        def prox_all(V: np.ndarray, tau: np.ndarray) -> np.ndarray:
            net.ledger.prox_evals += 1
            return subproblem.prox_all(V, tau)

        def check(ell: int, ybar: np.ndarray, q: np.ndarray) -> None:
            gradient_check(k, ell, ybar.copy(), state.xbar.copy(), q.copy())

        result = ms_apg(
            replace(subproblem, smooth_grad=smooth_grad, prox_all=prox_all),
            state.x,
            residual_target=xi / math.sqrt(N),
            max_iter=inner_cap(params, block_L, alpha),
            callback=None if gradient_check is None else check,
        )
        # share the adopted iterate; every node rolls the accumulator from it
        net.broadcast_state(result.y)
        return result

    return _outer_loop(
        trace, nodes, graph, params, state, params.outer_cap, solve_subproblem,
        net, reference, lam_min, budget_secs,
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

    One event's block gradient is assembled from the node's neighbour index
    row; the full gradient, the prox of all blocks and the residuals of the
    stopping test come from ``stack`` (built from ``nodes`` when not given)
    for all blocks at once.
    """
    if stack is None:
        stack = NodeStack(nodes)
    # per-event lookups, taken once per subproblem
    ptr = graph.nbr_ptr
    rows = [graph.nbr_idx[ptr[i]:ptr[i + 1]] for i in range(graph.num_nodes)]
    xbar_rows = [xbar[r] for r in rows]
    degrees = graph.degrees.tolist()

    def value(Y: np.ndarray) -> float:
        return lam * objective_sum(nodes, Y) + 0.5 * laplacian_quadratic(graph, Y + xbar)

    def smooth_grad(Y: np.ndarray) -> np.ndarray:
        return lam * stack.loss_grad(Y) + laplacian_apply(graph, Y + xbar)

    def smooth_grad_block(i: int, Y: np.ndarray) -> np.ndarray:
        q = lam * nodes[i].loss.grad(Y[i]) + degrees[i] * (Y[i] + xbar[i])
        return q - np.add.reduce(Y[rows[i]] + xbar_rows[i])

    def prox(i: int, v: np.ndarray, tau: float) -> np.ndarray:
        return nodes[i].reg.prox(v, tau * lam)

    def prox_all(V: np.ndarray, tau: np.ndarray) -> np.ndarray:
        return stack.prox(V, tau * lam)

    def residuals(G: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return stack.residuals(lam, G, Y)

    return BlockObjective(
        L=block_L,
        smooth_grad=smooth_grad,
        smooth_grad_block=smooth_grad_block,
        prox=prox,
        prox_all=prox_all,
        residuals=residuals,
        value=value,
    )


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
    budget_secs: float | None = None,
) -> RunTrace:
    """Asynchronous variant: subproblems solved by randomized block oracles.

    Runs ``outer_iters`` outer iterations (defaults to the outer cap), fewer
    when the targets are met or an outer iteration ends past ``budget_secs``
    seconds (stop reason ``"timeout"``); each subproblem gets its
    theory-prescribed event budget at per-subproblem confidence
    ``(1 - p) ** (1 / outer_iters)``, with the per-block residual test still
    allowed to stop it early.  Every ``rbcd`` run and every
    ``arbcd`` chain follows its own activation schedule seeded from ``seed``.
    """
    if oracle not in ("rbcd", "arbcd"):
        raise ValueError(f"unknown oracle {oracle!r}")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    N = graph.num_nodes
    K_outer = outer_iters if outer_iters is not None else params.outer_cap
    if K_outer < 1:
        raise ValueError(f"outer_iters must be at least 1, got {K_outer}")
    p_sub = 1.0 - (1.0 - p) ** (1.0 / K_outer)
    loss_lip, stack, state = _setup(nodes, graph, params, x0)
    # rbcd's block constants couple through psi_max, and arbcd's
    # separable-overapproximation constants through the degrees
    coupling = _psi_max(params, graph) if oracle == "rbcd" else graph.degrees
    trace = RunTrace(
        "afal-" + oracle,
        config={"p": p, "p_sub": p_sub, "seed": seed, "oracle": oracle,
                "budgets": [], "budget_constant": None},
    )
    net = AsyncNetwork(graph)
    rng = np.random.default_rng(seed)

    def solve_subproblem(k: int, lam: float, alpha: float, xi: float) -> SolveResult:
        block_L = lam * loss_lip + coupling
        obj = _subproblem_objective(nodes, graph, lam, state.xbar, block_L, stack)
        # the budget constant is estimated once, so the budgets grow geometrically
        const = trace.config["budget_constant"]
        if const is None:
            estimate = (
                rbcd_budget_constant if oracle == "rbcd" else estimate_restart_constant
            )
            const = estimate(obj, state.x, np.random.default_rng(seed + 1))
            trace.config["budget_constant"] = const
        target = xi / math.sqrt(N)

        if oracle == "rbcd":
            events = rbcd_events(N, const, alpha, p_sub)
            schedule = ActivationSchedule(int(rng.integers(2**31)), N)
            result = rbcd_run(obj, state.x, events, schedule, residual_target=target)
        else:
            # the budget of each restarted chain
            events = arbcd_chain_events(N, const, alpha)
            result = arbcd_run(
                obj, state.x, alpha, p_sub, rng,
                c_estimate=const, residual_target=target,
            )
        trace.config["budgets"].append(events)
        net.activate(result.activations)
        if result.stop_reason == "residual":
            # every node sends a termination notice to each neighbour
            net.ledger.control_msgs += graph.degrees
        return result

    return _outer_loop(
        trace, nodes, graph, params, state, K_outer, solve_subproblem, net,
        reference, budget_secs=budget_secs,
    )
