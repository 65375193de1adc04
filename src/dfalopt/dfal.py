"""Distributed first-order augmented Lagrangian solver.

One outer loop shrinks a penalty schedule geometrically and hands each
penalized subproblem to an inner oracle from :mod:`solvers` to solve
inexactly.  Synchronously, :func:`solvers.ms_apg` runs on the stacked
iterates, node ``i``'s gradient block reading only its own data and its
neighbours' blocks, and each of its iterations is one activation of every
node.  Asynchronously, :func:`solvers.rbcd_run` or :func:`solvers.arbcd_run`
consumes seeded activation streams, each event assembling one block from the
node's neighbour index row and taking the node's own ``SparseGroupReg.prox``.
The outer loop charges the activations an oracle returns for a whole
subproblem at once, through :func:`charge_activations`: one gradient, one
prox and one vector per directed edge each.  The tests
check both gradients against dense Kronecker assembly; :func:`local_gradient`,
the per-node assembly, is not exported by the package and stays only as a
span target of ``benchmark/spans.py`` until that tracer stops naming it.
Dual variables are never materialized; their norms come from Laplacian
quadratic forms of the running penalty-weighted accumulator, which every
node can roll from its neighbours' iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .checks import integer, real
from .funcs import _TINY, NodeProblem, NodeStack, huber_grad
from .graph import (
    Graph,
    consensus_violation,
    laplacian_apply,
    laplacian_quadratic,
    spectral_bounds,
)
from .solvers import (  # noqa: F401  (arbcd_chain stays reachable as dfal.arbcd_chain)
    BlockObjective,
    SolveResult,
    arbcd_chain,
    arbcd_chain_events,
    arbcd_run,
    level_set_constants,
    ms_apg,
    rbcd_events,
    rbcd_run,
)
from .trace import CommLedger, RunTrace, TraceRow


# the penalty shrink factor's domain, also in bench.CONFIG_DOMAINS
SHRINK = dict(low=0, high=1, strict=True)


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
        for key in ("lam1", "alpha1", "xi1", "bx"):
            real(key, getattr(self, key), 0, strict=True)
        real("shrink factor", self.c, **SHRINK)
        real("psi_max", self.psi_max, 0)
        integer("outer_cap", self.outer_cap, 1)

    def schedule(self, k: int) -> tuple[float, float, float]:
        """Values ``(lam, alpha, xi)`` at outer iteration ``k`` (1-based)."""
        f = self.c ** (k - 1)
        return self.lam1 * f, self.alpha1 * f * f, self.xi1 * f * f


@dataclass
class DfalState:
    """Mutable outer-loop state: iterate, accumulator and outer index."""

    x: np.ndarray
    xbar: np.ndarray
    k: int


def coupling_constants(nodes: Sequence[NodeProblem]) -> tuple[float, float]:
    """(max smooth Lipschitz constant, min regularizer coercivity)."""
    l_bar = max(p.loss.lipschitz for p in nodes)
    tau_bar = min(p.reg.coercivity for p in nodes)
    return l_bar, tau_bar


def default_params(
    nodes: Sequence[NodeProblem],
    graph: Graph,
    c: float = 0.7,
    outer_cap: int = 100,
    eps_opt: float = 1e-3,
    eps_feas: float = 1e-4,
) -> DfalParams:
    """Schedule start derived from the problem constants.

    ``lam1 = min(1, psi_max / max_i L_i)``; the accuracy sequences start at
    ``alpha1 = (lam1 * tau)^2 / (4N)`` and ``xi1 = lam1 * tau / 2``, which
    keeps ``xi1 / lam1 = tau / 2`` strictly below the coercivity constant.
    ``bx = F(0) / sum_i tau_i`` (at least the smallest normal float) bounds
    ``||x*||``, as ``sum_i tau_i ||x*|| <= F(x*) <= F(0)``.
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
    f_zero = sum(p.value(np.zeros(p.n)) for p in nodes)
    return DfalParams(
        lam1=lam1,
        alpha1=alpha1,
        xi1=xi1,
        c=c,
        bx=max(f_zero / sum(p.reg.coercivity for p in nodes), float(_TINY)),
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
        raise ValueError(
            f"expected blocks for {degree} neighbors, got {sorted(neighbor_y)}"
        )
    q = lam * node.loss.grad(own_y) + degree * (own_y + own_xbar)
    for j, yj in neighbor_y.items():
        q -= yj + neighbor_xbar[j]
    return q


def inner_cap(params: DfalParams, block_L: np.ndarray, alpha: float) -> int:
    return max(1, math.ceil(params.bx * math.sqrt(2.0 * float(block_L.sum()) / alpha)))


def _psi_max(params: DfalParams, graph: Graph) -> float:
    """``params.psi_max`` when set, else the graph's spectral bound."""
    return params.psi_max if params.psi_max > 0 else spectral_bounds(graph)[0]


def _outer_loop(
    trace: RunTrace,
    nodes: Sequence[NodeProblem],
    graph: Graph,
    params: DfalParams,
    coupling: float | np.ndarray,
    solve_subproblem: Callable[..., SolveResult],
    lam_min: float = 0.0,
    budget_secs: float | None = None,
) -> RunTrace:
    """Both solves' checks and outer loop, from zero for up to
    ``params.outer_cap`` iterations, run by :meth:`RunTrace.run`.

    Subproblem ``k`` has the block constants ``lam * L_i + coupling``, from
    the losses' ``L_i``; ``solve_subproblem(k, obj, state, alpha, xi /
    sqrt(N))`` solves it from ``state`` to every node's residual at most that
    target, and the loop charges the ``activations`` it returns to
    ``trace.ledger``.  Its solution becomes ``x^(k)``, the accumulator rolls,
    and the row is recorded.
    Without a reference, a next penalty of at most ``lam_min`` ends the run,
    converged.
    """
    if len(nodes) != graph.num_nodes:
        raise ValueError("need one node problem per graph node")
    real("lam_min", lam_min, 0)
    _, tau_bar = coupling_constants(nodes)
    if params.xi1 / params.lam1 >= tau_bar:
        raise ValueError("xi1 / lam1 must stay below the coercivity constant")
    stack = NodeStack(nodes)
    loss_lip = np.array([p.loss.lipschitz for p in nodes])
    state = DfalState(x=np.zeros(stack.shape), xbar=np.zeros(stack.shape), k=0)

    def step(k: int) -> tuple[TraceRow, bool]:
        # closed-form schedule values, so traces match the geometric law exactly
        lam, alpha, xi = params.schedule(k)
        obj = _subproblem_objective(
            nodes, graph, lam, state.xbar, lam * loss_lip + coupling, stack
        )
        result = solve_subproblem(k, obj, state, alpha, xi / math.sqrt(graph.num_nodes))
        charge_activations(trace.ledger, graph, result.activations)
        lam_next = params.schedule(k + 1)[0]
        state.x, state.k = result.y, k
        state.xbar = (lam_next / lam) * (state.xbar + state.x)
        dual_norm = math.sqrt(max(laplacian_quadratic(graph, state.xbar), 0.0))
        dual_norm /= lam_next
        row = trace.record(
            k=k,
            lam=lam,
            F_sum=stack.objective(state.x),
            CV=consensus_violation(graph, state.x),
            dual_norm=dual_norm,
            inner_iters=result.iterations,
            stop_reason=result.stop_reason,
        )
        return row, trace.reference is None and 0.0 < lam_min and lam_next <= lam_min

    trace.config["final_state"] = state
    return trace.run(step, params.outer_cap, params.eps_opt, params.eps_feas, budget_secs)


def charge_activations(ledger: CommLedger, graph: Graph, counts: np.ndarray) -> None:
    """Charge node ``i`` for ``counts[i - 1]`` activations, events or
    synchronous inner iterations alike: each is one gradient, one prox and a
    push of its block to its ``d_i`` neighbours, so node ``i`` sends
    ``d_i * c_i`` vectors and each neighbour receives ``c_i``."""
    counts = np.asarray(counts, dtype=np.int64)
    ledger.vectors_sent += graph.degrees * counts
    ledger.vectors_received += graph.neighbor_sum(counts)
    ledger.grad_evals += counts
    ledger.prox_evals += counts


def dfal_solve(
    nodes: Sequence[NodeProblem],
    graph: Graph,
    params: DfalParams,
    reference: float | None = None,
    lam_min: float = 0.0,
    gradient_check: Callable[[int, int, np.ndarray, np.ndarray, np.ndarray], None]
    | None = None,
    budget_secs: float | None = None,
) -> RunTrace:
    """Synchronous penalized consensus solve: the inner oracle is
    :func:`solvers.ms_apg`, and each of its iterations is one gradient, one
    prox and one push of every node's block to its neighbours.  It refunds
    the prox of the iteration whose residual test stops a subproblem.

    Terminates when relative suboptimality (against ``reference``, if given)
    and consensus violation reach their targets, when the penalty drops below
    ``lam_min``, after the outer iteration that ends past ``budget_secs``
    seconds (stop reason ``"timeout"``), or at the outer cap.
    ``gradient_check(k, ell, ybar, xbar, q)`` fires at every inner iteration
    with the assembled gradient blocks.
    """
    N = graph.num_nodes
    trace = RunTrace("dfal", CommLedger(N), reference, {"lam1": params.lam1, "c": params.c})

    def solve_subproblem(
        k: int, obj: BlockObjective, state: DfalState, alpha: float, target: float
    ) -> SolveResult:
        def check(ell: int, ybar: np.ndarray, q: np.ndarray) -> None:
            gradient_check(k, ell, ybar.copy(), state.xbar.copy(), q.copy())

        result = ms_apg(
            obj,
            state.x,
            residual_target=target,
            max_iter=inner_cap(params, obj.L, alpha),
            callback=None if gradient_check is None else check,
        )
        # the iteration whose residual test stops the subproblem takes no prox
        trace.ledger.prox_evals -= result.stop_reason == "residual"
        return result

    return _outer_loop(
        trace, nodes, graph, params, _psi_max(params, graph), solve_subproblem,
        lam_min, budget_secs,
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

    Its ``blocks`` are the nodes' :func:`_event_kernels`, bound once per
    subproblem: an event on node ``i`` runs node ``i``'s block gradient, prox
    and residual test, and every stopping test reads node ``i``'s residual
    there.  The full gradient and the prox of all blocks come from ``stack``
    (built from ``nodes`` when not given) for all blocks at once.
    """
    if stack is None:
        stack = NodeStack(nodes)
    if xbar.shape != stack.shape:
        raise ValueError(f"expected xbar of shape {stack.shape}, got {xbar.shape}")

    def value(Y: np.ndarray) -> float:
        return lam * stack.objective(Y) + 0.5 * laplacian_quadratic(graph, Y + xbar)

    def smooth_grad(Y: np.ndarray) -> np.ndarray:
        return lam * stack.loss_grad(Y) + laplacian_apply(graph, Y + xbar)

    return BlockObjective(
        L=block_L,
        smooth_grad=smooth_grad,
        # each block at its own step 1/L_i, thresholds formed once
        prox_all=stack.prox_map((1.0 / block_L) * lam),
        blocks=[_event_kernels(p, i, graph, lam, xbar) for i, p in enumerate(nodes)],
        value=value,
    )


def _event_kernels(
    node: NodeProblem, i: int, graph: Graph, lam: float, xbar: np.ndarray
) -> tuple[Callable, Callable, Callable]:
    """Node ``i``'s event kernels, bound to the data they read: the block gradient
    ``Y -> lam grad_i(y_i) + d_i (y_i + xbar_i) - sum_j (y_j + xbar_j)`` over the
    neighbours ``j`` (calling ``huber_grad`` by its name in ``dfal``), the node's
    own prox ``(v, tau) -> node.reg.prox(v, tau * lam)`` and its own residual
    ``(Y, g) -> node.reg.subgrad_residual(lam, g, Y[i])`` at the handed block
    gradient ``g``.  The gradient binds ``lam``, ``d_i`` and ``-+delta`` as 0-d arrays,
    once per subproblem; the prox and residual pass ``lam`` itself, the memos' key."""
    row = graph.nbr_idx[graph.nbr_ptr[i]:graph.nbr_ptr[i + 1]]
    # the transposed view, not a contiguous copy, keeps the event bits
    A, At, b, delta = node.loss.A, node.loss.A.T, node.loss.b, node.loss.delta
    d = row.size
    lam_0d, d_0d, lo, hi = map(np.array, (lam, float(d), -delta, delta))
    j = int(row[0]) if d == 1 else -1  # read only with one neighbour
    xbar_i, xbar_j, xbar_nbrs = xbar[i], xbar[j], xbar[row]

    def grad(Y: np.ndarray) -> np.ndarray:
        y = Y[i]
        q = lam_0d * huber_grad(A, At, b, lo, hi, y)
        if d == 1:  # the reduce over one taken row is that row, and 1 * v is v
            return q + (y + xbar_i) - (Y[j] + xbar_j)
        return q + d_0d * (y + xbar_i) - np.add.reduce(Y.take(row, axis=0) + xbar_nbrs)

    def prox(v: np.ndarray, tau: float) -> np.ndarray:
        return node.reg.prox(v, tau * lam)

    def residual(Y: np.ndarray, g: np.ndarray) -> float:
        return node.reg.subgrad_residual(lam, g, Y[i])

    return grad, prox, residual


def async_dfal_solve(
    nodes: Sequence[NodeProblem],
    graph: Graph,
    params: DfalParams,
    p: float,
    oracle: str = "rbcd",
    seed: int = 0,
    outer_iters: int | None = None,
    reference: float | None = None,
    budget_secs: float | None = None,
) -> RunTrace:
    """Asynchronous variant: subproblems solved by randomized block oracles.

    Runs ``outer_iters`` outer iterations (defaults to the outer cap), fewer
    when the targets are met or an outer iteration ends past ``budget_secs``
    seconds (stop reason ``"timeout"``); each subproblem gets the event
    budget of the theory's formula at per-subproblem confidence
    ``(1 - p) ** (1 / outer_iters)``, with the per-block residual test still
    allowed to stop it early.  The formula's constant is certified: it comes
    from :func:`solvers.level_set_constants` at the subproblem's own start,
    penalty and coercivities ``lam * tau_i``, at the cost of one objective
    value.  Every ``rbcd`` run and every ``arbcd`` chain follows its own
    activation stream seeded from ``seed``.  It keeps the budgets, their
    constants (``budget_constants``, one per subproblem) and the termination
    notices of residual stops.
    """
    real("p", p, 0, 1, strict=True)
    integer("seed", seed, 0)
    N = graph.num_nodes
    K_outer = params.outer_cap if outer_iters is None else integer(
        "outer_iters", outer_iters, 1)
    p_sub = 1.0 - (1.0 - p) ** (1.0 / K_outer)
    if not p_sub > 0:
        raise ValueError(f"p={p!r} over {K_outer} outer iterations rounds each subproblem's p to 0")
    trace = RunTrace(
        "afal-" + oracle, CommLedger(N), reference,
        config={"p": p, "p_sub": p_sub, "seed": seed, "oracle": oracle,
                "budgets": [], "budget_constants": []},
    )
    # rbcd's block constants couple through psi_max, and arbcd's
    # separable-overapproximation constants through the degrees
    if oracle == "rbcd":
        coupling = _psi_max(params, graph)
    elif oracle == "arbcd":
        coupling = graph.degrees
    else:
        raise ValueError(f"unknown oracle {oracle!r}")
    tau = np.array([node.reg.coercivity for node in nodes])
    rng = np.random.default_rng(seed)

    def solve_subproblem(
        k: int, obj: BlockObjective, state: DfalState, alpha: float, target: float
    ) -> SolveResult:
        rbcd_const, arbcd_const = level_set_constants(obj, state.x, params.schedule(k)[0] * tau)
        if oracle == "rbcd":
            const, events = rbcd_const, rbcd_events(N, rbcd_const, alpha, p_sub)
            result = rbcd_run(obj, state.x, events, int(rng.integers(2**31)),
                              residual_target=target)
        else:
            # the budget of each restarted chain
            const, events = arbcd_const, arbcd_chain_events(N, arbcd_const, alpha)
            result = arbcd_run(obj, state.x, alpha, p_sub, rng, c_estimate=const,
                               residual_target=target)
        trace.config["budgets"].append(events)
        trace.config["budget_constants"].append(const)
        if result.stop_reason == "residual":
            # every node sends a termination notice to each neighbour
            trace.ledger.control_msgs += graph.degrees
        return result

    return _outer_loop(
        trace, nodes, graph, replace(params, outer_cap=K_outer), coupling,
        solve_subproblem, budget_secs=budget_secs,
    )
