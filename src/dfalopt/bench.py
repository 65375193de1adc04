"""Benchmark protocol: instance generation, certified reference solutions, metrics.

Instances follow the sparse-group regression recipe: per-node Gaussian
design matrices, a shared alternating-sign exponentially decaying generator
vector, Huber data fit, and equal-size random groups (shared across nodes in
case 1, drawn independently per node in case 2).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .baselines import ITERS, PENALTY, admm_solve, sadmm_solve
from .checks import indices, integer, real
from .dfal import SHRINK, async_dfal_solve, default_params, dfal_solve
from .funcs import (GroupPartition, HuberLoss, NodeProblem, NodeStack, SparseGroupReg, _clip,
                    huber_grad, sparse_group_prox)
from .graph import Graph, build_topology, laplacian_apply
from .solvers import apg
from .trace import BUDGET, TARGET, RunTrace, write_json


@dataclass
class ProblemInstance:
    """One benchmark problem over a fixed graph; its nodes hold every node's
    data, sizes and weights.  The case is 1 or 2, the seed nonnegative."""

    graph: Graph
    nodes: list[NodeProblem]
    case: int
    seed: int

    def __post_init__(self) -> None:
        if integer("case", self.case) not in (1, 2):
            raise ValueError(f"case must be 1 or 2, got {self.case}")
        integer("seed", self.seed, 0)

    @property
    def n(self) -> int:
        return self.nodes[0].n

    def content_digest(self) -> str:
        """Digest of the data that fixes the reference: every node record
        (``A_i``, ``b_i``, delta, beta and groups), and in case 2 the edges.
        The case-1 optimum ignores the graph, so the star and the clique of
        one seed share it; the case-2 reference runs over the graph."""
        h = hashlib.sha256()

        def add(values) -> None:
            arr = np.ascontiguousarray(values)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())

        if self.case == 2:
            add(np.array(self.graph.edges, dtype=np.int64).reshape(-1, 2))
        for p in self.nodes:
            A, b, *weights, groups = node_record(p).values()
            sizes = [g.size for g in groups]
            # the weights' values as floats: an integer past int64 makes no object array
            for value in (A, b, np.array(weights, dtype=float), np.concatenate(groups), sizes):
                add(value)
        return h.hexdigest()


def node_record(p: NodeProblem) -> dict[str, Any]:
    """One node's facts, keyed as its entry in the instance file: its data
    ``A`` and ``b``, its weights ``delta``, ``beta1`` and ``beta2``, and its
    ``groups`` (0-based index arrays; the file writes them 1-based)."""
    return {
        "A": p.loss.A,
        "b": p.loss.b,
        "delta": p.loss.delta,
        "beta1": p.reg.beta1,
        "beta2": p.reg.beta2,
        "groups": p.reg.partition.groups,
    }


def generator_vector(n: int, n_g: int) -> np.ndarray:
    """Alternating-sign decay ``x_j = (-1)^j exp(-(j-1)/n_g)`` (1-based j)."""
    j = np.arange(1, n + 1)
    return ((-1.0) ** j) * np.exp(-(j - 1) / n_g)


def random_partition(n: int, n_g: int, rng: np.random.Generator) -> GroupPartition:
    """Equal-size groups drawn uniformly at random."""
    perm = rng.permutation(n)
    groups = tuple(np.sort(perm[k : k + n_g]) for k in range(0, n, n_g))
    return GroupPartition(n, groups)


def instance_sizes(N: int, n_g: int, K: int, key: str = "{}") -> tuple[int, int]:
    """An instance's dimension ``n = K n_g`` and rows per node ``m = n / (2N)``;
    sizes out of range, or a ``2N`` not dividing ``n`` (an error that names size
    ``s`` as ``key.format(s)``), are a ``ValueError``."""
    for what, value, low in (("N", N, 2), ("group size n_g", n_g, 1),
                             ("number of groups K", K, 1)):
        integer(what, value, low)
    n = K * n_g
    if n % (2 * N) != 0:
        names = ", ".join(key.format(size) for size in ("K", "n_g", "N"))
        raise ValueError(f"row count n/(2N) = {n}/{2 * N} is not an integer; "
                         f"choose {names} with 2N dividing K*n_g")
    return n, n // (2 * N)


def generate_instance(
    case: int,
    topology: str,
    N: int,
    n_g: int,
    K: int,
    seed: int,
    edge_file: str | None = None,
) -> ProblemInstance:
    """Deterministic instance from a seed, identical data across cases.

    The design matrices and right-hand sides come from one random stream and
    the partitions from a second, so case 1 and case 2 at the same seed share
    ``A_i`` and ``b_i`` exactly.  Every node's Huber ``delta`` is 1.
    """
    # the sizes before the graph, whose cost grows with N
    n, m = instance_sizes(N, n_g, K)
    graph = build_topology(topology, N, path=edge_file)
    if graph.num_nodes != N:
        raise ValueError(f"the edge file has {graph.num_nodes} nodes, not N={N}")
    instance = ProblemInstance(graph, [], case, seed)

    data_rng = np.random.default_rng([seed, 0])
    part_rng = np.random.default_rng([seed, 1])
    beta = 1.0 / N
    x_gen = generator_vector(n, n_g)

    shared = random_partition(n, n_g, part_rng) if case == 1 else None
    for _ in range(N):
        A = data_rng.standard_normal((m, n))
        partition = shared if case == 1 else random_partition(n, n_g, part_rng)
        instance.nodes.append(NodeProblem(
            reg=SparseGroupReg(beta1=beta, beta2=beta, partition=partition),
            loss=HuberLoss(A=A, b=A @ x_gen, delta=1.0),
        ))
    return instance


@dataclass
class Reference:
    """High-accuracy optimum used for relative-suboptimality metrics, with its certified
    ``gap`` (``NodeStack.relative_gap``) and the ``iterations`` and ``seconds`` of its solve."""

    f_star: float
    x_ref: np.ndarray
    method: str
    converged: bool
    iterations: int = 0
    seconds: float = 0.0
    gap: float = float("nan")
    newton: int = 0


_REFERENCE_CACHE: dict[tuple, Reference] = {}


def reference_solve(
    instance: ProblemInstance, tolerance: float = 1e-9, cache: bool = True
) -> Reference:
    """Case 1: centralized accelerated solve with the combined closed-form
    prox (the nodes must share one partition, beta1, beta2 and delta, so the
    sum is one Huber plus sparse-group problem), at the step ``1 / sigma_max(A)^2``
    of the stacked rows, run until its residual is at most ``HANDOFF * tolerance``
    (``tolerance`` 1e-9 to 1e-6).  It is the one caller of ``apg(restart=True)``:
    adaptive restart recovers the linear rate this problem has near its optimum,
    while the solvers it scores keep the plain momentum their complexity bounds
    describe.  On the support that point has found the problem is smooth, so at most
    ``NEWTON_CAP`` Newton steps on it (as Zhang, Zhang, Sun and Toh 2020 take for
    sparse-group lasso) certify the first point whose residual is at most
    ``tolerance``; failing that, ``apg`` resumes from the APG point.  On the 5-node star of
    seed 1 (one BLAS thread): 233 APG iterations and a Newton step, 4.9 ms.  ``iterations``
    counts both, ``newton`` the Newton steps.

    Case 2: Condat-Vu splitting (Condat 2013; Vu 2013) of ``min_x f(x) + sum_i
    rho_i(x)``, ``f`` the Huber sum of all rows, in the metric ``M = (sigma N I + A^T A /
    2) / 0.99`` (inverted once): ``x+ = x - M^-1 (grad f(x) + sum_i z_i)``, ``Z <- V -
    sigma prox(V / sigma)`` at ``V = Z + sigma (2 x+ - x)`` with the nodes' prox at step
    ``1 / sigma`` bound once and ``sigma = PD_SIGMA median_i L_i / (2N)``.  As ``grad f``
    is ``A^T A``-cocoercive, ``M - sigma N I > A^T A / 2`` keeps the step valid at any
    data scale.  Every ``GAP_EVERY`` iterations it takes its gap on its own duals and stops,
    ``converged``, at a gap of at most ``tolerance``, or uncertified at ``PD_CAP``.  It
    starts from 3 outer iterations of ``dfal_solve`` (``c = 0.7``): ``x`` is their nodes'
    mean and ``z_i = -grad f_i(x_i) - (Omega xbar)_i / lam_next``, in ``d rho_i(x_i)``;
    the start stays because the benchmark times the synchronous DFAL only through it, and
    it ties the reference to the graph.  On star-5 case 2 at seed 1 (2-core VM) it
    certifies 6.8e-10 in 200 iterations (0.02 s, half of it the start).  Both take ``F*``
    and the gap from ``NodeStack.value`` and ``.relative_gap``, case 1 once on a stack of one,
    its summed problem (8.3e-13 on the star); ``F*`` sums group norms sorted, free of their order.
    """
    # a looser one certifies the start point, whose residual already meets it
    real("tolerance", tolerance, 1e-9, 1e-6)
    key = (instance.case, tolerance, instance.content_digest()) if cache else None
    if key is not None and key in _REFERENCE_CACHE:
        return _REFERENCE_CACHE[key]

    solve = _reference_case1 if instance.case == 1 else _reference_case2
    ref = solve(instance, tolerance)
    if key is not None:
        _REFERENCE_CACHE[key] = ref
    return ref


def _reference_case1(instance: ProblemInstance, tolerance: float) -> Reference:
    """``apg`` with restart on the summed problem, on kernels bound once, as
    ``dfal._event_kernels`` binds the event gradient: ``huber_grad`` on the stacked rows
    with 0-d ``-+delta``, and ``sparse_group_prox`` at the weights of apg's one step
    ``1 / lip``, formed and checked once; the bits of ``HuberLoss.grad`` and ``.prox``.
    A Newton step solves ``H d = grad f_S + beta1 sign(x_S) + beta2 u_g`` on the support S
    and the rows F inside the threshold, ``H = A_FS^T A_FS + beta2 sum_g (I - u_g u_g^T) /
    |x_g|`` with ``u_g = x_g / |x_g|``: no fractional power of a norm, so a power-of-two
    rescaling of the data maps every step exactly; a singular ``H`` resumes the APG."""
    nodes = instance.nodes

    def shared(p: NodeProblem) -> tuple:
        groups = sorted(g.tolist() for g in p.reg.partition.groups)
        return p.reg.beta1, p.reg.beta2, p.loss.delta, groups

    if any(shared(p) != shared(nodes[0]) for p in nodes[1:]):
        raise ValueError("the case-1 reference needs nodes that share one partition, "
                         "beta1, beta2 and delta")
    reg, delta, N = nodes[0].reg, nodes[0].loss.delta, len(nodes)
    combined = SparseGroupReg(N * reg.beta1, N * reg.beta2, reg.partition)
    # the N losses share delta, so their sum is one Huber loss on the stacked
    # rows; its sigma_max(A)^2 is exact, where sum_i L_i only bounds it
    stacked = HuberLoss(np.vstack([p.loss.A for p in nodes]),
                        np.concatenate([p.loss.b for p in nodes]), delta)
    lip = stacked.lipschitz
    A, At, b, lo, hi = stacked.A, stacked.A.T, stacked.b, np.array(-delta), np.array(delta)
    weights = combined._weights("_step_memo", "prox step", 1.0 / np.float64(lip), True)

    kernels = dict(smooth_grad=lambda x: huber_grad(A, At, b, lo, hi, x),
                   prox=lambda v, step: sparse_group_prox(combined.partition, v, *weights),
                   residual=lambda g, x: combined.subgrad_residual(1.0, g, x),
                   lipschitz=lip, max_iter=500_000, restart=True)
    started = time.perf_counter()
    res = apg(x0=np.zeros(instance.n), residual_target=HANDOFF * tolerance, **kernels)
    x, newton, iterations = res.y.copy(), 0, res.iterations
    part, seg = combined.partition, combined.partition.segment
    while res.stop_reason == "residual":
        r = A.dot(x) - b
        g = At.dot(np.minimum(np.maximum(r, lo), hi))
        if combined.subgrad_residual(1.0, g, x) <= tolerance:
            break
        if newton < NEWTON_CAP:
            # Newton on the support S, at the rows F inside the threshold, u = x_g / |x_g|
            S = np.flatnonzero(x)
            A_FS, seg_S = A[np.abs(r) < delta][:, S], seg[S]
            norms = part.norms(x[part.perm])[seg_S]
            u, w = x[S] / norms, combined.beta2 / norms
            H = A_FS.T @ A_FS + np.diag(w) - (seg_S[:, None] == seg_S) * np.outer(w * u, u)
            try:
                x[S] -= np.linalg.solve(H, g[S] + combined.beta1 * np.sign(x[S])
                                        + combined.beta2 * u)
                newton += 1
                continue
            except np.linalg.LinAlgError:  # an exactly singular H
                pass
        # resume from the APG point, so the certificate is apg's
        res = apg(x0=res.y, residual_target=tolerance, **kernels)
        x, iterations = res.y, iterations + res.iterations
        break
    seconds = time.perf_counter() - started
    one = NodeStack([NodeProblem(combined, stacked)])  # the summed problem, a stack of one
    f_star = one.value(x)
    return Reference(f_star, x, "apg", res.stop_reason == "residual", iterations + newton,
                     seconds, one.relative_gap(f_star, x, np.zeros((1, instance.n))), newton)


# the dual step in units of median_i L_i / (2N) and the cap, measured as reference_solve says
PD_SIGMA, PD_CAP, GAP_EVERY = 0.3, 100_000, 50
# the case-1 APG's hand-off residual in units of tolerance, and the Newton steps after it:
# of 1e3, 3e3, 1e4, ..., 1e6, the largest after which Newton certified all of star-5 seeds
# 1-20 at tolerances 1e-9 to 1e-6 (1e4 resumed the APG in 1 of those 80, 1e6 in 35)
HANDOFF, NEWTON_CAP = 3e3, 3


def _reference_case2(instance: ProblemInstance, tolerance: float) -> Reference:
    nodes, graph, N = instance.nodes, instance.graph, instance.graph.num_nodes
    started, stack = time.perf_counter(), NodeStack(nodes)
    params = default_params(nodes, graph, c=0.7, outer_cap=3)
    state = dfal_solve(nodes, graph, params).config["final_state"]
    lam_next, x = params.schedule(state.k + 1)[0], state.x.mean(axis=0)
    Z = -stack.loss_grad(state.x) - laplacian_apply(graph, state.xbar) / lam_next
    A, b, delta = stack._A.reshape(-1, instance.n), stack._b.ravel(), stack._delta.ravel()
    lips = sorted(p.loss.lipschitz for p in nodes)  # np.median's first call costs 0.6 MB
    sigma = PD_SIGMA * ((lips[(N - 1) // 2] + lips[N // 2]) / 2) / (2 * N)
    metric = (sigma * N * np.eye(instance.n) + 0.5 * A.T @ A) / 0.99
    step, prox = np.linalg.inv(metric), stack.prox_map(1.0 / sigma)
    for it in range(1, PD_CAP + 1):
        x_next = x - step.dot(A.T.dot(_clip(A.dot(x) - b, delta)) + np.add.reduce(Z))
        V = Z + sigma * (2.0 * x_next - x)
        Z, x = V - sigma * prox(V / sigma), x_next
        if it % GAP_EVERY == 0 or it == PD_CAP:
            f = stack.value(x)
            if (gap := stack.relative_gap(f, x, Z)) <= tolerance:
                break
    seconds = time.perf_counter() - started
    return Reference(f, x, "primal-dual", gap <= tolerance, it, seconds, gap)


REPORT_NOTE = (
    "Protocol-shape reproduction at desk scale; "
    "full-scale iteration and CPU figures are out of scope."
)


@dataclass
class BenchReport:
    """Benchmark matrix results: one row per (algorithm, topology, case, seed)
    plus per-cell means, all tagged with the config digest."""

    config: dict[str, Any]
    config_digest: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    means: list[dict[str, Any]] = field(default_factory=list)

    def to_json(self, path: str) -> None:
        write_json({"note": REPORT_NOTE, **asdict(self)}, path)


def config_digest(config: dict[str, Any]) -> str:
    payload = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


DEFAULT_BENCH_CONFIG: dict[str, Any] = {
    "algorithms": ["dfal"],
    "topologies": ["star", "clique"],
    "cases": [1, 2],
    "N": 5,
    "n_g": 10,
    "K": 10,
    "seeds": [1, 2, 3, 4, 5],
    "c": 0.7,
    "c_admm": 1.0,
    "eps_opt": 1e-3,
    "eps_feas": 1e-4,
    "budget_secs": 60.0,
    "admm_iters": 200,
    "async_p": 0.1,
    "async_outer": 40,
}
def run_solver(
    alg: str,
    instance: ProblemInstance,
    ref: Reference,
    cfg: dict[str, Any],
) -> RunTrace:
    """One solver run against ``ref``, the dispatch of the matrix and of
    ``dfalopt solve``.

    ``alg`` is ``dfal``, ``afal-rbcd``, ``afal-arbcd``, ``sadmm`` or ``admm``;
    the settings come from ``cfg`` (the keys of ``DEFAULT_BENCH_CONFIG``),
    and ``cfg["budget_secs"]`` bounds every solver.  The DFAL solves share one
    :func:`default_params`: ``dfal`` runs at its outer cap, ``afal-*`` for
    ``cfg["async_outer"]`` outer iterations.
    """
    nodes, graph = instance.nodes, instance.graph
    budget_secs = cfg["budget_secs"]
    if alg in ("sadmm", "admm"):
        solve = sadmm_solve if alg == "sadmm" else admm_solve
        return solve(
            nodes, graph, c_admm=cfg["c_admm"], iters=cfg["admm_iters"],
            reference=ref.f_star, eps_opt=cfg["eps_opt"],
            eps_feas=cfg["eps_feas"], budget_secs=budget_secs,
        )
    if alg not in ("dfal", "afal-rbcd", "afal-arbcd"):
        raise ValueError(f"unknown algorithm {alg!r}")
    params = default_params(
        nodes, graph, c=cfg["c"], eps_opt=cfg["eps_opt"], eps_feas=cfg["eps_feas"]
    )
    if alg == "dfal":
        return dfal_solve(nodes, graph, params, reference=ref.f_star, budget_secs=budget_secs)
    return async_dfal_solve(
        nodes, graph, params, p=cfg["async_p"], oracle=alg[len("afal-"):],
        seed=instance.seed, outer_iters=cfg["async_outer"], reference=ref.f_star,
        budget_secs=budget_secs,
    )


# each setting's domain, that of each entry of cases and seeds, and the names
# an entry of algorithms (those run_solver dispatches) or topologies may take
CONFIG_DOMAINS: dict[str, Any] = dict(
    algorithms=("dfal", "afal-rbcd", "afal-arbcd", "sadmm", "admm"),
    topologies=("star", "clique"), cases=dict(low=1, high=2),
    N=dict(low=2), n_g=dict(low=1), K=dict(low=1), seeds=dict(low=0), c=SHRINK,
    c_admm=PENALTY, eps_opt=TARGET, eps_feas=TARGET, budget_secs=BUDGET,
    admm_iters=ITERS, async_p=dict(low=0, high=1, strict=True), async_outer=dict(low=1),
)


def read_config(config: dict[str, Any] | None) -> dict[str, Any]:
    """``DEFAULT_BENCH_CONFIG`` with the keys of ``config`` replaced.  An unknown
    key, a value not of the default's kind, an empty list, or a value or entry
    outside ``CONFIG_DOMAINS`` is a ``ValueError`` naming the key, and sizes
    that :func:`instance_sizes` rejects are one too."""
    cfg = dict(DEFAULT_BENCH_CONFIG)
    if config is not None:
        if not isinstance(config, dict):
            raise ValueError("the config must be a JSON object")
        unknown = sorted(set(config) - set(cfg))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(map(repr, unknown))}")
        cfg.update(config)
    for key, value in cfg.items():
        name, domain, kind = f"config key {key!r}", CONFIG_DOMAINS[key], DEFAULT_BENCH_CONFIG[key]
        entries = (value,)
        if isinstance(kind, list):
            if not isinstance(value, list):
                raise ValueError(f"{name} must be a JSON array, got {value!r}")
            if not value:
                raise ValueError(f"{name} must be nonempty, got []")
            name, kind, entries = f"an entry of {name}", kind[0], value
        for entry in entries:
            if isinstance(domain, tuple):  # a name
                if entry not in domain:
                    raise ValueError(f"{name} must be one of {domain}, got {entry!r}")
                continue
            if isinstance(kind, int):  # a number first, so "2" is named not a number
                integer(name, real(name, entry), domain.get("low"))
            real(name, entry, **domain)
    instance_sizes(cfg["N"], cfg["n_g"], cfg["K"], key="config key '{}'")
    return cfg


def run_benchmark(config: dict[str, Any] | None = None) -> BenchReport:
    """Run the (algorithm, topology, case, seed) matrix of ``read_config(config)``;
    a failed run is recorded in its row and the rest of the matrix goes on."""
    cfg = read_config(config)
    digest = config_digest(cfg)
    report = BenchReport(config=cfg, config_digest=digest)

    for topology in cfg["topologies"]:
        for case in cfg["cases"]:
            for alg in cfg["algorithms"]:
                cell: list[dict[str, Any]] = []
                for seed in cfg["seeds"]:
                    row: dict[str, Any] = {
                        "algorithm": alg,
                        "topology": topology,
                        "case": case,
                        "seed": seed,
                        "config_digest": digest,
                    }
                    try:
                        instance = generate_instance(
                            case, topology, cfg["N"], cfg["n_g"], cfg["K"], seed
                        )
                        ref = reference_solve(instance)
                        start = time.monotonic()
                        trace = run_solver(alg, instance, ref, cfg)
                        elapsed = time.monotonic() - start
                        summary = trace.summary()
                        del summary["config"]
                        row.update(summary, wall_time=elapsed, reference_method=ref.method)
                    except Exception as exc:  # keep the matrix going
                        row.update(error=f"{type(exc).__name__}: {exc}")
                    report.rows.append(row)
                    cell.append(row)
                ok = [r for r in cell if "error" not in r]
                if ok:
                    means = {key: float(np.mean([r[key] for r in ok])) for key in (
                        "rel_subopt", "CV", "wall_time", "outer_iterations", "comm_per_node_max")}
                    report.means.append({"algorithm": alg, "topology": topology,
                                         "case": case, **means, "num_runs": len(ok)})
    return report


def instance_to_json(instance: ProblemInstance, path: str) -> None:
    """Write the ``case``, the ``seed``, the graph's ``edges`` and each node's
    :func:`node_record`, explicit matrices and weights included."""
    payload = {
        "case": instance.case,
        "seed": instance.seed,
        "edges": instance.graph.edges,
        "nodes": [
            dict(record, groups=[g + 1 for g in record["groups"]])
            for record in map(node_record, instance.nodes)
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, default=lambda a: a.tolist())


def _entries(raw: Any, keys: str, where: str, arrays: str = "") -> list[Any]:
    """The values of the space-separated ``keys`` of the JSON object ``raw``; a
    missing key, or one of ``arrays`` that is not an array, is named."""
    missing = [k for k in keys.split() if not isinstance(raw, dict) or k not in raw]
    if missing:
        raise ValueError(f"{where} lacks the key(s) {', '.join(map(repr, missing))}")
    for key in arrays.split():
        if not isinstance(raw[key], list):
            raise ValueError(f"{where}: {key} must be a JSON array, got {raw[key]!r}")
    return [raw[key] for key in keys.split()]


def instance_from_json(path: str) -> ProblemInstance:
    """The instance :func:`instance_to_json` wrote; other keys are ignored.  A
    value that a reader, a constructor or :class:`Graph` rejects, or an ``A``
    whose width is not node entry 0's, is a ``ValueError`` naming the file,
    and the node entry where there is one."""
    with open(path) as fh:
        raw = json.load(fh)
    case, seed, edges, specs = _entries(raw, "case seed edges nodes", path, "edges nodes")
    entries = [_entries(spec, "A b delta beta1 beta2 groups", f"{path}: node entry {i}",
                        "A b groups") for i, spec in enumerate(specs)]
    where = path
    try:
        graph = Graph(len(entries), tuple(tuple(indices("edges", e)) for e in edges))
        instance = ProblemInstance(graph, [], case, seed)
        for i, (A, b, delta, beta1, beta2, groups) in enumerate(entries):
            where = f"{path}: node entry {i}"
            loss = HuberLoss(A=A, b=b, delta=delta)
            if i and loss.n != instance.n:
                raise ValueError(f"A has {loss.n} columns, node entry 0's {instance.n}")
            partition = GroupPartition(loss.n, tuple(
                np.asarray(indices(f"groups[{k}]", g)) - 1 for k, g in enumerate(groups)))
            instance.nodes.append(NodeProblem(SparseGroupReg(beta1, beta2, partition), loss))
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return instance
