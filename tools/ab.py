"""An in-process paired A/B of two source trees: time per operation, base against change.

The package ``src/dfalopt`` of the commit BASE, taken out with ``git archive``
into a temporary directory, and the one of this tree are imported into one
process as two packages (``tools/digest.py``'s ``base_tree``), under one BLAS
thread.  This tree is imported a second time, as a control: the change against
a copy of itself (an A/A run) shows how far two equal trees read apart in this
session.

Each operation is one call of a package, on instances made before the clock
starts.  The six end-to-end operations (the default ``--ops``) are entries of
``tools/digest.py`` on the benchmark's workloads (instance seed 1, star,
N = 5, n_g = K = 10), timed as the solve and its record (the untimed round
fills the digest's caches of instances, parameters and optima):
``async-rbcd`` and ``async-arbcd`` are ``async-star5-rbcd-4001`` and
``async-star5-arbcd-4001``, ``sadmm-admm`` is ``sadmm-200`` then ``admm-2``,
as ``baselines-case2`` solves them, ``dfal-case2`` is ``dfal-case2``, and
``ref-case1`` and ``ref-case2`` are ``reference-case1`` and
``reference-case2``, an uncached ``reference_solve`` each.

The kernel operations ``SHAPE:ROW`` time 20 hot kernels (``ROWS``) on four
shapes (``SHAPES``); a shape name given to ``--ops`` selects its rows.  A shape
is a case-1 instance at seed 1 and its first DFAL subproblem (``k = 1``,
``xbar = 0``) with the block constants ``lam L_i + psi_max`` of ``dfal`` and
``rbcd`` and ``lam L_i + d_i`` of ``arbcd``, at the point ``Y`` that ``rbcd_run``
reaches in ``20 N`` events from zero at activation seed 1.  A row's call is a
node's event prox, residual or gradient (``sparse_group_prox``,
``sparse_group_min_norm``, ``block_gradient``, the nodes in turn); one
all-node call (``stacked_prox``, ``stacked_loss_gradient``, ``laplacian_apply``,
``charge_activations``, the row metrics ``stack_objective``,
``consensus_violation`` and ``sadmm_cv`` with ``y = Y - grad / L``, and
``gauge``, ``sparse_group_gauge`` on the stacked partition at ``Y`` with each
node's weights, the references' certificate kernel); an iteration of ``ms_apg``
(20 from zero) or of the shape's case-1 reference at tolerance ``REFERENCE_TOL``
(an APG iteration or a Newton step); an event of ``rbcd_run`` or ``arbcd_chain``
(``20 N`` from zero, the activations drawn off the clock), or of ``rbcd_run``
tested at the target ``xi / sqrt(N)`` every ``N`` events
(``rbcd_tested_event``, up to ``100 N``); a stopping test at ``Y`` that fails
at a gate or passes through every exact residual (``residual_reached_gate``
and ``_exact``); a warm call of the split ADMM's Huber prox map, replaying
``sadmm_solve``'s calls on a map primed off the clock (``huber_prox``); or a
``sadmm_solve`` iteration.

Each operation runs its rounds back to back, after one untimed round that warms
the memos and caches.  A round runs it once on each side, the sides in each of
their six orders in turn, so each side runs first, second and last about
equally often.  The kernel operations are built and timed one shape at a time.  For each operation
the script prints one JSON object:

- ``base_ms`` and ``change_ms``: the median time of one call on each side;
- ``ratio``: the median and quartiles of change / base over the rounds, and
  ``wins``, the rounds in which the change was faster;
- ``aa``: the same of control / change, the A/A band;
- ``verdict``: ``faster`` when the ratio's upper quartile lies below the A/A
  band's lower one, ``slower`` when its lower quartile lies above the band's
  upper one, else ``within the A/A band``;
- ``times_ms``: each side's time of each round, in round order, from which any
  verdict rule can be re-derived offline;
- ``outputs_equal`` and ``aa_outputs_equal``: whether the two sides' outputs
  hash alike in every round, as ``tools/digest.py`` hashes them (rows, ledger
  arrays, budgets, final state and stop reason; a reference's optimum, point,
  method, certificate and iterations; a kernel row's last outputs);
- for a kernel row, the change's ``calls`` per operation, ``base_us`` and
  ``change_us`` per call, each side's ``work_per_call`` (block gradients,
  proxes and exact residuals, or Newton passes and matrices built, from one
  untimed run through counting wrappers) where the row counts it, and the
  change's ``target`` and ``passed`` or ``tolerance`` and ``iterations``.

Usage, from any directory of the repository::

    python3 tools/ab.py HEAD~1                              # the end-to-end operations
    python3 tools/ab.py HEAD~1 --ops ref-case1 --rounds 40  # one, longer
    python3 tools/ab.py HEAD --ops star-5 --rounds 3        # star-5's kernel rows, A/A

A kernel row that one side's tree does not have (``gauge`` on a base older than
its kernel) prints only its ``op``, ``rounds`` 0 and an ``error`` naming the side.
So does an operation that raises on a side (``ref-case1`` on a base whose
``Reference`` has no ``gap``): its ``error`` is the side and the exception's first
line, and the run goes on to the next operation.

Compare ratios only against the A/A band of the same run.  On a 2-core VM at
the default 20 rounds, ``--ops star-5`` takes about 13 s, and all four shapes
take about 4.5 min and peak at 283 MB of RSS (``ru_maxrss``), the three
sides' star-5 n = 2000 contexts together.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import itertools
import json
import math
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import digest  # noqa: E402  (first: it sets one BLAS thread before numpy loads)
import numpy as np  # noqa: E402

SIDES = ("base", "change", "control")
ORDERS = list(itertools.permutations(SIDES))


@dataclasses.dataclass
class Op:
    """One side's operation: ``run()``, timed after an untimed ``setup()``, returns what
    is hashed; a kernel row's makes ``calls`` calls of ``work`` each, and has ``extras``."""

    run: Callable[[], Any]
    setup: Callable[[], Any] = lambda: None
    calls: int | None = None
    work: dict[str, float] | None = None
    extras: dict[str, Any] = dataclasses.field(default_factory=dict)


# name -> the digest entries its timed call runs
OPS = {
    "async-rbcd": ("async-star5-rbcd-4001",),
    "async-arbcd": ("async-star5-arbcd-4001",),
    "sadmm-admm": ("sadmm-200", "admm-2"),
    "dfal-case2": ("dfal-case2",),
    "ref-case1": ("reference-case1",),
    "ref-case2": ("reference-case2",),
}

# the kernel shapes: name -> (topology, N, n_g, K); n = K n_g and m = n / (2N)
SHAPES = {
    "star-5": ("star", 5, 10, 10),  # n = 100, m = 10
    "star-5-n2000": ("star", 5, 10, 200),  # n = 2000, m = 200
    "clique-20": ("clique", 20, 10, 20),  # n = 200, m = 5
    "ring-200": ("ring", 200, 10, 40),  # n = 400, m = 1
}
ROWS = tuple("""sparse_group_prox sparse_group_min_norm block_gradient stacked_prox
    stacked_loss_gradient laplacian_apply stack_objective consensus_violation sadmm_cv
    charge_activations sync_iteration reference_iteration rbcd_event arbcd_event
    rbcd_tested_event residual_reached_gate residual_reached_exact huber_prox
    sadmm_iteration gauge""".split())
KERNEL_SEED = 1  # the shapes' instance and activation seed
SYNC_ITERS = 20
# the case-1 reference's tolerance: the loosest reference_solve takes
REFERENCE_TOL = 1e-6
# the tested rbcd run's cap, in events per node
TESTED_EVENTS = 100
# a per-node or all-node kernel's run makes at least this many calls
MIN_CALLS = 200
SADMM_ITERS = 20
# the work of one call: DFAL oracle calls, or the Huber prox's Newton work
ORACLE_WORK = ("block_gradients", "proxes", "exact_residuals")
NEWTON_WORK = ("newton_passes", "newton_builds")


@contextlib.contextmanager
def _patched(owner: Any, name: str, value: Any):
    """Within the block, ``owner.name`` is ``value``."""
    saved = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, saved)


def _counted_eye(counts: dict[str, int] | None) -> contextlib.AbstractContextManager:
    """Within the block, ``np.eye`` counts its calls in ``counts`` (if any): the
    Huber prox map forms one identity for each Newton matrix it builds."""
    eye = np.eye

    def counted(*args: Any, **kwargs: Any) -> np.ndarray:
        counts["newton_builds"] += 1
        return eye(*args, **kwargs)
    return contextlib.nullcontext() if counts is None else _patched(np, "eye", counted)


def _counting(obj: Any, counts: dict[str, int]) -> Any:
    """``obj`` whose block kernels count their calls in ``counts``."""

    def counted(name: str, kernel: Callable) -> Callable:
        def call(*args: Any) -> Any:
            counts[name] += 1
            return kernel(*args)
        return call

    out = dataclasses.replace(obj, blocks=[
        tuple(counted(name, kernel) for name, kernel in zip(ORACLE_WORK, block))
        for block in obj.blocks])
    out._failed = obj._failed  # the stopping test starts where obj's next would
    return out


def _kernel(run: Callable[..., Any], calls: int, work: tuple[str, ...] = (),
            setup: Callable[[], Any] = lambda: None, **extras: Any) -> Op:
    """A kernel row whose ``run()`` makes ``calls`` calls; with ``work``,
    ``run(counts)`` counts one run's ``work`` in ``counts``, after ``setup()``."""
    op = Op(run, setup, calls, extras=extras)
    if work:
        counts = dict.fromkeys(work, 0)
        setup()
        run(counts)
        op.work = {k: v / calls for k, v in counts.items()}
    return op


def _kernel_rows(pkg: ModuleType, shape: str) -> dict[str, Callable[[], Op | None]]:
    """Each row of ``shape`` on ``pkg``: a function that builds its :class:`Op`, or
    returns None where ``pkg`` lacks the row's kernel."""
    topology, N, n_g, K = SHAPES[shape]
    with tempfile.TemporaryDirectory() as tmp:  # a ring comes from an edge file
        path = Path(tmp) / "ring"
        path.write_text(f"{N}\n" + "".join(f"{i} {i + 1}\n" for i in range(1, N)) + f"1 {N}\n")
        ring = {"edge_file": str(path)} if topology == "ring" else {}
        inst = pkg.generate_instance(1, "edge-file" if ring else topology, N, n_g, K,
                                     KERNEL_SEED, **ring)
    nodes, graph, solvers, baselines = inst.nodes, inst.graph, pkg.solvers, pkg.baselines
    params = pkg.default_params(nodes, graph)
    lam, _, xi = params.schedule(1)
    stack = pkg.funcs.NodeStack(nodes)
    zero = np.zeros(stack.shape)
    block_L = lam * np.array([p.loss.lipschitz for p in nodes])
    subproblem = functools.partial(pkg.dfal._subproblem_objective, nodes, graph, lam, zero)
    obj = subproblem(block_L + pkg.dfal._psi_max(params, graph), stack)
    obj_arbcd = subproblem(block_L + graph.degrees, stack)
    events, target, loops = 20 * N, xi / math.sqrt(N), math.ceil(MIN_CALLS / N)
    Y = solvers.rbcd_run(obj, zero, events, KERNEL_SEED).y
    grads = [obj.blocks[i][0](Y) for i in range(N)]
    exact_max = max(obj.blocks[i][2](Y, grads[i]) for i in range(N))
    L, step = obj.L.tolist(), (1.0 / obj.L).tolist()
    V = [Y[i] - grads[i] / L[i] for i in range(N)]
    V_all = Y - obj.smooth_grad(Y) / obj.L[:, None]
    # a tested rbcd run draws one block more per test
    draws = list(itertools.islice(solvers.activation_stream(KERNEL_SEED, N),
                                  2 * TESTED_EVENTS * N))
    ones = np.ones(N, dtype=np.int64)

    def looped(kernel: Callable[[], Any], calls: int = 1) -> Callable[[], Op]:
        def run() -> Any:
            for _ in range(loops):
                out = kernel()
            return out
        return lambda: _kernel(run, loops * calls)

    def per_node(kernel: Callable[[int], Any]) -> Callable[[], Op]:
        return looped(lambda: [kernel(i) for i in range(N)], N)

    def charges() -> Any:
        ledger = pkg.CommLedger(N)
        for _ in range(loops):
            pkg.charge_activations(ledger, graph, ones)
        return ledger

    def events_of(chain: Callable, objective: Any, count: int,
                  at: float | None = None) -> Callable[..., Any]:
        def run(counts: dict[str, int] | None = None) -> Any:
            run_obj = objective if counts is None else _counting(objective, counts)
            with _patched(solvers, "activation_stream", lambda seed, N: iter(draws)):
                return chain(run_obj, zero, count, KERNEL_SEED, residual_target=at)
        return run

    def tested() -> Op:
        run = events_of(solvers.rbcd_run, obj, TESTED_EVENTS * N, target)
        return _kernel(run, run().iterations, ORACLE_WORK)

    def test(at: float) -> Callable[[], Op]:
        def run(counts: dict[str, int] | None = None) -> bool:
            test_obj = obj if counts is None else _counting(obj, counts)
            for _ in range(loops):
                out = test_obj.residual_reached(Y, at)
            return out
        return lambda: _kernel(run, loops, ORACLE_WORK, target=at,
                               passed=obj.residual_reached(Y, at))

    def reference() -> Op:
        solve = functools.partial(pkg.reference_solve, inst, REFERENCE_TOL, cache=False)
        iterations = solve().iterations
        return _kernel(lambda: digest.reference_record(solve()), iterations,
                       tolerance=REFERENCE_TOL, iterations=iterations)

    def huber_prox() -> Op:
        # the steps and (centers, starts) of each Huber prox call of a sadmm run
        bind, steps, calls, maps = baselines._huber_prox_map, [], [], []

        def recording(run_stack: Any, t: np.ndarray) -> Callable:
            steps.append(t)
            huber = bind(run_stack, t)

            def call(centers: np.ndarray, starts: np.ndarray) -> Any:
                calls.append((centers.copy(), starts.copy()))
                return huber(centers, starts)
            return call

        with _patched(baselines, "_huber_prox_map", recording):
            baselines.sadmm_solve(nodes, graph, iters=SADMM_ITERS)

        def prime() -> None:
            maps.append(bind(stack, steps[0]))
            maps[-1](*calls[0])

        def run(counts: dict[str, int] | None = None) -> Any:
            huber = maps.pop()
            with _counted_eye(counts):
                for centers, starts in calls[1:]:
                    out = huber(centers, starts)
                    if counts is not None:
                        counts["newton_passes"] += int(out[1].sum())
            return out
        return _kernel(run, len(calls) - 1, NEWTON_WORK, prime)

    def gauge() -> Op | None:
        kernel, part = getattr(pkg.funcs, "sparse_group_gauge", None), stack.partition
        if kernel is None:  # a tree older than the kernel
            return None
        return looped(functools.partial(kernel, part, Y.reshape(-1),
                                        stack._b1[part.perm[part.starts]], stack._b2))()

    def sadmm(counts: dict[str, int] | None = None) -> list:
        with _counted_eye(counts):
            trace = baselines.sadmm_solve(nodes, graph, iters=SADMM_ITERS)
        if counts is not None:
            counts["newton_passes"] += sum(row.inner_iters for row in trace.rows)
        return digest.trace_record(trace)

    return {
        "sparse_group_prox": per_node(lambda i: obj.blocks[i][1](V[i], step[i])),
        "sparse_group_min_norm": per_node(lambda i: obj.blocks[i][2](Y, grads[i])),
        "block_gradient": per_node(lambda i: obj.blocks[i][0](Y)),
        "stacked_prox": looped(lambda: obj.prox_all(V_all)),
        "stacked_loss_gradient": looped(lambda: stack.loss_grad(Y)),
        "laplacian_apply": looped(lambda: pkg.laplacian_apply(graph, Y)),
        "stack_objective": looped(lambda: stack.objective(Y)),
        "consensus_violation": looped(lambda: pkg.consensus_violation(graph, Y)),
        "sadmm_cv": looped(lambda: baselines.sadmm_cv(graph, Y, V_all)),
        "charge_activations": lambda: _kernel(charges, loops),
        "sync_iteration": lambda: _kernel(
            lambda: solvers.ms_apg(obj, zero, max_iter=SYNC_ITERS), SYNC_ITERS),
        "reference_iteration": reference,
        "rbcd_event": lambda: _kernel(events_of(solvers.rbcd_run, obj, events), events,
                                      ORACLE_WORK),
        "arbcd_event": lambda: _kernel(events_of(solvers.arbcd_chain, obj_arbcd, events),
                                       events, ORACLE_WORK),
        "rbcd_tested_event": tested,
        "residual_reached_gate": test(target),
        "residual_reached_exact": test(exact_max),
        "huber_prox": huber_prox,
        "sadmm_iteration": lambda: _kernel(sadmm, SADMM_ITERS, NEWTON_WORK),
        "gauge": gauge,
    }


def _build(pkg: ModuleType, shape: str | None, ops: list[str]) -> dict[str, Op | None]:
    """The operations ``ops`` on ``pkg``: end-to-end ones, or ``shape``'s rows; where
    building the rows raises, each operation raises the same when it runs."""
    if shape is None:
        return {op: Op(lambda names=OPS[op]: [digest.ENTRIES[name](pkg) for name in names])
                for op in ops}
    try:
        rows = _kernel_rows(pkg, shape)
        return {op: rows[op.partition(":")[2]]() for op in ops}
    except Exception as exc:
        return dict.fromkeys(ops, Op(functools.partial(_reraise, exc)))


def _reraise(exc: Exception) -> None:
    raise exc


def _first_line(exc: Exception) -> str:
    """The first line of ``exc`` as a traceback ends with it: ``Type: message``."""
    return traceback.format_exception_only(exc)[0].splitlines()[0]


def _ratios(num: list[float], den: list[float]) -> dict[str, float]:
    """Median and quartiles of ``num / den`` over the rounds, and the rounds below 1."""
    ratios = [a / b for a, b in zip(num, den)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "wins": sum(r < 1.0 for r in ratios)}


def _summary(op: str, rounds: int, sides: dict[str, Op], times: dict[str, list[float]],
             hashes: dict[str, set[str]]) -> dict[str, Any]:
    ratio, aa = _ratios(times["change"], times["base"]), _ratios(times["control"],
                                                                 times["change"])
    verdict = ("faster" if ratio["q3"] < aa["q1"] else
               "slower" if ratio["q1"] > aa["q3"] else "within the A/A band")
    out = {
        "op": op, "rounds": rounds,
        "base_ms": statistics.median(times["base"]) * 1e3,
        "change_ms": statistics.median(times["change"]) * 1e3,
        "ratio": ratio, "aa": aa, "verdict": verdict,
        "outputs_equal": len(hashes["base"]) == 1 and hashes["base"] == hashes["change"],
        "aa_outputs_equal": len(hashes["change"]) == 1 and hashes["change"] == hashes["control"],
        "times_ms": {side: [t * 1e3 for t in times[side]] for side in SIDES},
    }
    change = sides["change"]
    if change.calls is not None:
        out["calls"] = change.calls
        for side in SIDES[:2]:
            out[f"{side}_us"] = statistics.median(times[side]) / sides[side].calls * 1e6
        if change.work is not None:
            out["work_per_call"] = {side: sides[side].work for side in SIDES[:2]}
        out.update(change.extras)
    return out


def measure(packages: dict[str, ModuleType], ops: list[str],
            rounds: int) -> Iterator[dict]:
    """One summary per operation, as it ends, of ``rounds`` timed rounds over the
    ``SIDES``; a shape's kernel rows are built together, one shape at a time."""
    for shape, group in itertools.groupby(ops, lambda op: op.split(":")[0] if ":" in op
                                          else None):
        group = list(group)
        built = {side: _build(pkg, shape, group) for side, pkg in packages.items()}
        for op in group:
            sides = {side: built[side][op] for side in SIDES}
            missing = [side for side, built_op in sides.items() if built_op is None]
            if missing:
                yield {"op": op, "rounds": 0, "error": f"no such kernel on {', '.join(missing)}"}
                continue
            times, hashes = {side: [] for side in SIDES}, {side: set() for side in SIDES}
            try:
                for r in range(-1, rounds):  # round -1 is untimed
                    for side in ORDERS[r % len(ORDERS)]:
                        sides[side].setup()
                        gc.collect()
                        start = time.perf_counter()
                        record = sides[side].run()
                        elapsed = time.perf_counter() - start
                        hashes[side].add(digest.sha256(record))
                        if r >= 0:
                            times[side].append(elapsed)
            except Exception as exc:  # one error line for the side that raised, and go on
                yield {"op": op, "rounds": 0, "error": f"{side}: {_first_line(exc)}"}
                continue
            yield _summary(op, rounds, sides, times, hashes)
        del built, sides


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the commit to compare this tree against")
    kernel_ops = [f"{shape}:{row}" for shape in SHAPES for row in ROWS]
    parser.add_argument("--ops", nargs="+", metavar="OP", default=list(OPS),
                        choices=[*OPS, *SHAPES, *kernel_ops],
                        help=f"operations, from {', '.join(OPS)}, SHAPE:ROW, or a SHAPE "
                             f"for its rows; shapes {', '.join(SHAPES)}")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    ops = list(dict.fromkeys(op for name in args.ops for op in (
        [f"{name}:{row}" for row in ROWS] if name in SHAPES else [name])))
    try:
        with digest.base_tree(args.base, "ab_base") as (base, base_pkg):
            packages = {"base": base_pkg}
            for side in SIDES[1:]:
                packages[side] = digest.load(f"ab_{side}", ROOT / "src" / "dfalopt")
            for summary in measure(packages, ops, args.rounds):
                print(json.dumps({"base": base, **summary}), flush=True)
    except digest.NoBase as exc:  # one error line, not a traceback
        print(f"ab.py: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
