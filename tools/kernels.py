"""Time per call of the hot kernels, next to their deterministic counts.

Runs in this process with one BLAS thread.  Each shape is an instance of
case 1 at instance seed 1 and its first DFAL subproblem (``k = 1``, ``xbar =
0``), formed as ``dfal_solve`` and ``async_dfal_solve`` form it: the block
constants ``lam L_i + psi_max`` of ``dfal`` and ``rbcd``, and ``lam L_i + d_i``
of ``arbcd``.  The point ``Y`` is where ``rbcd_run`` is after ``20 N`` events
from zero at activation seed 1.  Every row gives the minimum and the median
microseconds per call over ``--repeats`` timed loops, how many calls one loop
makes, and the work of one call (block gradients, proxes and exact residuals,
counted through wrappers in a separate untimed run):

- ``sparse_group_prox`` and ``sparse_group_min_norm`` per event: each node's
  event prox at ``1 / L_i`` and event residual at ``Y``, the nodes in turn;
- ``block_gradient``: each node's event gradient with its neighbour sum;
- ``stacked_prox`` and ``stacked_loss_gradient``: one call over all nodes;
- ``laplacian_apply`` and ``charge_activations`` (one activation per node);
- ``stack_objective``, ``consensus_violation`` and ``sadmm_cv``: the row
  metrics ``NodeStack.objective`` and ``consensus_violation`` at ``Y``, and
  the split ADMM's ``sadmm_cv`` with ``x = Y`` and ``y`` the gradient step
  ``Y - grad / L`` of ``stacked_prox``;
- ``sync_iteration``: ``ms_apg`` for 20 iterations from zero, no target;
- ``reference_iteration``: one APG iteration of the case-1 reference of the
  shape's instance (``reference_solve`` at tolerance ``REFERENCE_TOL``,
  uncached), its ``iterations`` the calls of the row;
- ``rbcd_event`` and ``arbcd_event``: ``rbcd_run`` and ``arbcd_chain`` for
  ``20 N`` events from zero at activation seed 1, no residual test, the
  activation stream drawn before the clock starts;
- ``rbcd_tested_event``: ``rbcd_run`` from zero at activation seed 1 with
  its stopping test at the subproblem's target ``xi / sqrt(N)``, every ``N``
  events, up to ``100 N`` events or the first passing test;
- ``residual_reached_gate``: the stopping test at ``Y`` and that target,
  where a gradient-mapping gate fires;
- ``residual_reached_exact``: the test at ``Y`` and a target equal to the
  exact max residual there, where every gate and every exact residual passes;
- ``huber_prox``: one warm-started call of the split ADMM's Huber prox map,
  as ``sadmm_step`` makes it: the calls of ``sadmm_solve`` for
  ``SADMM_ITERS`` iterations from zero, replayed on a map that the first
  call primed before the clock starts; its work is Newton passes (summed
  over the nodes) and Newton matrices built per call;
- ``sadmm_iteration``: one ``sadmm_solve`` iteration, row included, over a
  run of ``SADMM_ITERS`` iterations from zero, with the same work.

Usage, from any directory (the script imports the ``src`` next to it)::

    python3 tools/kernels.py                              # all four shapes
    python3 tools/kernels.py --shapes star-5 --repeats 3  # the smallest

It prints one JSON object.  Compare times only between runs made together on
one machine; the counts are the same on every machine.  A run of all four
shapes peaks at about 200 MB of RSS (``resource.getrusage`` over a full
``--repeats 5`` run): each ``sadmm_solve`` on the n = 2000 shape builds a
``NodeStack`` that holds both ``_A`` and a contiguous ``_At``, 16 MB each, and
its Huber prox map copies ``A`` once more.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

# one BLAS thread, set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import dfalopt.baselines as baselines  # noqa: E402
import dfalopt.solvers as solvers  # noqa: E402
from dfalopt import (  # noqa: E402
    CommLedger,
    charge_activations,
    consensus_violation,
    default_params,
    generate_instance,
    laplacian_apply,
    reference_solve,
)
from dfalopt.dfal import _psi_max, _subproblem_objective  # noqa: E402
from dfalopt.funcs import NodeStack  # noqa: E402

# name -> (topology, N, n_g, K); n = K n_g and m = n / (2N)
SHAPES = {
    "star-5": ("star", 5, 10, 10),  # n = 100, m = 10
    "star-5-n2000": ("star", 5, 10, 200),  # n = 2000, m = 200
    "clique-20": ("clique", 20, 10, 20),  # n = 200, m = 5
    "ring-200": ("ring", 200, 10, 40),  # n = 400, m = 1
}
INSTANCE_SEED = 1
ACTIVATION_SEED = 1
SYNC_ITERS = 20
# the case-1 reference's tolerance: the loosest reference_solve takes
REFERENCE_TOL = 1e-6
# the tested rbcd run's cap, in events per node
TESTED_EVENTS = 100
# each timed loop of a per-call kernel makes at least this many calls
MIN_CALLS = 200
# the sadmm runs' iterations
SADMM_ITERS = 20
# the work of one call: DFAL oracle calls, or the Huber prox's Newton work
ORACLE_WORK = ("block_gradients", "proxes", "exact_residuals")
NEWTON_WORK = ("newton_passes", "newton_builds")


def _instance(topology: str, N: int, n_g: int, K: int) -> Any:
    if topology != "ring":
        return generate_instance(1, topology, N, n_g, K, INSTANCE_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ring"
        edges = "".join(f"{i} {i + 1}\n" for i in range(1, N))
        path.write_text(f"{N}\n{edges}1 {N}\n")
        return generate_instance(1, "edge-file", N, n_g, K, INSTANCE_SEED, edge_file=str(path))


def _counting(obj: solvers.BlockObjective, counts: dict[str, int]) -> solvers.BlockObjective:
    """``obj`` whose block kernels count their calls in ``counts``."""

    def counted(name: str, kernel: Callable) -> Callable:
        def call(*args: Any) -> Any:
            counts[name] += 1
            return kernel(*args)

        return call

    blocks = [(counted("block_gradients", g), counted("proxes", p),
               counted("exact_residuals", r)) for g, p, r in obj.blocks]
    out = solvers.BlockObjective(obj.L, obj.smooth_grad, obj.prox_all, blocks, obj.value)
    out._failed = obj._failed  # the stopping test starts where obj's next would
    return out


class _premade_stream:
    """Within the block, the solvers' activation streams are the first
    ``events`` draws of ``activation_stream(seed, N)``, drawn on entry."""

    def __init__(self, seed: int, N: int, events: int) -> None:
        self.draws = list(itertools.islice(solvers.activation_stream(seed, N), events))

    def __enter__(self) -> None:
        self.saved = solvers.activation_stream
        solvers.activation_stream = lambda seed, N: iter(self.draws)

    def __exit__(self, *exc: Any) -> None:
        solvers.activation_stream = self.saved


class _counted_eye:
    """Within the block, ``np.eye`` counts its calls in ``counts``: the Huber
    prox map forms one identity for each Newton matrix it builds."""

    def __init__(self, counts: dict[str, int]) -> None:
        self.counts = counts

    def __enter__(self) -> None:
        self.saved = eye = np.eye

        def counted(*args: Any, **kwargs: Any) -> np.ndarray:
            self.counts["newton_builds"] += 1
            return eye(*args, **kwargs)

        np.eye = counted

    def __exit__(self, *exc: Any) -> None:
        np.eye = self.saved


def _sadmm_calls(nodes: Any, graph: Any) -> tuple[Any, np.ndarray, list]:
    """The stack and steps that ``sadmm_solve`` binds its Huber prox map to,
    and the ``(centers, starts)`` of each call of that map in ``SADMM_ITERS``
    iterations from zero."""
    bind, calls, bound = baselines._huber_prox_map, [], []

    def recording(stack: Any, t: np.ndarray) -> Callable:
        huber_prox = bind(stack, t)
        bound.extend((stack, t))

        def call(centers: np.ndarray, starts: np.ndarray) -> Any:
            calls.append((centers.copy(), starts.copy()))
            return huber_prox(centers, starts)

        return call

    baselines._huber_prox_map = recording
    try:
        baselines.sadmm_solve(nodes, graph, iters=SADMM_ITERS)
    finally:
        baselines._huber_prox_map = bind
    return *bound, calls


def _newton_rows(nodes: Any, graph: Any, repeats: int) -> dict[str, Any]:
    """The ``huber_prox`` and ``sadmm_iteration`` rows."""
    stack, step, calls = _sadmm_calls(nodes, graph)
    maps: list[Callable] = []

    def prime() -> None:
        maps.append(baselines._huber_prox_map(stack, step))
        maps[-1](*calls[0])

    def warm_calls(counts: dict[str, int] | None = None) -> None:
        huber_prox = maps.pop()
        with contextlib.nullcontext() if counts is None else _counted_eye(counts):
            for centers, starts in calls[1:]:
                passes = huber_prox(centers, starts)[1]
                if counts is not None:
                    counts["newton_passes"] += int(passes.sum())

    def iterations(counts: dict[str, int] | None = None) -> None:
        with contextlib.nullcontext() if counts is None else _counted_eye(counts):
            trace = baselines.sadmm_solve(nodes, graph, iters=SADMM_ITERS)
        if counts is not None:
            counts["newton_passes"] += sum(row.inner_iters for row in trace.rows)

    return {
        "huber_prox": _row(warm_calls, len(calls) - 1, repeats, warm_calls, NEWTON_WORK,
                           prime),
        "sadmm_iteration": _row(iterations, SADMM_ITERS, repeats, iterations, NEWTON_WORK),
    }


def _row(run: Callable[[], Any], calls: int, repeats: int,
         counted: Callable[[dict[str, int]], Any] | None = None,
         work: tuple[str, ...] = ORACLE_WORK,
         setup: Callable[[], None] = lambda: None) -> dict[str, Any]:
    """Minimum and median microseconds per call of ``run``, which makes
    ``calls`` calls, and the ``work`` that ``counted(counts)`` fills in for
    one call; ``setup()`` runs off the clock before each of them."""
    setup()
    run()  # warm the memos and caches
    times = []
    for _ in range(repeats):
        setup()
        start = time.perf_counter()
        run()
        times.append((time.perf_counter() - start) / calls * 1e6)
    row: dict[str, Any] = {"min_us": min(times), "median_us": statistics.median(times),
                           "calls": calls}
    if counted is not None:
        counts = dict.fromkeys(work, 0)
        setup()
        counted(counts)
        row["work_per_call"] = {k: v / calls for k, v in counts.items()}
    return row


def shape_table(name: str, repeats: int) -> dict[str, Any]:
    topology, N, n_g, K = SHAPES[name]
    inst = _instance(topology, N, n_g, K)
    nodes, graph = inst.nodes, inst.graph
    params = default_params(nodes, graph)
    lam, _, xi = params.schedule(1)
    stack = NodeStack(nodes)
    loss_lip = np.array([p.loss.lipschitz for p in nodes])
    zero = np.zeros(stack.shape)
    obj = _subproblem_objective(nodes, graph, lam, zero, lam * loss_lip + _psi_max(params, graph),
                                stack)
    obj_arbcd = _subproblem_objective(nodes, graph, lam, zero, lam * loss_lip + graph.degrees,
                                      stack)
    events = 20 * N
    Y = solvers.rbcd_run(obj, zero, events, ACTIVATION_SEED).y
    target = xi / math.sqrt(N)
    grads = [obj.blocks[i][0](Y) for i in range(N)]
    exact_max = max(obj.blocks[i][2](Y, grads[i]) for i in range(N))
    L, step = obj.L.tolist(), (1.0 / obj.L).tolist()
    V = [Y[i] - grads[i] / L[i] for i in range(N)]
    loops = math.ceil(MIN_CALLS / N)

    def per_node(kernel: Callable[[int], Any]) -> Callable[[], None]:
        def run() -> None:
            for _ in range(loops):
                for i in range(N):
                    kernel(i)
        return run

    def looped(kernel: Callable[[], Any]) -> Callable[[], None]:
        def run() -> None:
            for _ in range(loops):
                kernel()
        return run

    def events_of(chain: Callable, objective: solvers.BlockObjective, count: int,
                  at: float | None = None) -> Callable[..., Any]:
        def run(counts: dict[str, int] | None = None) -> Any:
            run_obj = objective if counts is None else _counting(objective, counts)
            with stream:
                return chain(run_obj, zero, count, ACTIVATION_SEED, residual_target=at)
        return run

    def test(at: float) -> Callable[..., Any]:
        def run(counts: dict[str, int] | None = None) -> None:
            test_obj = obj if counts is None else _counting(obj, counts)
            for _ in range(loops):
                test_obj.residual_reached(Y, at)
        return run

    # a tested rbcd run draws one block more per test
    stream = _premade_stream(ACTIVATION_SEED, N, 2 * TESTED_EVENTS * N)
    tested = events_of(solvers.rbcd_run, obj, TESTED_EVENTS * N, target)
    ledger, ones = CommLedger(N), np.ones(N, dtype=np.int64)
    reference = functools.partial(reference_solve, inst, REFERENCE_TOL, cache=False)
    reference_iters = reference().iterations
    V_all = Y - obj.smooth_grad(Y) / obj.L[:, None]
    rows = {
        "sparse_group_prox": _row(per_node(lambda i: obj.blocks[i][1](V[i], step[i])),
                                  loops * N, repeats),
        "sparse_group_min_norm": _row(per_node(lambda i: obj.blocks[i][2](Y, grads[i])),
                                      loops * N, repeats),
        "block_gradient": _row(per_node(lambda i: obj.blocks[i][0](Y)), loops * N, repeats),
        "stacked_prox": _row(looped(lambda: obj.prox_all(V_all)), loops, repeats),
        "stacked_loss_gradient": _row(looped(lambda: stack.loss_grad(Y)), loops, repeats),
        "laplacian_apply": _row(looped(lambda: laplacian_apply(graph, Y)), loops, repeats),
        "stack_objective": _row(looped(lambda: stack.objective(Y)), loops, repeats),
        "consensus_violation": _row(looped(lambda: consensus_violation(graph, Y)), loops,
                                    repeats),
        "sadmm_cv": _row(looped(lambda: baselines.sadmm_cv(graph, Y, V_all)), loops, repeats),
        "charge_activations": _row(looped(lambda: charge_activations(ledger, graph, ones)),
                                   loops, repeats),
        "sync_iteration": _row(lambda: solvers.ms_apg(obj, zero, max_iter=SYNC_ITERS),
                               SYNC_ITERS, repeats),
        "reference_iteration": _row(reference, reference_iters, repeats),
        "rbcd_event": _row(events_of(solvers.rbcd_run, obj, events), events, repeats,
                           events_of(solvers.rbcd_run, obj, events)),
        "arbcd_event": _row(events_of(solvers.arbcd_chain, obj_arbcd, events), events,
                            repeats, events_of(solvers.arbcd_chain, obj_arbcd, events)),
        "rbcd_tested_event": _row(tested, tested().iterations, repeats, tested),
        "residual_reached_gate": _row(test(target), loops, repeats, test(target)),
        "residual_reached_exact": _row(test(exact_max), loops, repeats, test(exact_max)),
    }
    for key, at in (("residual_reached_gate", target), ("residual_reached_exact", exact_max)):
        rows[key].update(target=at, passed=obj.residual_reached(Y, at))
    rows["reference_iteration"].update(tolerance=REFERENCE_TOL, iterations=reference_iters)
    rows.update(_newton_rows(nodes, graph, repeats))
    return {
        "instance": {"case": 1, "topology": topology, "N": N, "n_g": n_g, "K": K,
                     "seed": INSTANCE_SEED, "n": stack.shape[1],
                     "m": nodes[0].loss.A.shape[0]},
        "subproblem": {"k": 1, "lam": lam, "activation_seed": ACTIVATION_SEED,
                       "events_to_Y": events},
        "rows": rows,
    }


def table(shapes: list[str], repeats: int) -> dict[str, Any]:
    start = time.perf_counter()
    out = {name: shape_table(name, repeats) for name in shapes}
    return {
        "repeats": repeats,
        "blas_threads": 1,
        "shapes": out,
        "seconds": time.perf_counter() - start,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shapes", nargs="+", choices=list(SHAPES), default=list(SHAPES))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(json.dumps(table(args.shapes, args.repeats), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
