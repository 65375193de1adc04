"""One benchmark child process: set up the workload's instance and run it.

    python3 benchmark/worker.py --workload NAME --seed N --rep J \
        --t0 MONOTONIC --mode run|traced|setup [--spans PATH]

Run from the repository root with ``src`` on ``PYTHONPATH``.  Prints one
JSON object per line: ``{"setup_s": ...}`` once set-up is done, one
``{"op": ...}`` per operation as it finishes, and ``{"done": ...}`` last.
In ``run`` and ``setup`` mode a ``probe.SpeedProbe`` samples the machine's
speed from set-up on; every time reported excludes the probe's own time, and
the set-up record and each operation carry ``probe_s``, the mean kernel time
right after set-up and while the operation ran.  A ``setup`` child stops
after its set-up record.
The parent keeps the lines written before it kills a child that ran past its
limit, so finished operations still count.  ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, imports, ``generate_instance`` and
``default_params``.  ``--rep`` only labels the repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import sys
import time
import traceback
from typing import Any, Callable

import numpy as np

from dfalopt import baselines, bench, dfal
from probe import SpeedProbe

from workloads import (
    ADMM_ITERS, ASYNC_P, EPS_FEAS, EPS_OPT, INSTANCE_SEED, MUST_CONVERGE,
    SADMM_ITERS, WORKLOADS, Workload,
)

Emit = Callable[[dict[str, Any]], None]


def setup(w: Workload) -> tuple[bench.ProblemInstance, dfal.DfalParams | None]:
    inst = bench.generate_instance(w.case, w.topology, w.N, w.n_g, w.K, INSTANCE_SEED)
    params = None
    if w.outer_cap is not None:
        params = dfal.default_params(
            inst.nodes, inst.graph, outer_cap=w.outer_cap,
            eps_opt=EPS_OPT, eps_feas=EPS_FEAS,
        )
    return inst, params


def solve(
    kind: str,
    inst: bench.ProblemInstance,
    params: dfal.DfalParams | None,
    f_star: float,
    seed: int,
):
    """One solver call of a workload; ``seed`` drives async activations."""
    nodes, graph = inst.nodes, inst.graph
    if kind in ("afal-rbcd", "afal-arbcd"):
        return dfal.async_dfal_solve(
            nodes, graph, params, p=ASYNC_P, oracle=kind.split("-")[1],
            seed=seed, outer_iters=params.outer_cap, reference=f_star,
        )
    if kind == "sadmm":
        return baselines.sadmm_solve(
            nodes, graph, iters=SADMM_ITERS, reference=f_star,
            eps_opt=EPS_OPT, eps_feas=EPS_FEAS,
        )
    if kind == "admm":
        return baselines.admm_solve(
            nodes, graph, iters=ADMM_ITERS, reference=f_star,
            eps_opt=EPS_OPT, eps_feas=EPS_FEAS,
        )
    raise ValueError(f"unknown solve {kind!r}")


def check_solve(kind: str, trace) -> str | None:
    """Why a finished solve counts as failed, or None when it passes."""
    if not trace.rows:
        return "empty trace"
    for row in trace.rows:
        values = (row.lam, row.F_sum, row.rel_subopt, row.CV, row.dual_norm)
        if not all(math.isfinite(v) for v in values):
            return f"non-finite trace value at outer iteration {row.k}"
    final = trace.final
    if kind in MUST_CONVERGE:
        if not trace.converged:
            return f"not converged (stop reason {final.stop_reason})"
        if final.rel_subopt > EPS_OPT or final.CV > EPS_FEAS:
            return f"rel_subopt {final.rel_subopt:.3g} or CV {final.CV:.3g} off target"
    return None


def solve_counters(trace) -> dict[str, Any]:
    """Deterministic work of one solve, read from its trace and ledger."""
    ledger = trace.config["ledger"]
    return {
        "comm_per_node_max": int(ledger.vectors_sent.max()),
        "oracle_evals": int(ledger.grad_evals.sum() + ledger.prox_evals.sum()),
        "outer_iters": len(trace.rows),
        "inner_iters": sum(r.inner_iters for r in trace.rows),
        "stop_reason": trace.final.stop_reason,
        "converged": trace.converged,
        "rel_subopt": trace.final.rel_subopt,
        "CV": trace.final.CV,
    }


def run_rep(
    w: Workload,
    inst: bench.ProblemInstance,
    params: dfal.DfalParams | None,
    seed: int,
    emit: Emit,
    tracer=None,
    probe: SpeedProbe | None = None,
) -> dict[str, Any]:
    """Reference solve, then each of the workload's solves, each checked.

    Emits one record per operation and returns the reference method and
    the worst final accuracy of the solves that must converge.
    """
    summary: dict[str, Any] = {"reference_method": None, "rel_subopt_max": 0.0, "cv_max": 0.0}
    ref = None
    for op_index, kind in enumerate(("ref",) + w.solves, start=1):
        if tracer is not None:
            tracer.run_id = op_index
        record: dict[str, Any] = {"op": kind, "ok": False, "reason": None}
        mark = probe.mark() if probe else None

        def stop_clock() -> None:
            record["s"] = time.perf_counter() - started
            if probe:
                spent, record["probe_s"] = probe.since(mark)
                record["s"] -= spent

        started = time.perf_counter()
        try:
            if kind == "ref":
                ref = bench.reference_solve(inst, cache=False)
                stop_clock()
                summary["reference_method"] = ref.method
                record["method"] = ref.method
                if not ref.converged:
                    record["reason"] = "reference not certified"
                elif not (math.isfinite(ref.f_star) and np.all(np.isfinite(ref.x_ref))):
                    record["reason"] = "non-finite reference"
            elif ref is None:
                record["reason"] = "no reference"
            else:
                trace = solve(kind, inst, params, ref.f_star, seed)
                stop_clock()
                record["reason"] = check_solve(kind, trace)
                record["counters"] = solve_counters(trace)
                if kind in MUST_CONVERGE and record["reason"] is None:
                    summary["rel_subopt_max"] = max(
                        summary["rel_subopt_max"], trace.final.rel_subopt)
                    summary["cv_max"] = max(summary["cv_max"], trace.final.CV)
        except Exception as exc:  # one failed operation must not stop the run
            traceback.print_exc(file=sys.stderr)
            stop_clock()
            record["reason"] = f"{type(exc).__name__}: {exc}"
        record["ok"] = record["reason"] is None
        emit(record)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "traced", "setup"), default="run")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    def emit(record: dict[str, Any]) -> None:
        print(json.dumps(record), flush=True)

    w = WORKLOADS[args.workload]
    tracer = probe = None
    installed: contextlib.AbstractContextManager = contextlib.nullcontext()
    if args.mode == "traced":
        import spans

        tracer = spans.Tracer()
        installed = spans.installed(tracer)
    else:
        probe = installed = SpeedProbe()
    with installed:
        inst, params = setup(w)
        record = {"setup_s": time.monotonic() - args.t0 - (probe.spent if probe else 0.0)}
        if probe:
            record["probe_s"] = probe.window()
        emit(record)
        if args.mode == "setup":
            return 0
        summary = run_rep(w, inst, params, args.seed, emit, tracer, probe)
    done: dict[str, Any] = {
        "done": True,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "probe_s": probe.mean() if probe else None,
    }
    if tracer is not None:
        table = spans.layer_table(tracer)
        table["dfal.rel_subopt_max"] = summary["rel_subopt_max"]
        table["dfal.cv_max"] = summary["cv_max"]
        done["table"] = table
        done["reference_method"] = summary["reference_method"]
        if args.spans:
            tracer.save(args.spans)
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
