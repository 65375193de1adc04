"""Command line front end: instance generation, reference solves, single
solver runs with CSV traces, and the full benchmark matrix."""

from __future__ import annotations

import argparse
import json
import sys

from . import bench as bench_mod
from .graph import build_topology
from .trace import CommLedger, RunTrace, write_json


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    sizes = bench_mod.DEFAULT_BENCH_CONFIG
    p.add_argument("--topology", choices=[*bench_mod.CONFIG_DOMAINS["topologies"], "edge-file"],
                   default="star")
    p.add_argument("--edge-file", default=None,
                   help="edge list file (required with --topology edge-file)")
    p.add_argument("--case", type=int, default=1)
    p.add_argument("--nodes", type=int, default=None,
                   help=f"number of nodes N (default {sizes['N']}, or the edge file's count)")
    p.add_argument("--ng", type=int, default=sizes["n_g"], help="group size n_g")
    p.add_argument("--groups", type=int, default=sizes["K"], help="number of groups K")
    p.add_argument("--seed", type=int, default=1)


def _instance(args: argparse.Namespace) -> "bench_mod.ProblemInstance":
    num_nodes = args.nodes
    if num_nodes is None:
        num_nodes = (build_topology(args.topology, 0, args.edge_file).num_nodes
                     if args.topology == "edge-file" else bench_mod.DEFAULT_BENCH_CONFIG["N"])
    return bench_mod.generate_instance(
        args.case, args.topology, num_nodes, args.ng, args.groups, args.seed,
        edge_file=args.edge_file,
    )


def _cmd_gen(args: argparse.Namespace) -> int:
    instance = _instance(args)
    bench_mod.instance_to_json(instance, args.out)
    print(f"wrote instance (N={len(instance.nodes)}, n={instance.n}, "
          f"case {instance.case}) to {args.out}")
    return 0


def _cmd_ref(args: argparse.Namespace) -> int:
    if args.instance:
        instance = bench_mod.instance_from_json(args.instance)
    else:
        instance = _instance(args)
    ref = bench_mod.reference_solve(instance, tolerance=args.tolerance)
    write_json({"F_star": ref.f_star, "method": ref.method, "converged": ref.converged,
                "gap": ref.gap, "iterations": ref.iterations, "seconds": ref.seconds,
                "x_ref": ref.x_ref}, args.out)
    print(f"reference F* = {ref.f_star:.12g} ({ref.method}, gap {ref.gap:.2e}, "
          f"{ref.iterations} iterations, {ref.seconds:.3g} s) -> {args.out}")
    return 0


def _apg_trace(ref) -> RunTrace:
    # the case-1 reference is itself the centralized run (shared partition), scored
    # against its dual bound D = F* - gap |F*|, so the row's gap is its certificate
    trace = RunTrace("apg", CommLedger(1), ref.f_star - ref.gap * (abs(ref.f_star) or 1), {})
    # a gradient per APG iteration and Newton step, a prox per APG iteration but the
    # last of a converged reference, whose prox only served its test
    trace.ledger.grad_evals += ref.iterations
    trace.ledger.prox_evals += ref.iterations - ref.newton - ref.converged
    trace.record(
        k=1, lam=0.0, F_sum=ref.f_star, CV=0.0, dual_norm=0.0,
        inner_iters=ref.iterations, stop_reason="residual" if ref.converged else "cap",
    )
    # converged is the residual certificate's, not the row gap's
    trace.stop_reason = "converged" if ref.converged else "cap"
    trace.wall_time = ref.seconds
    return trace


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.alg == "apg" and args.case != 1:
        raise ValueError("--alg apg requires --case 1 (shared partition)")
    # every setting before the reference solve, for apg too, which uses none;
    # an unset flag keeps the matrix's value
    settings = {k: v for k, v in vars(args).items() if k in bench_mod.DEFAULT_BENCH_CONFIG}
    cfg = bench_mod.read_config(settings)
    instance = _instance(args)
    ref = bench_mod.reference_solve(instance)
    if args.alg == "apg":
        trace = _apg_trace(ref)
    else:
        trace = bench_mod.run_solver(args.alg, instance, ref, cfg)

    trace.write_csv(args.out)
    trace.write_summary(args.out + ".summary.json")
    last = trace.final
    print(
        f"{args.alg}: k={last.k} rel_subopt={last.rel_subopt:.3e} "
        f"CV={last.CV:.3e} converged={trace.converged} -> {args.out}"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = None
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
    report = bench_mod.run_benchmark(config)
    report.to_json(args.out)
    print(f"{len(report.rows)} runs, digest {report.config_digest} -> {args.out}")
    width = max(map(len, bench_mod.CONFIG_DOMAINS["algorithms"]))
    for m in report.means:
        print(
            f"  {m['algorithm']:{width}s} {m['topology']:6s} case {m['case']}: "
            f"rel={m['rel_subopt']:.2e} CV={m['CV']:.2e} "
            f"iters={m['outer_iterations']:.0f} comm/node={m['comm_per_node_max']:.0f}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dfalopt",
        description="Decentralized composite optimization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    _add_instance_args(p_gen)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_ref = sub.add_parser("ref", help="compute and store a reference solution")
    _add_instance_args(p_ref)
    p_ref.add_argument("--instance", default=None, help="instance JSON file")
    p_ref.add_argument("--tolerance", type=float, default=1e-9)
    p_ref.add_argument("--out", required=True)
    p_ref.set_defaults(func=_cmd_ref)

    p_solve = sub.add_parser("solve", help="run one solver, write a CSV trace")
    _add_instance_args(p_solve)
    p_solve.add_argument(
        "--alg", choices=[*bench_mod.CONFIG_DOMAINS["algorithms"], "apg"], required=True
    )
    # the matrix's settings, stored under its config keys; an unset flag stays out of args
    for flag in ("--c", "--c-admm", "--eps-opt", "--eps-feas"):
        p_solve.add_argument(flag, type=float, default=argparse.SUPPRESS)
    p_solve.add_argument("--iters", type=int, dest="admm_iters", default=argparse.SUPPRESS)
    p_solve.add_argument(
        "--budget-secs", type=float, default=argparse.SUPPRESS,
        help="wall-time bound, checked once per (outer) iteration",
    )
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run the benchmark matrix")
    p_bench.add_argument("--config", default=None, help="JSON config file")
    p_bench.add_argument("--out", default="bench_report.json")
    p_bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input: one error line, not a traceback
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
