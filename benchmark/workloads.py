"""Workloads and metric definitions of the dfalopt benchmark.

Standard library only: the parent process reads these without importing
numpy or the library.  ``BENCHMARK.json`` at the repository root lists the
same workloads and metrics; a test keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

# accuracy every solve that must converge is held to
EPS_OPT = 1e-3
EPS_FEAS = 1e-4
ASYNC_P = 0.1
SADMM_ITERS = 200
ADMM_ITERS = 2
# Every run of a workload solves the same instance: instances drawn from
# different seeds differ by up to 2x in reference solve time, which would
# swamp the bounds.  ``--seed`` drives the async activation schedules.
INSTANCE_SEED = 1
# seconds one ``probe.SpeedProbe`` kernel takes at the speed every reported
# time is scaled to (near its median time on a 2-core x86-64 VM)
PROBE_REF_S = 1.2e-3


@dataclass(frozen=True)
class Workload:
    """One instance and the solver calls made on it.

    A repetition runs ``reference_solve`` and then ``solves`` in order.
    ``rep_s`` is the measured cost of one repetition on a 2-core x86-64
    box; it fixes how many repetitions a run of ``--seconds`` seconds holds,
    so the work per run does not depend on the speed of the code under test.
    """

    name: str
    case: int
    topology: str
    N: int
    n_g: int
    K: int
    outer_cap: int | None
    solves: tuple[str, ...]
    rep_s: float
    why: str

    def reps(self, seconds: float) -> int:
        return max(1, round(seconds / self.rep_s))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "async-star5", 1, "star", 5, 10, 10, 40, ("afal-rbcd", "afal-arbcd"), 9.5,
            "one block per event, so per-event overhead (closures, "
            "single-block prox, ledger charges, residual tests) sets the cost",
        ),
        Workload(
            "baselines-case2", 2, "star", 5, 10, 10, None, ("sadmm", "admm"), 20.0,
            "per-node partitions; nested Huber and composite prox APGs dominate, "
            "and the reference runs the synchronous DFAL over netsim",
        ),
    )
}

# solves that must reach EPS_OPT / EPS_FEAS; the others are fixed work
MUST_CONVERGE = ("afal-rbcd", "afal-arbcd")

# (name, unit, better, bound)
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("ref_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "ratio", "higher", 0.05),
    ("comm_per_node_max", "vectors", "lower", 0.05),
    ("oracle_evals", "count", "lower", 0.05),
)


_SPAN_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us"}


def _span(name: str, *kinds: str) -> list[tuple[str, str, str]]:
    return [(f"{name}.{k}", _SPAN_UNITS[k], "lower") for k in kinds]


# (name, unit, better); every traced run reports all of them, 0 where the
# workload never reaches the layer
PER_LAYER: tuple[tuple[str, str, str], ...] = tuple(
    _span("funcs.prox", "calls", "self_s", "us_per_call")
    + _span("funcs.min_norm_subgradient", "calls", "self_s", "us_per_call")
    + _span("funcs.huber_value_grad", "calls", "self_s", "us_per_call")
    + _span("funcs.reg_value", "calls", "self_s", "us_per_call")
    + _span("netsim.broadcast_state", "calls", "self_s")
    + _span("netsim.node_inputs", "calls")
    + _span("netsim.ledger_charge", "calls", "self_s")
    + [("netsim.vectors_sent", "vectors", "lower")]
    + _span("graph.laplacian_apply", "calls", "self_s", "us_per_call")
    + _span("graph.laplacian_quadratic", "calls", "self_s", "us_per_call")
    + _span("graph.spectral_bounds", "self_s")
    + _span("solvers.apg", "calls")
    + [("solvers.apg.iters", "count", "lower")]
    + _span("solvers.apg", "self_s")
    + _span("solvers.ms_apg", "self_s")
    + [("solvers.rbcd_run.events", "count", "lower")]
    + _span("solvers.rbcd_run", "self_s")
    + [("solvers.rbcd_run.us_per_event", "us", "lower"),
       ("solvers.arbcd_chain.events", "count", "lower")]
    + _span("solvers.arbcd_chain", "self_s")
    + [("solvers.arbcd_chain.us_per_event", "us", "lower")]
    + _span("dfal.local_gradient", "calls", "self_s")
    + _span("dfal.dfal_solve", "self_s")
    + _span("dfal.async_dfal_solve", "self_s")
    + [("dfal.inner_iters", "count", "lower"),
       ("dfal.outer_iters", "count", "lower"),
       ("dfal.rel_subopt_max", "ratio", "lower"),
       ("dfal.cv_max", "norm", "lower"),
       ("dfal.inner_iter_us.p50", "us", "lower"),
       ("dfal.inner_iter_us.p99", "us", "lower"),
       ("dfal.inner_iter_us.samples", "count", "lower")]
    + _span("baselines.nested_apg", "calls")
    + [("baselines.nested_apg.iters", "count", "lower")]
    + _span("baselines.nested_apg", "self_s")
    + _span("baselines.neighborhood_average", "calls", "self_s")
    + _span("baselines.sadmm_solve", "self_s")
    + _span("baselines.admm_solve", "self_s")
    + [("bench.generate_instance.s", "s", "lower")]
    + _span("bench.reference_solve", "self_s")
    + [("trace.ref_s", "s", "lower"),
       ("trace.solve_s", "s", "lower"),
       ("trace.self_sum_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)
