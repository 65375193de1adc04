"""Span tracing installed from outside the library, for the traced benchmark run.

Each target is a public function or method of ``dfalopt`` replaced, by
attribute assignment, with a wrapper at the name its callers look up (for
example ``dfalopt.dfal.rbcd_run`` or ``SparseGroupReg.prox`` on the class).
A wrapper records one span per call: name, start, end, parent span and run
id.  Spans stay in memory in flat arrays and the per-layer table is derived
from them when the run ends.  Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np


def _iterations(key: str) -> Callable[[Any], dict[str, int]]:
    return lambda result: {key: int(result.iterations)}


def _solve_counts(result: Any) -> dict[str, int]:
    counts = {"netsim.vectors_sent": int(result.config["ledger"].vectors_sent.sum())}
    if result.algorithm == "dfal" or result.algorithm.startswith("afal"):
        counts["dfal.inner_iters"] = sum(r.inner_iters for r in result.rows)
        counts["dfal.outer_iters"] = len(result.rows)
    return counts


# (owner, attribute, span name, counts taken from the return value).  The owner is
# the module or class whose attribute the library's callers read at call time.
TARGETS: tuple[tuple[str, str, str, Callable[[Any], dict[str, int]] | None], ...] = (
    ("dfalopt.funcs:SparseGroupReg", "prox", "funcs.prox", None),
    ("dfalopt.funcs:SparseGroupReg", "min_norm_subgradient", "funcs.min_norm_subgradient", None),
    ("dfalopt.funcs:SparseGroupReg", "value", "funcs.reg_value", None),
    ("dfalopt.funcs:HuberLoss", "value_grad", "funcs.huber_value_grad", None),
    ("dfalopt.netsim:SyncNetwork", "broadcast_state", "netsim.broadcast_state", None),
    ("dfalopt.netsim:SyncNetwork", "node_inputs", "netsim.node_inputs", None),
    ("dfalopt.netsim:CommLedger", "charge_send", "netsim.ledger_charge", None),
    ("dfalopt.netsim:CommLedger", "charge_receive", "netsim.ledger_charge", None),
    ("dfalopt.netsim:CommLedger", "charge_grad", "netsim.ledger_charge", None),
    ("dfalopt.netsim:CommLedger", "charge_prox", "netsim.ledger_charge", None),
    ("dfalopt.netsim:CommLedger", "charge_control", "netsim.ledger_charge", None),
    ("dfalopt.graph", "laplacian_apply", "graph.laplacian_apply", None),
    ("dfalopt.baselines", "laplacian_apply", "graph.laplacian_apply", None),
    ("dfalopt.graph", "laplacian_quadratic", "graph.laplacian_quadratic", None),
    ("dfalopt.dfal", "laplacian_quadratic", "graph.laplacian_quadratic", None),
    ("dfalopt.graph", "spectral_bounds", "graph.spectral_bounds", None),
    ("dfalopt.dfal", "spectral_bounds", "graph.spectral_bounds", None),
    ("dfalopt.bench", "apg", "solvers.apg", _iterations("solvers.apg.iters")),
    ("dfalopt.dfal", "rbcd_run", "solvers.rbcd_run", _iterations("solvers.rbcd_run.events")),
    ("dfalopt.dfal", "arbcd_chain", "solvers.arbcd_chain",
     _iterations("solvers.arbcd_chain.events")),
    ("dfalopt.solvers", "arbcd_chain", "solvers.arbcd_chain",
     _iterations("solvers.arbcd_chain.events")),
    ("dfalopt.dfal", "local_gradient", "dfal.local_gradient", None),
    ("dfalopt.dfal", "dfal_solve", "dfal.dfal_solve", _solve_counts),
    ("dfalopt.bench", "dfal_solve", "dfal.dfal_solve", _solve_counts),
    ("dfalopt.dfal", "async_dfal_solve", "dfal.async_dfal_solve", _solve_counts),
    ("dfalopt.baselines", "apg", "baselines.nested_apg",
     _iterations("baselines.nested_apg.iters")),
    ("dfalopt.baselines", "neighborhood_average", "baselines.neighborhood_average", None),
    ("dfalopt.baselines", "sadmm_solve", "baselines.sadmm_solve", _solve_counts),
    ("dfalopt.bench", "sadmm_solve", "baselines.sadmm_solve", _solve_counts),
    ("dfalopt.baselines", "admm_solve", "baselines.admm_solve", _solve_counts),
    ("dfalopt.bench", "generate_instance", "bench.generate_instance", None),
    ("dfalopt.bench", "reference_solve", "bench.reference_solve", None),
)

# spans whose self time is also reported per event
PER_EVENT = ("solvers.rbcd_run", "solvers.arbcd_chain")


class InnerIterClock:
    """``gradient_check`` callback timing the gaps between inner iterations."""

    def __init__(self) -> None:
        self.gaps_us: list[float] = []
        self._last: tuple[int, int, float] | None = None

    def __call__(self, k: int, ell: int, *_arrays: np.ndarray) -> None:
        now = time.perf_counter()
        if self._last is not None and self._last[:2] == (k, ell - 1):
            self.gaps_us.append(1e6 * (now - self._last[2]))
        self._last = (k, ell, now)

    def stats(self) -> dict[str, float]:
        gaps = np.asarray(self.gaps_us)
        if gaps.size == 0:
            return {"p50": 0.0, "p99": 0.0, "samples": 0}
        p50, p99 = np.percentile(gaps, [50, 99])
        return {"p50": float(p50), "p99": float(p99), "samples": int(gaps.size)}


def _with_clock(fn: Callable[..., Any], clock: InnerIterClock) -> Callable[..., Any]:
    """Pass ``clock`` as the ``gradient_check`` of a synchronous DFAL solve."""

    @functools.wraps(fn)
    def call(*args: Any, **kwargs: Any) -> Any:
        if kwargs.get("gradient_check") is None:
            kwargs["gradient_check"] = clock
        return fn(*args, **kwargs)

    return call


class Tracer:
    """In-memory span recorder shared by every wrapper of one traced run.

    ``run_id`` tags the spans of one benchmark operation (0 is set-up); the
    benchmark sets it before each operation.  ``clock`` times the inner
    iterations of every synchronous DFAL solve.
    """

    def __init__(self) -> None:
        self.clock = InnerIterClock()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.counts: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        counter: Callable[[Any], dict[str, int]] | None = None,
    ) -> Callable[..., Any]:
        nid = self._id(name)
        stack, counts = self._stack, self.counts
        name_id, start, end, parent, run = (
            self.name_id, self.start, self.end, self.parent, self.run)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(out).items():
                    counts[key] = counts.get(key, 0) + value
            return out

        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Replace every target with a recording wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name, counter in TARGETS:
            obj = _resolve(owner)
            original = obj.__dict__[attr]
            saved.append((obj, attr, original))
            fn = _with_clock(original, tracer.clock) if name == "dfal.dfal_solve" else original
            setattr(obj, attr, tracer.wrap(name, fn, counter))
        yield tracer
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Spans come from one thread, so a span's children are disjoint intervals
    inside it and their durations simply add.
    """
    dur = end - start
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    return dur - child


def layer_table(tracer: Tracer) -> dict[str, float]:
    """Per-span-name calls, self and inclusive seconds, and per-unit costs.

    Set-up spans (run 0) count toward the table but not toward
    ``trace.self_sum_s``, which covers the timed operations.
    """
    a = tracer.arrays()
    own = self_times(a["start"], a["end"], a["parent"])
    size = len(tracer.names)
    calls = np.bincount(a["name_id"], minlength=size)
    self_s = np.bincount(a["name_id"], weights=own, minlength=size)
    incl = np.bincount(a["name_id"], weights=a["end"] - a["start"], minlength=size)
    table: dict[str, float] = {}
    for nid, name in enumerate(tracer.names):
        table[f"{name}.calls"] = int(calls[nid])
        table[f"{name}.self_s"] = float(self_s[nid])
        table[f"{name}.s"] = float(incl[nid])
        table[f"{name}.us_per_call"] = (
            1e6 * float(self_s[nid]) / int(calls[nid]) if calls[nid] else 0.0
        )
    for key, value in tracer.counts.items():
        table[key] = value
    for name in PER_EVENT:
        events = table.get(f"{name}.events", 0)
        busy = table.get(f"{name}.self_s", 0.0)
        table[f"{name}.us_per_event"] = 1e6 * busy / events if events else 0.0
    for key, value in tracer.clock.stats().items():
        table[f"dfal.inner_iter_us.{key}"] = value
    table["trace.self_sum_s"] = float(own[a["run"] >= 1].sum())
    table["trace.spans"] = int(own.size)
    return table
