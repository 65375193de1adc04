"""Run traces shared by every solver: the one run loop, one row per outer
iteration, CSV spill, and a JSON summary carrying the final metrics plus the
configuration echo."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .netsim import CommLedger


def rel_subopt(f_sum: float, reference: float | None) -> float:
    """``|F - F*| / |F*|``; the absolute gap when ``F* = 0``, NaN without one."""
    if reference is None:
        return math.nan
    if reference == 0.0:
        return abs(f_sum)
    return abs(f_sum - reference) / abs(reference)


def check_budget_secs(budget_secs: float | None) -> None:
    """Reject a wall-time budget that is set but not positive (NaN included)."""
    if budget_secs is not None and not budget_secs > 0:
        raise ValueError(f"budget_secs must be positive, got {budget_secs}")


@dataclass
class TraceRow:
    k: int
    lam: float
    F_sum: float
    rel_subopt: float
    CV: float
    comm_per_node_max: int
    prox_count: int
    grad_count: int
    dual_norm: float
    inner_iters: int
    stop_reason: str

    def as_list(self) -> list:
        return [
            repr(v) if isinstance(v, float) else v
            for v in (getattr(self, f.name) for f in dataclasses.fields(self))
        ]


# CSV header: the row's fields in order, ``lam`` spelled out
TRACE_COLUMNS = [
    "lambda" if f.name == "lam" else f.name for f in dataclasses.fields(TraceRow)
]


@dataclass
class RunTrace:
    """Per-outer-iteration metrics for one solver run.

    ``wall_time`` is the time from the trace's creation to its latest row.
    """

    algorithm: str
    config: dict[str, Any] = field(default_factory=dict)
    rows: list[TraceRow] = field(default_factory=list)
    converged: bool = False
    wall_time: float = 0.0
    started: float = field(
        default_factory=time.monotonic, init=False, repr=False, compare=False
    )

    def record(
        self,
        k: int,
        lam: float,
        F_sum: float,
        reference: float | None,
        CV: float,
        ledger: CommLedger,
        dual_norm: float,
        inner_iters: int,
        stop_reason: str,
    ) -> TraceRow:
        """Append the row of outer iteration ``k``, with the relative gap to
        ``reference`` and the work counters read from ``ledger``."""
        row = TraceRow(
            k=k,
            lam=lam,
            F_sum=F_sum,
            rel_subopt=rel_subopt(F_sum, reference),
            CV=CV,
            comm_per_node_max=int(ledger.vectors_sent.max()),
            prox_count=int(ledger.prox_evals.sum()),
            grad_count=int(ledger.grad_evals.sum()),
            dual_norm=dual_norm,
            inner_iters=inner_iters,
            stop_reason=stop_reason,
        )
        self.rows.append(row)
        self.wall_time = time.monotonic() - self.started
        return row

    def run(
        self,
        step: Callable[[int], tuple[TraceRow, bool]],
        iters: int,
        ledger: CommLedger,
        eps_opt: float,
        eps_feas: float,
        budget_secs: float | None = None,
    ) -> RunTrace:
        """The run loop of every solve: ``step(k) -> (row, done)`` does and
        records iteration ``k``, for k = 1..``iters``.  Stops converged once a
        row meets both targets or ``done`` is true; otherwise the row that
        ends more than ``budget_secs`` seconds (if set) after the trace began
        gets stop reason ``"timeout"`` and ends the run.  Keeps a snapshot of
        ``ledger`` in ``config["ledger"]``."""
        check_budget_secs(budget_secs)
        for k in range(1, iters + 1):
            row, done = step(k)
            # without a reference the gap is NaN and never meets its target
            if done or (row.rel_subopt <= eps_opt and row.CV <= eps_feas):
                self.converged = True
                break
            if budget_secs is not None and time.monotonic() - self.started > budget_secs:
                row.stop_reason = "timeout"
                break
        self.config["ledger"] = ledger.snapshot()
        return self

    @property
    def final(self) -> TraceRow:
        if not self.rows:
            raise ValueError("empty trace")
        return self.rows[-1]

    def write_csv(self, path: str) -> None:
        # repr() floats keep the CSV byte-reproducible across runs
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            for row in self.rows:
                writer.writerow(row.as_list())

    def summary(self) -> dict[str, Any]:
        last = self.final
        return {
            "algorithm": self.algorithm,
            "config": self.config,
            "converged": self.converged,
            "outer_iterations": last.k,
            "F_sum": last.F_sum,
            # NaN (no reference) is not JSON
            "rel_subopt": None if math.isnan(last.rel_subopt) else last.rel_subopt,
            "CV": last.CV,
            "comm_per_node_max": last.comm_per_node_max,
            "dual_norm": last.dual_norm,
            "wall_time": self.wall_time,
        }

    def write_summary(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2, default=_jsonable)


def _jsonable(obj: Any) -> Any:
    """Arrays as (nested) lists and dataclasses as dicts, exactly."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")
