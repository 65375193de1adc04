"""Run traces shared by every solver: the ledger each run charges, the one
run loop, one row per outer iteration, CSV spill, and a JSON summary carrying
the final metrics plus the configuration echo."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .checks import real

# the targets' and the time budget's domains, also in bench.CONFIG_DOMAINS
TARGET, BUDGET = dict(low=0), dict(low=0, strict=True)


def rel_subopt(f_sum: float, reference: float | None) -> float:
    """``|F - F*| / |F*|``; the absolute gap when ``F* = 0``, NaN without one."""
    if reference is None:
        return math.nan
    if reference == 0.0:
        return abs(f_sum)
    return abs(f_sum - reference) / abs(reference)


@dataclass
class CommLedger:
    """Per-node counters for vector traffic and oracle calls.  The DFAL solves
    charge one block-length vector per directed edge; ``sadmm`` and ``admm`` a
    flat 6 and 3 sent per node per iteration, whatever the degree, and none
    received."""

    num_nodes: int
    vectors_sent: np.ndarray = field(init=False)
    vectors_received: np.ndarray = field(init=False)
    prox_evals: np.ndarray = field(init=False)
    grad_evals: np.ndarray = field(init=False)
    control_msgs: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name in ("vectors_sent", "vectors_received", "prox_evals",
                     "grad_evals", "control_msgs"):
            setattr(self, name, np.zeros(self.num_nodes, dtype=np.int64))

    def charge_send(self, node: int, count: int = 1) -> None:
        self.vectors_sent[node - 1] += count

    def charge_receive(self, node: int, count: int = 1) -> None:
        self.vectors_received[node - 1] += count

    def charge_prox(self, node: int, count: int = 1) -> None:
        self.prox_evals[node - 1] += count

    def charge_grad(self, node: int, count: int = 1) -> None:
        self.grad_evals[node - 1] += count

    def charge_control(self, node: int, count: int = 1) -> None:
        self.control_msgs[node - 1] += count


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
    """Per-outer-iteration metrics for one solver run, its work charged to
    ``ledger`` and its gaps measured against ``reference``.  ``wall_time`` runs
    from the trace's creation to its latest row; ``stop_reason`` says why
    :meth:`run` ended: ``"converged"`` (then :attr:`converged` is true),
    ``"timeout"`` or ``"cap"``."""

    algorithm: str
    ledger: CommLedger
    reference: float | None = None
    config: dict[str, Any] = field(default_factory=dict)
    rows: list[TraceRow] = field(default_factory=list)
    stop_reason: str | None = None
    wall_time: float = 0.0
    started: float = field(
        default_factory=time.monotonic, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.reference is not None:
            real("reference", self.reference)

    def record(
        self,
        k: int,
        lam: float,
        F_sum: float,
        CV: float,
        dual_norm: float,
        inner_iters: int,
        stop_reason: str,
    ) -> TraceRow:
        """Append the row of outer iteration ``k``, with the relative gap to
        the reference and the work counters read from the ledger."""
        row = TraceRow(
            k=k,
            lam=lam,
            F_sum=F_sum,
            rel_subopt=rel_subopt(F_sum, self.reference),
            CV=CV,
            comm_per_node_max=int(self.ledger.vectors_sent.max()),
            prox_count=int(self.ledger.prox_evals.sum()),
            grad_count=int(self.ledger.grad_evals.sum()),
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
        eps_opt: float,
        eps_feas: float,
        budget_secs: float | None = None,
    ) -> RunTrace:
        """The run loop of every solve: ``step(k) -> (row, done)`` does and
        records iteration ``k``, for k = 1..``iters``.  Stops converged once a
        row meets both targets or ``done`` is true; otherwise the row that ends
        more than ``budget_secs`` seconds (if set) after the trace began gets
        stop reason ``"timeout"`` and ends the run.  Keeps the ledger in
        ``config["ledger"]``."""
        real("eps_opt", eps_opt, **TARGET)
        real("eps_feas", eps_feas, **TARGET)
        if budget_secs is not None:
            real("budget_secs", budget_secs, **BUDGET)
        self.stop_reason = "cap"
        for k in range(1, iters + 1):
            row, done = step(k)
            # without a reference the gap is NaN and never meets its target
            if done or (row.rel_subopt <= eps_opt and row.CV <= eps_feas):
                self.stop_reason = "converged"
                break
            if budget_secs is not None and time.monotonic() - self.started > budget_secs:
                row.stop_reason = self.stop_reason = "timeout"
                break
        self.config["ledger"] = self.ledger
        return self

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

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
            "stop_reason": self.stop_reason,
            "F_sum": last.F_sum,
            "rel_subopt": last.rel_subopt,
            "CV": last.CV,
            "comm_per_node_max": last.comm_per_node_max,
            "dual_norm": last.dual_norm,
            "wall_time": self.wall_time,
        }

    def write_summary(self, path: str) -> None:
        write_json(self.summary(), path)


def write_json(obj: Any, path: str) -> None:
    """Write ``obj`` as strict JSON: a NaN or infinity, at any depth, becomes
    ``null``, and every finite float reads back exactly."""
    strict = json.loads(json.dumps(obj, default=_jsonable), parse_constant=lambda _: None)
    with open(path, "w") as fh:
        json.dump(strict, fh, indent=2, allow_nan=False)


def _jsonable(obj: Any) -> Any:
    """Arrays as (nested) lists and dataclasses as dicts, exactly."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")
