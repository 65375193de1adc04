"""One sha256 over the library's outputs on a fixed set of seeded runs.

Two source trees print the same digest when every run below gives the same
bits: each ``TraceRow`` field, the five ledger arrays, the budgets and their
constants, every field of the final state and the run's ``stop_reason``.
Floats are hashed as float64 bytes and arrays as dtype, shape and bytes, so
a change in the last bit of any iterate shows.  Each entry also has a
``run`` hash of the same record without the budgets and their constants, so
a change to the budgets alone keeps it.

Usage, from any directory (the script imports the ``src`` next to it)::

    python3 tools/digest.py                # every entry, as JSON
    python3 other-tree/tools/digest.py     # the same runs on another tree
    python3 tools/digest.py --compare BASE.json CHANGE.json   # a Markdown report

The output holds the digest of every entry, one hash per entry and per
named subset, the run hash of every entry, the numpy version and
``platform.machine()``.  Float bits may differ between numpy and BLAS
builds, so compare two trees on one machine and one numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import platform
import struct
import sys
from pathlib import Path
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from dfalopt import (  # noqa: E402
    admm_solve,
    async_dfal_solve,
    default_params,
    dfal_solve,
    generate_instance,
    reference_solve,
    sadmm_solve,
)

LEDGER = ("vectors_sent", "vectors_received", "prox_evals", "grad_evals", "control_msgs")
# the four small instances of the frozen counter tests, generate_instance(case,
# topology, 3, 4, 3, seed=5)
SMALL = ((1, "star"), (2, "star"), (2, "clique"), (1, "clique"))


class Budget:
    """A run's budgets or their constants: fed to its entry hash, and left out
    of its run hash."""

    def __init__(self, value: Any):
        self.value = value


def _feed(h: Any, value: Any, run: bool = False) -> None:
    """Hash ``value`` with a type tag, so no two values share their bytes;
    with ``run``, each :class:`Budget` in it adds nothing."""
    if isinstance(value, Budget):
        if not run:
            _feed(h, value.value)
    elif isinstance(value, np.ndarray):
        h.update(b"a" + f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, np.bool_)):
        h.update(b"b1" if value else b"b0")
    elif isinstance(value, (int, np.integer)):
        h.update(b"i" + str(int(value)).encode() + b";")
    elif isinstance(value, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(value)))
    elif isinstance(value, str):
        data = value.encode()
        h.update(b"s" + str(len(data)).encode() + b":" + data)
    elif value is None:
        h.update(b"n")
    elif isinstance(value, (list, tuple)):
        h.update(b"l" + str(len(value)).encode() + b"[")
        for item in value:
            _feed(h, item, run)
    elif dataclasses.is_dataclass(value):
        h.update(b"d" + type(value).__name__.encode() + b"{")
        for f in dataclasses.fields(value):
            _feed(h, f.name)
            _feed(h, getattr(value, f.name), run)
    else:
        raise TypeError(f"no serialization for {type(value).__name__}")


def trace_record(trace: Any) -> list:
    """What a run contributes: its rows, ledger arrays, budgets, their
    constants, final state and stop reason."""
    config = trace.config
    return [
        trace.rows,
        [getattr(trace.ledger, name) for name in LEDGER],
        Budget(config.get("budgets")),
        Budget(config.get("budget_constants")),
        config.get("final_state"),
        trace.stop_reason,
    ]


@functools.lru_cache(maxsize=None)
def _instance(case: int, topology: str, N: int, n_g: int, K: int, seed: int) -> Any:
    return generate_instance(case, topology, N, n_g, K, seed)


@functools.lru_cache(maxsize=None)
def _reference(case: int) -> Any:
    return reference_solve(_instance(case, "star", 5, 10, 10, 1), cache=False)


def _reference_record(case: int) -> list:
    ref = _reference(case)
    return [ref.f_star, ref.x_ref, ref.method, ref.converged, ref.iterations]


def _star5_async(oracle: str, seed: int) -> list:
    """The benchmark's ``async-star5`` solve: case 1, star N=5, n_g=K=10,
    instance seed 1, 40 outer iterations at p = 0.1, the case-1 F*."""
    inst = _instance(1, "star", 5, 10, 10, 1)
    params = default_params(inst.nodes, inst.graph, outer_cap=40, eps_opt=1e-3, eps_feas=1e-4)
    return trace_record(async_dfal_solve(
        inst.nodes, inst.graph, params, p=0.1, oracle=oracle, seed=seed,
        outer_iters=40, reference=_reference(1).f_star,
    ))


def _small_sync(case: int, topology: str) -> list:
    inst = _instance(case, topology, 3, 4, 3, 5)
    params = default_params(inst.nodes, inst.graph, outer_cap=8)
    return trace_record(dfal_solve(inst.nodes, inst.graph, params))


def _small_async(case: int, topology: str, oracle: str) -> list:
    inst = _instance(case, topology, 3, 4, 3, 5)
    params = default_params(inst.nodes, inst.graph)
    return trace_record(async_dfal_solve(
        inst.nodes, inst.graph, params, p=0.1, oracle=oracle, seed=7, outer_iters=8,
    ))


def _dfal_long() -> list:
    """The long synchronous run of the case-2 reference."""
    inst = _instance(2, "star", 5, 10, 10, 1)
    params = default_params(inst.nodes, inst.graph, c=0.7, outer_cap=40)
    return trace_record(dfal_solve(
        inst.nodes, inst.graph, params, lam_min=params.lam1 * 0.7**18,
    ))


def _dfal_case2() -> list:
    inst = _instance(2, "star", 5, 10, 10, 1)
    params = default_params(inst.nodes, inst.graph)
    return trace_record(dfal_solve(
        inst.nodes, inst.graph, params, reference=_reference(2).f_star,
    ))


def _baseline(solve: Callable[..., Any], iters: int) -> list:
    inst = _instance(2, "star", 5, 10, 10, 1)
    return trace_record(solve(inst.nodes, inst.graph, c_admm=1.0, iters=iters))


def _gradient_check() -> list:
    """``dfal_solve`` on the (2, clique) small instance, with every argument
    its ``gradient_check`` hook receives."""
    inst = _instance(2, "clique", 3, 4, 3, 5)
    params = default_params(inst.nodes, inst.graph, outer_cap=8)
    seen: list = []  # the hook is handed copies
    trace = dfal_solve(inst.nodes, inst.graph, params, gradient_check=lambda *a: seen.append(a))
    return [seen, trace_record(trace)]


def _entries() -> dict[str, Callable[[], Any]]:
    runs: dict[str, Callable[[], Any]] = {}
    for case in (1, 2):
        runs[f"reference-case{case}"] = functools.partial(_reference_record, case)
    for oracle in ("rbcd", "arbcd"):
        for seed in (1000, 1001, 1002, 4001, 4002, 4003):
            runs[f"async-star5-{oracle}-{seed}"] = functools.partial(_star5_async, oracle, seed)
    for case, topology in SMALL:
        runs[f"small-{case}-{topology}-dfal"] = functools.partial(_small_sync, case, topology)
        for oracle in ("rbcd", "arbcd"):
            runs[f"small-{case}-{topology}-{oracle}"] = functools.partial(
                _small_async, case, topology, oracle)
    runs["dfal-long"] = _dfal_long
    runs["dfal-case2"] = _dfal_case2
    runs["sadmm-200"] = functools.partial(_baseline, sadmm_solve, 200)
    for iters in (2, 20):
        runs[f"admm-{iters}"] = functools.partial(_baseline, admm_solve, iters)
    runs["gradient-check"] = _gradient_check
    return runs


# every entry's run by name, in digest order
ENTRIES = _entries()
_STAR5_NEW = [f"async-star5-{o}-{s}" for o in ("rbcd", "arbcd") for s in (4001, 4002, 4003)]
SUBSETS = {
    "full": list(ENTRIES),
    # every run but async-star5 at seeds 4001-4003
    "core": [name for name in ENTRIES if name not in _STAR5_NEW],
    # the async solves: async-star5 at seeds 4001-4003, 1000 and 1001, and
    # the four small instances under both oracles
    "async": [f"async-star5-{o}-{s}" for o in ("rbcd", "arbcd")
              for s in (4001, 4002, 4003, 1000, 1001)]
    + [f"small-{c}-{t}-{o}" for c, t in SMALL for o in ("rbcd", "arbcd")],
    # a few cheap runs, for the harness test
    "reduced": ["small-1-star-dfal", "small-1-star-rbcd", "small-1-star-arbcd", "admm-2"],
}


def entry_hashes(name: str) -> tuple[str, str]:
    """The entry hash and the run hash of one run."""
    record = ENTRIES[name]()
    entry, run = hashlib.sha256(), hashlib.sha256()
    _feed(entry, record)
    _feed(run, record, run=True)
    return entry.hexdigest(), run.hexdigest()


def combine(hashes: dict[str, str], names: list[str]) -> str:
    """The digest of ``names``: one sha256 over each name and its entry hash."""
    h = hashlib.sha256()
    for name in names:
        h.update(f"{name}={hashes[name]}\n".encode())
    return h.hexdigest()


def digest(set_name: str = "full") -> dict[str, Any]:
    """The digest of one named set, with its entry hashes, the digest of
    every named subset it contains and its run hashes."""
    names = SUBSETS[set_name]
    both = {name: entry_hashes(name) for name in names}
    hashes = {name: entry for name, (entry, _) in both.items()}
    return {
        "set": set_name,
        "digest": combine(hashes, names),
        "subsets": {s: combine(hashes, members) for s, members in SUBSETS.items()
                    if set(members) <= set(names)},
        "entries": hashes,
        "runs": {name: run for name, (_, run) in both.items()},
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def compare(base: dict[str, Any], change: dict[str, Any]) -> list[str]:
    """The Markdown lines that compare two printed digests: whether the full digest
    is equal, how many entries are equal and how many differ, how many of the
    differing ones keep their run hash (so only their budgets differ), the equal
    ones by name, and each entry that differs or that only one side has."""
    same = base["digest"] == change["digest"]
    lines = [f"Full digest {'equal' if same else 'differs'}: base `{base['digest'][:16]}…`, "
             f"change `{change['digest'][:16]}…`."]
    old, new = base["entries"], change["entries"]
    both = old.keys() & new.keys()
    equal = sorted(name for name in both if old[name] == new[name])
    one_side = len(old.keys() ^ new.keys())
    lines.append(f"{len(equal)} entries equal, {len(both) - len(equal)} differ"
                 + (f", {one_side} on one side only." if one_side else "."))
    runs_old, runs_new = base.get("runs", {}), change.get("runs", {})
    differ = both - set(equal)
    kept = {name for name in differ if name in runs_old and runs_old[name] == runs_new.get(name)}
    if differ:
        lines.append(f"{len(kept)} of the {len(differ)} differing entries keep their run hash"
                     + ("" if runs_old and runs_new else " (a side prints no run hashes)") + ".")
    if equal:
        lines.append("Equal: " + ", ".join(f"`{name}`" for name in equal) + ".")
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            lines.append(f"- `{name}`: only in the base")
        elif name not in old:
            lines.append(f"- `{name}`: only in the change")
        elif old[name] != new[name]:
            run = " (run equal)" if name in kept else ""
            lines.append(f"- `{name}` differs{run}: `{old[name][:16]}…` -> `{new[name][:16]}…`")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="two printed digests, compared in Markdown instead of a run")
    args = parser.parse_args(argv)
    if args.compare:
        base, change = (json.loads(Path(path).read_text()) for path in args.compare)
        print("\n".join(compare(base, change)))
    else:
        print(json.dumps(digest(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
