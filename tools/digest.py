"""One sha256 over the library's outputs on a fixed set of seeded runs.

Two source trees print the same digest when every run below gives the same
bits: each ``TraceRow`` field, the five ledger arrays, the budgets and their
constants, every field of the final state and the run's ``stop_reason``.
Floats are hashed as float64 bytes and arrays as dtype, shape and bytes, so
a change in the last bit of any iterate shows.  Each entry also has a
``run`` hash of the same record without the budgets and their constants, so
a change to the budgets alone keeps it.

Usage, from any directory (the script imports the ``src`` next to it)::

    python3 tools/digest.py           # every entry, as JSON
    python3 tools/digest.py HEAD~1    # a Markdown report, the commit against this tree

The JSON holds the digest of every entry, one hash per entry and per named
subset, the run hash of every entry, the numpy version and
``platform.machine()``.  With a commit BASE, its ``src/dfalopt`` (taken out
with ``git archive``) and this tree's run this tree's entries in one process,
so one numpy and one BLAS make both sides' bits; the report is :func:`compare`'s.
BLAS runs on one thread, set before numpy loads it (a threaded BLAS sums in
another order: the case-2 reference's bits moved with the thread count).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import importlib.util
import json
import os
import platform
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
# one BLAS thread, set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import dfalopt  # noqa: E402

LEDGER = ("vectors_sent", "vectors_received", "prox_evals", "grad_evals", "control_msgs")
# the four small instances of the frozen counter tests, generate_instance(case,
# topology, 3, 4, 3, seed=5)
SMALL = ((1, "star"), (2, "star"), (2, "clique"), (1, "clique"))
# the benchmark's instance of each case: star, N = 5, n_g = K = 10, seed 1
STAR5 = ("star", 5, 10, 10, 1)


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


def reference_record(ref: Any) -> list:
    """What a reference contributes: its optimum, point, method, convergence,
    iterations and certified gap."""
    return [ref.f_star, ref.x_ref, ref.method, ref.converged, ref.iterations, ref.gap]


# The entries take the package they run; its instances, parameters and optima
# are made on first use and kept.
@functools.lru_cache(maxsize=None)
def _instance(pkg: ModuleType, case: int, topology: str, N: int, n_g: int, K: int,
              seed: int) -> Any:
    return pkg.generate_instance(case, topology, N, n_g, K, seed)


@functools.lru_cache(maxsize=None)
def _setup(pkg: ModuleType, instance: tuple, **params: Any) -> tuple[Any, Any]:
    inst = _instance(pkg, *instance)
    return inst, pkg.default_params(inst.nodes, inst.graph, **params)


def _reference(pkg: ModuleType, case: int) -> list:  # solved on each call
    return reference_record(pkg.reference_solve(_instance(pkg, case, *STAR5), cache=False))


@functools.lru_cache(maxsize=None)
def _f_star(pkg: ModuleType, case: int) -> float:
    return pkg.reference_solve(_instance(pkg, case, *STAR5), cache=False).f_star


def _star5_async(pkg: ModuleType, oracle: str, seed: int) -> list:
    """The benchmark's ``async-star5`` solve: case 1, star N=5, n_g=K=10,
    instance seed 1, 40 outer iterations at p = 0.1, the case-1 F*."""
    inst, params = _setup(pkg, (1, *STAR5), outer_cap=40, eps_opt=1e-3, eps_feas=1e-4)
    return trace_record(pkg.async_dfal_solve(inst.nodes, inst.graph, params, p=0.1, oracle=oracle,
                                             seed=seed, outer_iters=40, reference=_f_star(pkg, 1)))


def _small_sync(pkg: ModuleType, case: int, topology: str) -> list:
    inst, params = _setup(pkg, (case, topology, 3, 4, 3, 5), outer_cap=8)
    return trace_record(pkg.dfal_solve(inst.nodes, inst.graph, params))


def _small_async(pkg: ModuleType, case: int, topology: str, oracle: str) -> list:
    inst, params = _setup(pkg, (case, topology, 3, 4, 3, 5))
    return trace_record(pkg.async_dfal_solve(inst.nodes, inst.graph, params, p=0.1, oracle=oracle,
                                             seed=7, outer_iters=8))


def _dfal_long(pkg: ModuleType) -> list:
    """A long synchronous run on the case-2 instance: c = 0.7, 40 outer
    iterations, down to the penalty floor ``lam1 * 0.7**18``."""
    inst, params = _setup(pkg, (2, *STAR5), c=0.7, outer_cap=40)
    return trace_record(pkg.dfal_solve(inst.nodes, inst.graph, params,
                                       lam_min=params.lam1 * 0.7**18))


def _dfal_case2(pkg: ModuleType) -> list:
    inst, params = _setup(pkg, (2, *STAR5))
    return trace_record(pkg.dfal_solve(inst.nodes, inst.graph, params,
                                       reference=_f_star(pkg, 2)))


def _baseline(pkg: ModuleType, solve: str, iters: int) -> list:
    inst = _instance(pkg, 2, *STAR5)
    return trace_record(getattr(pkg, solve)(inst.nodes, inst.graph, c_admm=1.0, iters=iters))


def _gradient_check(pkg: ModuleType) -> list:
    """``dfal_solve`` on the (2, clique) small instance, with every argument
    its ``gradient_check`` hook receives."""
    inst, params = _setup(pkg, (2, "clique", 3, 4, 3, 5), outer_cap=8)
    seen: list = []  # the hook is handed copies
    trace = pkg.dfal_solve(inst.nodes, inst.graph, params,
                           gradient_check=lambda *a: seen.append(a))
    return [seen, trace_record(trace)]


def _entries() -> dict[str, Callable[[ModuleType], Any]]:
    runs: dict[str, Callable[[ModuleType], Any]] = {}
    for case in (1, 2):
        runs[f"reference-case{case}"] = functools.partial(_reference, case=case)
    for oracle in ("rbcd", "arbcd"):
        for seed in (1000, 1001, 1002, 4001, 4002, 4003):
            runs[f"async-star5-{oracle}-{seed}"] = functools.partial(
                _star5_async, oracle=oracle, seed=seed)
    for case, topology in SMALL:
        runs[f"small-{case}-{topology}-dfal"] = functools.partial(
            _small_sync, case=case, topology=topology)
        for oracle in ("rbcd", "arbcd"):
            runs[f"small-{case}-{topology}-{oracle}"] = functools.partial(
                _small_async, case=case, topology=topology, oracle=oracle)
    runs["dfal-long"] = _dfal_long
    runs["dfal-case2"] = _dfal_case2
    runs["sadmm-200"] = functools.partial(_baseline, solve="sadmm_solve", iters=200)
    for iters in (2, 20):
        runs[f"admm-{iters}"] = functools.partial(_baseline, solve="admm_solve", iters=iters)
    runs["gradient-check"] = _gradient_check
    return runs


# every entry's run of a package by name, in digest order
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


def sha256(record: Any, run: bool = False) -> str:
    """The hex sha256 of ``record``; with ``run``, each :class:`Budget` in it adds nothing."""
    h = hashlib.sha256()
    _feed(h, record, run)
    return h.hexdigest()


def entry_hashes(name: str, pkg: ModuleType = dfalopt) -> tuple[str, str]:
    """The entry hash and the run hash of one run of ``pkg``."""
    record = ENTRIES[name](pkg)
    return sha256(record), sha256(record, run=True)


def combine(hashes: dict[str, str], names: list[str]) -> str:
    """The digest of ``names``: one sha256 over each name and its entry hash."""
    h = hashlib.sha256()
    for name in names:
        h.update(f"{name}={hashes[name]}\n".encode())
    return h.hexdigest()


def digest(set_name: str = "full", pkg: ModuleType = dfalopt,
           errors: dict[str, str] | None = None) -> dict[str, Any]:
    """The digest of one named set of ``pkg``'s runs, with its entry hashes, the
    digest of every named subset it contains and its run hashes.  With
    ``errors``, an entry that raises is left out, and its error's first line is
    put in ``errors`` under its name."""
    both = {}
    for name in SUBSETS[set_name]:
        try:
            both[name] = entry_hashes(name, pkg)
        except Exception as exc:
            if errors is None:
                raise
            errors[name] = f"{type(exc).__name__}: {exc}".splitlines()[0]
    hashes = {name: entry for name, (entry, _) in both.items()}
    return {
        "set": set_name,
        "digest": combine(hashes, list(hashes)),
        "subsets": {s: combine(hashes, members) for s, members in SUBSETS.items()
                    if set(members) <= hashes.keys()},
        "entries": hashes,
        "runs": {name: run for name, (_, run) in both.items()},
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def compare(base: dict[str, Any], change: dict[str, Any]) -> list[str]:
    """The Markdown lines that compare two digests: whether the full digest is
    equal, how many entries are equal and how many differ, how many of the
    differing ones keep their run hash (so only their budgets differ), the equal
    ones by name, and each entry that differs or that only one side has, with
    the first line of the other side's error where its ``errors`` hold one."""
    same = base["digest"] == change["digest"]
    lines = [f"Full digest {'equal' if same else 'differs'}: base `{base['digest'][:16]}…`, "
             f"change `{change['digest'][:16]}…`."]
    old, new = base["entries"], change["entries"]
    both = old.keys() & new.keys()
    equal = sorted(name for name in both if old[name] == new[name])
    one_side = len(old.keys() ^ new.keys())
    lines.append(f"{len(equal)} entries equal, {len(both) - len(equal)} differ"
                 + (f", {one_side} on one side only." if one_side else "."))
    differ = both - set(equal)
    kept = {name for name in differ if base["runs"][name] == change["runs"][name]}
    if differ:
        lines.append(f"{len(kept)} of the {len(differ)} differing entries keep their run hash.")
    if equal:
        lines.append("Equal: " + ", ".join(f"`{name}`" for name in equal) + ".")
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            side, other = ("base", change) if name not in new else ("change", base)
            error = other.get("errors", {}).get(name)
            lines.append(f"- `{name}`: only in the {side}"
                         + (f" (the other raised `{error}`)" if error else ""))
        elif old[name] != new[name]:
            run = " (run equal)" if name in kept else ""
            lines.append(f"- `{name}` differs{run}: `{old[name][:16]}…` -> `{new[name][:16]}…`")
    return lines


def load(name: str, path: Path) -> ModuleType:
    """The package in the directory ``path``, or the module in the file ``path``,
    imported as ``name`` (``dfalopt`` imports its own modules by relative imports
    only, so copies load side by side)."""
    package = path.is_dir()
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class NoBase(Exception):
    """git cannot take out the ``src/dfalopt`` of a commit."""


@contextlib.contextmanager
def base_tree(base: str, name: str) -> Iterator[tuple[str, ModuleType]]:
    """The short hash of the commit ``base`` and its ``src/dfalopt``, taken out with
    ``git archive`` into a temporary directory and imported as ``name``."""
    git = ["git", "-C", str(ROOT)]
    archive = subprocess.run([*git, "archive", base, "src/dfalopt"], capture_output=True)
    if archive.returncode != 0:
        raise NoBase(f"no src/dfalopt at {base!r}: {archive.stderr.decode().strip()}")
    short = subprocess.run([*git, "rev-parse", "--short", base], capture_output=True,
                           text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        yield short, load(name, Path(tmp) / "src" / "dfalopt")


def against(base: str, set_name: str = "full") -> list[str]:
    """The Markdown report of the commit ``base`` against this tree on one named
    set, both run in this process by this tree's entries."""
    with base_tree(base, "digest_base") as (short, pkg):
        sides = []
        for side in (pkg, dfalopt):
            errors: dict[str, str] = {}
            sides.append({**digest(set_name, side, errors), "errors": errors})
    return [f"### Digest against the base (`{short}`)", *compare(*sides)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?",
                        help="a commit to compare this tree against, in Markdown instead of JSON")
    args = parser.parse_args(argv)
    try:
        print("\n".join(against(args.base)) if args.base else json.dumps(digest(), indent=2))
    except NoBase as exc:  # one error line, not a traceback
        print(f"digest.py: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
