"""An in-process paired A/B of two source trees: time per operation, base against change.

The package ``src/dfalopt`` of the commit BASE, taken out with ``git archive``
into a temporary directory, and the one of this tree are imported into one
process as two packages (``src/dfalopt`` imports its own modules by relative
imports only), under one BLAS thread.  This tree is imported a second time, as
a control: the change against a copy of itself (an A/A run) shows how far two
equal trees read apart in this session.

Each operation is one call of a package, on the instances of the benchmark's
workloads (instance seed 1, star, N = 5, n_g = K = 10), made before the clock
starts:

- ``async-rbcd`` and ``async-arbcd``: ``async_dfal_solve`` on the
  ``async-star5`` instance, 40 outer iterations at p = 0.1, activation seed
  4001, scored against the case-1 reference;
- ``sadmm-admm``: ``sadmm_solve(iters=200)`` then ``admm_solve(iters=2)`` on
  the case-2 instance, as ``baselines-case2`` solves it;
- ``dfal-case2``: ``dfal_solve`` on the case-2 instance at ``default_params``,
  scored against the case-2 reference;
- ``ref-case1`` and ``ref-case2``: ``reference_solve(cache=False)`` of each
  case.

A round runs every operation once on each side: base, change and control in
even rounds and the reverse order in odd ones, so which side of each pair runs
first alternates.  One untimed round first warms the memos and caches.  For
each operation the script prints one JSON object:

- ``base_ms`` and ``change_ms``: the median time of one call on each side;
- ``ratio``: the median and quartiles of change / base over the rounds, and
  ``wins``, the rounds in which the change was faster;
- ``aa``: the same of control / change, the A/A band;
- ``verdict``: ``faster`` when the ratio's upper quartile lies below the A/A
  band's lower one, ``slower`` when its lower quartile lies above the band's
  upper one, else ``within the A/A band``;
- ``outputs_equal`` and ``aa_outputs_equal``: whether the two sides' outputs
  hash alike in every round, as ``tools/digest.py`` hashes them (rows, ledger
  arrays, budgets, final state and stop reason; a reference's optimum, point,
  method, certificate and iterations).

Usage, from any directory of the repository::

    python3 tools/ab.py HEAD~1                                 # every operation
    python3 tools/ab.py HEAD~1 --ops ref-case1 --rounds 40     # one, longer

Compare ratios only against the A/A band of the same run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

# one BLAS thread, set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change", "control")
ACTIVATION_SEED = 4001


def _load(name: str, path: Path) -> ModuleType:
    """The module or package at ``path`` (a package's directory), imported as ``name``."""
    init = path / "__init__.py" if path.is_dir() else path
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(path)] if path.is_dir() else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


digest = _load("ab_digest", ROOT / "tools" / "digest.py")


def _async(oracle: str) -> Callable[[ModuleType], Callable[[], Any]]:
    def make(pkg: ModuleType) -> Callable[[], Any]:
        inst = pkg.generate_instance(1, "star", 5, 10, 10, 1)
        params = pkg.default_params(inst.nodes, inst.graph, outer_cap=40, eps_opt=1e-3,
                                    eps_feas=1e-4)
        f_star = pkg.reference_solve(inst, cache=False).f_star
        return lambda: digest.trace_record(pkg.async_dfal_solve(
            inst.nodes, inst.graph, params, p=0.1, oracle=oracle, seed=ACTIVATION_SEED,
            outer_iters=40, reference=f_star))
    return make


def _baselines(pkg: ModuleType) -> Callable[[], Any]:
    inst = pkg.generate_instance(2, "star", 5, 10, 10, 1)
    return lambda: [digest.trace_record(solve(inst.nodes, inst.graph, iters=iters))
                    for solve, iters in ((pkg.sadmm_solve, 200), (pkg.admm_solve, 2))]


def _dfal_case2(pkg: ModuleType) -> Callable[[], Any]:
    inst = pkg.generate_instance(2, "star", 5, 10, 10, 1)
    params = pkg.default_params(inst.nodes, inst.graph)
    f_star = pkg.reference_solve(inst, cache=False).f_star
    return lambda: digest.trace_record(pkg.dfal_solve(inst.nodes, inst.graph, params,
                                                      reference=f_star))


def _reference(case: int) -> Callable[[ModuleType], Callable[[], Any]]:
    def make(pkg: ModuleType) -> Callable[[], Any]:
        inst = pkg.generate_instance(case, "star", 5, 10, 10, 1)

        def run() -> list:
            ref = pkg.reference_solve(inst, cache=False)
            return [ref.f_star, ref.x_ref, ref.method, ref.converged, ref.iterations]
        return run
    return make


# name -> (package -> its timed call)
OPS = {
    "async-rbcd": _async("rbcd"),
    "async-arbcd": _async("arbcd"),
    "sadmm-admm": _baselines,
    "dfal-case2": _dfal_case2,
    "ref-case1": _reference(1),
    "ref-case2": _reference(2),
}


def _hash(record: Any) -> str:
    h = hashlib.sha256()
    digest._feed(h, record)
    return h.hexdigest()


def _ratios(num: list[float], den: list[float]) -> dict[str, float]:
    """Median and quartiles of ``num / den`` over the rounds, and the rounds below 1."""
    ratios = [a / b for a, b in zip(num, den)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "wins": sum(r < 1.0 for r in ratios)}


def measure(packages: dict[str, ModuleType], ops: list[str], rounds: int) -> list[dict]:
    """One summary per operation of ``rounds`` timed rounds over the ``SIDES``."""
    calls = {side: {op: OPS[op](pkg) for op in ops} for side, pkg in packages.items()}
    times = {op: {side: [] for side in SIDES} for op in ops}
    hashes = {op: {side: set() for side in SIDES} for op in ops}
    for r in range(-1, rounds):  # round -1 is untimed
        for op in ops:
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                gc.collect()
                start = time.perf_counter()
                record = calls[side][op]()
                elapsed = time.perf_counter() - start
                hashes[op][side].add(_hash(record))
                if r >= 0:
                    times[op][side].append(elapsed)
    out = []
    for op in ops:
        t, h = times[op], hashes[op]
        ratio, aa = _ratios(t["change"], t["base"]), _ratios(t["control"], t["change"])
        verdict = ("faster" if ratio["q3"] < aa["q1"] else
                   "slower" if ratio["q1"] > aa["q3"] else "within the A/A band")
        out.append({
            "op": op, "rounds": rounds,
            "base_ms": statistics.median(t["base"]) * 1e3,
            "change_ms": statistics.median(t["change"]) * 1e3,
            "ratio": ratio, "aa": aa, "verdict": verdict,
            "outputs_equal": len(h["base"]) == 1 and h["base"] == h["change"],
            "aa_outputs_equal": len(h["change"]) == 1 and h["change"] == h["control"],
        })
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the commit to compare this tree against")
    parser.add_argument("--ops", nargs="+", choices=list(OPS), default=list(OPS))
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src/dfalopt"],
                             capture_output=True)
    if archive.returncode != 0:  # one error line, not a traceback
        print(f"ab.py: error: no src/dfalopt at {args.base!r}: "
              f"{archive.stderr.decode().strip()}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        packages = {"base": _load("ab_base", Path(tmp) / "src" / "dfalopt")}
        for side in SIDES[1:]:
            packages[side] = _load(f"ab_{side}", ROOT / "src" / "dfalopt")
        summaries = measure(packages, args.ops, args.rounds)
    base = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.base],
                          capture_output=True, text=True).stdout.strip()
    for summary in summaries:
        print(json.dumps({"base": base, **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
