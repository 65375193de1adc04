"""dfalopt benchmark: seeded workloads through the public library, checked.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A run repeats the workload's operations
(reference solve, then its solver calls) on one fixed instance, with an
activation seed per repetition derived from ``--seed``; every repetition
runs in its own child process (``worker.py``) with one BLAS thread and a
wall-clock limit, and children run one at a time.  Times are scaled to a
fixed machine speed measured while each operation runs (``probe.py``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer table with ``--trace 1``.  The exit code is 1 when any output
check fails, 2 when the library is missing.
A full record (machine, every operation, the table) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from workloads import END_TO_END, PER_LAYER, PROBE_REF_S, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")
# every run ends well inside the 180 s a run may take
RUN_LIMIT_S = 170.0
# a child may take this many times its nominal cost before it is killed
CHILD_LIMIT_FACTOR = 4.0
# set-ups per untraced run: its repetitions, topped up by set-up-only children
SETUP_SAMPLES = 9
SETUP_LIMIT_S = 30.0


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "dfalopt").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine(root: Path) -> dict[str, Any]:
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "commit": git_commit(root),
        "source_digest": source_digest(root),
    }


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Runner:
    """Starts worker children one at a time and keeps what they report."""

    def __init__(self, root: Path, workload: Workload, seed: int, deadline: float):
        self.root, self.workload, self.seed = root, workload, seed
        self.deadline = deadline
        self.env = child_env(root)
        self.worker = HERE / "worker.py"
        self.children: list[dict[str, Any]] = []

    def activation_seed(self, rep: int) -> int:
        """Seed of repetition ``rep``: distinct for every (run seed, rep)."""
        return 1000 * self.seed + rep

    def spawn(self, rep: int, mode: str, limit: float, spans: Path | None = None) -> dict[str, Any]:
        limit = min(limit, self.deadline - time.monotonic())
        seed = self.activation_seed(rep)
        child: dict[str, Any] = {"rep": rep, "seed": seed, "mode": mode, "ops": [],
                                 "setup_s": None, "setup_probe_s": None, "done": None,
                                 "error": None}
        self.children.append(child)
        if limit <= 0:
            child["error"] = "run time limit reached before start"
            return child
        t0 = time.monotonic()
        cmd = [sys.executable, str(self.worker), "--workload", self.workload.name,
               "--seed", str(seed), "--rep", str(rep), "--t0", repr(t0),
               "--mode", mode]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=limit)
            stdout, stderr = proc.stdout, proc.stderr
            if proc.returncode != 0:
                child["error"] = f"exit code {proc.returncode}"
        except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
            # each stream is the bytes read before the kill, or None if empty
            stdout, stderr = (s.decode(errors="replace") if isinstance(s, bytes) else s or ""
                              for s in (exc.stdout, exc.stderr))
            child["error"] = f"killed after the {limit:.0f} s limit"
        for line in stdout.splitlines():
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:  # cut short by the kill
                continue
            if "op" in rec:
                child["ops"].append(rec)
            elif "setup_s" in rec:
                child["setup_s"] = rec["setup_s"]
                child["setup_probe_s"] = rec.get("probe_s")
            elif "done" in rec:
                child["done"] = rec
        if child["error"]:
            child["stderr_tail"] = stderr[-2000:]
            print(f"# child {mode} rep {rep}: {child['error']}", file=sys.stderr)
            print(stderr[-2000:], file=sys.stderr)
        return child

    def run_rep(self, rep: int, mode: str = "run", spans: Path | None = None) -> dict[str, Any]:
        return self.spawn(rep, mode, CHILD_LIMIT_FACTOR * self.workload.rep_s, spans)


def tally(runner: Runner) -> tuple[int, int, list[str]]:
    """Operations attempted and failed over the run's repetition children.

    Every repetition attempts the reference plus each solve; an operation
    it never reported (the child died or was killed) failed.  A set-up-only
    child attempts no operation, but its failure is still a problem.
    """
    per_rep = 1 + len(runner.workload.solves)
    attempted = failed = 0
    problems = []
    for child in runner.children:
        if child["mode"] == "setup":
            if child["error"] or child["setup_s"] is None:
                problems.append(f"set-up child {child['rep']}: {child['error'] or 'no set-up'}")
            continue
        attempted += per_rep
        ok = [op for op in child["ops"] if op["ok"]]
        failed += per_rep - len(ok)
        for op in child["ops"]:
            if not op["ok"]:
                problems.append(f"rep {child['rep']} {op['op']}: {op['reason']}")
        if child["error"]:
            problems.append(f"rep {child['rep']}: {child['error']}")
    return attempted, failed, problems


def check_repeatable(runner: Runner, digest: str) -> None:
    """Compare each solve's deterministic counters with every earlier
    repetition of the same source, workload and activation seed; a mismatch
    fails the solve."""
    path = OUT_DIR / "counters.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    for child in runner.children:
        for op in child["ops"]:
            if "counters" not in op:
                continue
            counters = {k: op["counters"][k] for k in
                        ("comm_per_node_max", "oracle_evals", "outer_iters", "inner_iters")}
            key = f"{digest}:{runner.workload.name}:{child['seed']}:{op['op']}"
            if seen.setdefault(key, counters) != counters:
                op["ok"] = False
                op["reason"] = f"counters {counters} differ from an earlier run {seen[key]}"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    tmp.replace(path)


def op_times(child: dict[str, Any], solves: tuple[str, ...]) -> tuple[float | None, float | None]:
    """Reference and summed solve seconds of one repetition."""
    ops = {op["op"]: op for op in child["ops"]}
    ref = ops.get("ref", {}).get("s")
    if all(k in ops and ops[k].get("s") is not None for k in solves):
        return ref, sum(ops[k]["s"] for k in solves)
    return ref, None


def at_probe_speed(seconds: float, probe_s: float | None) -> float:
    """``seconds`` measured while one probe kernel took ``probe_s``, scaled to
    the speed at which it takes ``PROBE_REF_S``; unscaled when the probe took
    no sample."""
    return seconds * PROBE_REF_S / probe_s if probe_s else seconds


def end_to_end(runner: Runner, attempted: int, failed: int) -> dict[str, float]:
    """One value per metric over the run's repetitions.

    Every time is first scaled to the probe's reference speed: each
    operation by the probe samples taken while it ran, set-up by a probe
    window right after it.  ``setup_s`` is the median over every child of
    the run, ``ref_s`` the median over repetitions, and ``solve_s`` adds up
    the median of each solve; only passing operations count.  Memory is a
    median; the work counts are means over repetitions, whose activation
    seeds differ.
    """
    setups = [at_probe_speed(c["setup_s"], c["setup_probe_s"])
              for c in runner.children if c["setup_s"] is not None]
    times: dict[str, list[float]] = {}
    rss, comm, oracle = [], [], []
    for child in runner.children:
        for op in child["ops"]:
            if op["ok"]:
                times.setdefault(op["op"], []).append(
                    at_probe_speed(op["s"], op.get("probe_s")))
        if child["done"]:
            rss.append(child["done"]["peak_rss_mb"])
        counted = [op["counters"] for op in child["ops"] if "counters" in op]
        if len(counted) == len(runner.workload.solves):
            comm.append(sum(c["comm_per_node_max"] for c in counted))
            oracle.append(sum(c["oracle_evals"] for c in counted))

    def median(xs: list[float]) -> float:
        return statistics.median(xs) if xs else 0.0

    solves = runner.workload.solves
    return {
        "setup_s": median(setups),
        "ref_s": median(times.get("ref", [])),
        "solve_s": sum(median(times[k]) for k in solves) if set(solves) <= set(times) else 0.0,
        "peak_rss_mb": median(rss),
        "ok_frac": (attempted - failed) / attempted,
        "comm_per_node_max": statistics.fmean(comm) if comm else 0.0,
        "oracle_evals": statistics.fmean(oracle) if oracle else 0.0,
    }


def per_layer(runner: Runner, plain: dict[str, Any], traced: dict[str, Any]) -> dict[str, float]:
    """The traced child's table, plus tracing overhead against the untraced
    repetition before it."""
    table = dict(traced["done"]["table"]) if traced["done"] else {}
    solves = runner.workload.solves
    ref_t, solve_t = op_times(traced, solves)
    _, solve_plain = op_times(plain, solves)
    table["trace.ref_s"] = ref_t or 0.0
    table["trace.solve_s"] = solve_t or 0.0
    table["trace.overhead_s"] = (solve_t - solve_plain) if solve_t and solve_plain else 0.0
    return {name: float(table.get(name, 0.0)) for name, _, _ in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so subprocess.run kills
    # and reaps the running child before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "dfalopt" / "__init__.py").is_file():
        print("benchmark: src/dfalopt not found; run from the repository root",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    w = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    env = machine(root)
    runner = Runner(root, w, args.seed, started + RUN_LIMIT_S)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    print(f"# workload {w.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("# machine " + json.dumps(env))

    if args.trace:
        plain = runner.run_rep(0)
        traced = runner.run_rep(0, "traced", OUT_DIR / f"spans-{tag}.npz")
    else:
        reps = w.reps(args.seconds)
        for k in range(SETUP_SAMPLES - reps):
            runner.spawn(k, "setup", SETUP_LIMIT_S)
        for rep in range(reps):
            runner.run_rep(rep)
    check_repeatable(runner, env["source_digest"])
    attempted, failed, problems = tally(runner)
    env["numpy"] = next((c["done"]["numpy"] for c in runner.children if c["done"]), None)
    if args.trace:
        metrics = per_layer(runner, plain, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end(runner, attempted, failed)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    correct = failed == 0 and not problems

    for child in runner.children:
        for op in child["ops"]:
            status = "ok" if op["ok"] else f"FAILED: {op['reason']}"
            s, probe_s = op.get("s", 0.0), op.get("probe_s")
            scaled = f"{at_probe_speed(s, probe_s):9.3f} s at probe speed" if probe_s else ""
            print(f"# rep {child['rep']} seed {child['seed']} {child['mode']:6s} "
                  f"{op['op']:11s} {s:9.3f} s {scaled}  {status}")
    for problem in problems:
        print(f"# problem: {problem}")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name:{width}s}  {value:14.6g}  {units[name]}")
    if args.trace:
        ops_s = metrics["trace.ref_s"] + metrics["trace.solve_s"]
        method = (traced["done"] or {}).get("reference_method")
        print(f"# self times sum to {metrics['trace.self_sum_s']:.4f} s of {ops_s:.4f} s "
              f"timed (reference method {method}); tracing overhead "
              f"{metrics['trace.overhead_s']:+.4f} s on solve_s")

    record = {
        "args": vars(args), "machine": env, "correct": correct,
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics, "children": runner.children,
        "elapsed_s": time.monotonic() - started,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
