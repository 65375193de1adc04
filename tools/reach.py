"""Which lines of ``src/dfalopt`` the library's traffic and its tests reach.

A ``sys.settrace`` hook, set only on frames of ``src/dfalopt``, records every
line run by, in this order (``dfalopt`` is first imported under the hook):

1. the traffic:
   - each top-level ``$cli`` command of ``.github/cli_smoke.sh`` (the ones
     that succeed), run in this process through ``dfalopt.cli.main``;
   - ``tools/digest.py``'s ``digest()``;
   - one reference and every solve of each benchmark workload, through
     ``benchmark/worker.py``'s ``setup`` and ``solve`` at seed 4501;
2. ``pytest tests benchmark/tests --continue-on-collection-errors``, as
   tier-1 runs it, in this process (the lines of child processes are not
   seen): a test file that fails to import costs its own tests only.

The executable lines of a file are the lines its code objects map
instructions to.  The report gives per file the
executable lines, the lines the traffic reaches, the lines only the tests
reach, and the text of every line that nothing reaches.

Usage, from any directory; it takes a few minutes::

    python3 tools/reach.py
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import os
import shlex
import sys
import tempfile
import types
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dfalopt"
sys.path.insert(0, str(ROOT / "src"))

Lines = set[tuple[str, int]]


def code_lines(code: types.CodeType) -> set[int]:
    """The lines ``code`` and the code nested in it map instructions to."""
    lines = {line for *_, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def executable(path: Path) -> set[int]:
    return code_lines(compile(path.read_text(), str(path), "exec"))


@contextlib.contextmanager
def tracing() -> Iterator[Lines]:
    """Records ``(file, line)`` for each line run in ``src/dfalopt`` while
    the context is open."""
    seen: Lines = set()
    prefix = str(SRC) + os.sep

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        yield seen
    finally:
        sys.settrace(previous)


def _load(path: Path, name: str) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def smoke_commands(workdir: str) -> Iterator[Callable[[], None]]:
    """The top-level lines of ``.github/cli_smoke.sh`` that run ``$cli`` or
    write a file with ``echo`` or ``printf``, in order, ``$dir`` read as
    ``workdir``."""
    from dfalopt import cli

    def run(argv: list[str]) -> None:
        if cli.main(argv) != 0:
            raise RuntimeError(f"dfalopt {shlex.join(argv)} failed")

    for line in (ROOT / ".github" / "cli_smoke.sh").read_text().splitlines():
        if not line.startswith(("$cli ", "echo ", "printf ")):
            continue
        words = shlex.split(line.replace("$dir", workdir), comments=True)
        if words[0] == "$cli":
            yield lambda argv=words[1:]: run(argv)
        elif words[2:3] == [">"]:
            text = words[1].replace("\\n", "\n") if words[0] == "printf" else words[1] + "\n"
            yield lambda path=words[3], text=text: Path(path).write_text(text)


def traffic() -> None:
    """The CLI smoke commands, the digest and both benchmark workloads."""
    with tempfile.TemporaryDirectory() as workdir, contextlib.redirect_stdout(None):
        for command in smoke_commands(workdir):
            command()
    _load(ROOT / "tools" / "digest.py", "digest_tool").digest()
    sys.path.insert(0, str(ROOT / "benchmark"))
    worker = _load(ROOT / "benchmark" / "worker.py", "bench_worker")
    from dfalopt import bench

    for w in worker.WORKLOADS.values():
        inst, params = worker.setup(w)
        f_star = bench.reference_solve(inst, cache=False).f_star
        for kind in w.solves:
            worker.solve(kind, inst, params, f_star, 4501)


class _CollectionErrors:
    """A pytest plugin that counts the files and directories that fail to collect."""

    count = 0

    def pytest_collectreport(self, report) -> None:
        self.count += report.failed


def tests(paths: tuple[str, ...] = ("tests", "benchmark/tests")) -> tuple[int, int]:
    """Runs pytest on ``paths`` from the repository root; returns its exit
    status and the number of collection errors."""
    import pytest

    errors, cwd = _CollectionErrors(), os.getcwd()
    os.chdir(ROOT)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              *paths], plugins=[errors])
    finally:
        os.chdir(cwd)
    return status, errors.count


def report(by_traffic: Lines, by_tests: Lines) -> None:
    print(f"{'file':16} {'lines':>6} {'traffic':>8} {'tests only':>11} {'none':>5}")
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        lines = executable(path)
        traffic_hit = {ln for f, ln in by_traffic if f == str(path)} & lines
        tests_only = ({ln for f, ln in by_tests if f == str(path)} & lines) - traffic_hit
        none = sorted(lines - traffic_hit - tests_only)
        print(f"{path.name:16} {len(lines):6} {len(traffic_hit):8} {len(tests_only):11} "
              f"{len(none):5}")
        text = path.read_text().splitlines()
        unreached += [f"{path.name}:{ln}: {text[ln - 1].strip()}" for ln in none]
    print("\nreached by nothing:")
    print("\n".join(unreached) or "(none)")


def main(argv: list[str] | None = None) -> int:
    # no options: --help prints the usage and an unknown argument exits 2, both
    # before anything runs
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    with tracing() as by_traffic:
        traffic()
    with tracing() as by_tests:
        status, errors = tests()
    report(by_traffic, by_tests)
    if status != 0 or errors:
        print(f"\npytest exited with status {status}, {errors} collection errors",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
