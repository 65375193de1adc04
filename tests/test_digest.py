"""The output digest of ``tools/digest.py``: its runs repeat bit for bit in one
process, its serialization tells apart what a changed run would change, and a
commit compares with this tree in one process."""

import dataclasses
import importlib.util
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from test_ab import needs_git

from dfalopt import TraceRow

PATH = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("digest_tool", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def feed(digest, value, run=False):
    return digest.sha256(value, run)


def test_reduced_set_repeats_in_one_process(digest):
    first, second = digest.digest("reduced"), digest.digest("reduced")
    assert first == second
    assert list(first["entries"]) == [
        "small-1-star-dfal", "small-1-star-rbcd", "small-1-star-arbcd", "admm-2",
    ]
    assert first["subsets"] == {"reduced": first["digest"]}
    assert list(first["runs"]) == list(first["entries"])
    assert len(first["digest"]) == 64 and first["numpy"] == np.__version__


def test_named_sets(digest):
    names = list(digest.ENTRIES)
    assert len(names) == 32 and digest.SUBSETS["full"] == names
    for subset, size in (("core", 26), ("async", 18), ("reduced", 4)):
        members = digest.SUBSETS[subset]
        assert len(set(members)) == len(members) == size
        assert set(members) <= set(names)
    # the async-star5 seeds 1000-1002 are in the core set, 4001-4003 not
    assert {n for n in names if n not in digest.SUBSETS["core"]} == {
        f"async-star5-{o}-{s}" for o in ("rbcd", "arbcd") for s in (4001, 4002, 4003)
    }


def test_last_bits_types_and_shapes_change_the_hash(digest):
    x = np.linspace(0.0, 1.0, 6)
    y = x.copy()
    y[3] = np.nextafter(y[3], 2.0)
    row = TraceRow(1, 0.5, 1.0, 0.1, 0.01, 4, 3, 3, 0.2, 7, "residual")
    values = [
        x, y, x.reshape(2, 3), x.astype(np.float32), 1.0, np.nextafter(1.0, 2.0), 1,
        True, "1", None, [1, 2], [[1], 2], row, dataclasses.replace(row, stop_reason="cap"),
    ]
    assert len({feed(digest, v) for v in values}) == len(values)
    assert feed(digest, x) == feed(digest, x.copy())
    with pytest.raises(TypeError, match="no serialization"):
        feed(digest, {1: 2})


def test_run_hash_leaves_out_the_budgets_alone(digest):
    # a budget hashes as its value in the entry hash, so entry hashes stay as
    # they were before the run hash; only the run hash leaves it out
    row = TraceRow(1, 0.5, 1.0, 0.1, 0.01, 4, 3, 3, 0.2, 7, "residual")
    record = [[row], digest.Budget([10, 20]), digest.Budget([1.5, 2.5]), "converged"]
    plain = [[row], [10, 20], [1.5, 2.5], "converged"]
    assert feed(digest, record) == feed(digest, plain)
    moved = [[row], digest.Budget([10, 21]), digest.Budget([1.5, 2.5]), "converged"]
    assert feed(digest, moved) != feed(digest, record)
    assert feed(digest, moved, run=True) == feed(digest, record, run=True)
    for other in ([[dataclasses.replace(row, inner_iters=5)], *record[1:]],
                  [*record[:3], "cap"]):
        assert feed(digest, other, run=True) != feed(digest, record, run=True)


def test_compare_counts_the_entries_that_keep_their_run(digest):
    base = {"digest": "a" * 64, "entries": dict(same="1", budgets="2", rows="3", gone="4"),
            "runs": dict(same="r1", budgets="r2", rows="r3", gone="r4")}
    change = {"digest": "b" * 64, "entries": dict(same="1", budgets="5", rows="6", new="7"),
              "runs": dict(same="r1", budgets="r2", rows="r6", new="r7")}
    lines = digest.compare(base, change)
    assert lines[1:4] == ["1 entries equal, 2 differ, 2 on one side only.",
                          "1 of the 2 differing entries keep their run hash.",
                          "Equal: `same`."]
    assert lines[4:] == ["- `budgets` differs (run equal): `2…` -> `5…`",
                         "- `gone`: only in the base", "- `new`: only in the change",
                         "- `rows` differs: `3…` -> `6…`"]
    del base["runs"]
    assert digest.compare(base, change)[2] == (
        "0 of the 2 differing entries keep their run hash (a side prints no run hashes).")
    assert len(digest.compare(change, change)) == 3  # no entry differs


def test_a_reference_record_hashes_its_gap(digest):
    ref = SimpleNamespace(f_star=1.5, x_ref=np.ones(3), method="primal-dual", converged=True,
                          iterations=9, gap=6e-10)
    moved = SimpleNamespace(**{**vars(ref), "gap": np.nextafter(6e-10, 1.0)})
    records = [digest.reference_record(r) for r in (ref, moved)]
    assert feed(digest, records[0]) != feed(digest, records[1])


@needs_git
def test_head_against_this_tree_in_one_process(digest):
    start = time.perf_counter()
    lines = digest.against("HEAD", "reduced")
    assert lines[0].startswith("### Digest against the base (`")
    assert lines[1].startswith("Full digest equal") and lines[2] == "4 entries equal, 0 differ."
    assert len(lines) == 4 and time.perf_counter() - start < 5


def test_a_base_git_cannot_archive_is_one_error_line(digest, capsys):
    assert digest.main(["no-such-commit"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("digest.py: error: no src/dfalopt at 'no-such-commit'")
