"""The output digest of ``tools/digest.py``: its runs repeat bit for bit in one
process, and its serialization tells apart what a changed run would change."""

import dataclasses
import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dfalopt import TraceRow

PATH = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("digest_tool", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def feed(digest, value):
    h = hashlib.sha256()
    digest._feed(h, value)
    return h.hexdigest()


def test_reduced_set_repeats_in_one_process(digest):
    first, second = digest.digest("reduced"), digest.digest("reduced")
    assert first == second
    assert list(first["entries"]) == [
        "small-1-star-dfal", "small-1-star-rbcd", "small-1-star-arbcd", "admm-2",
    ]
    assert first["subsets"] == {"reduced": first["digest"]}
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
