"""The input boundary: one reader per kind of value that a caller or a file
hands the library.  A reader returns its value unchanged or raises one
``ValueError`` naming the key.  A bool is neither an integer nor a number.
List input is walked entry by entry, since ``np.asarray([True, 2])`` is an
integer array; an ndarray is judged by its dtype."""

from __future__ import annotations

import math
import reprlib
from sys import float_info

import numpy as np

_INTEGER, _NUMBER = (int, np.integer), (int, float, np.integer, np.floating)


def _is(value, kinds: tuple) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def integer(key: str, value, low: int | None = None):
    """``value`` if it is a Python or numpy integer of at least ``low``."""
    if not _is(value, _INTEGER):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if low is not None and value < low:
        bound = "nonnegative" if low == 0 else f"at least {low}"
        raise ValueError(f"{key} must be {bound}, got {value!r}")
    return value


def real(key: str, value, low=-math.inf, high=math.inf, strict: bool = False):
    """``value`` if it is a real number, finite as a float, in ``[low, high]``,
    or in ``(low, high)`` when ``strict``."""
    if not _is(value, _NUMBER):
        raise ValueError(f"{key} must be a number, got {value!r}")
    # the first test also fails on NaN and on an integer beyond the float range
    big = float_info.max
    if not (-big <= value <= big and (low < value < high if strict else low <= value <= high)):
        left = "(" if strict or low == -math.inf else "["
        right = ")" if strict or high == math.inf else "]"
        got = reprlib.repr(value)
        raise ValueError(f"{key} must be in {left}{low}, {high}{right}, got {got}")
    return value


def _array(key: str, value, ndim: int, kinds: tuple, dtypes: str, what: str) -> np.ndarray:
    """``value`` as an array, if it has ``ndim`` dimensions and entries, all of
    ``kinds`` (an ndarray's, of a dtype kind in ``dtypes``)."""
    walked = isinstance(value, (list, tuple))
    try:
        arr = np.asarray(value)
        entries = np.asarray(value, dtype=object).flat if walked else ()
    except ValueError:  # ragged nested lists
        arr, entries = None, ()
    bad = [x for x in entries if not _is(x, kinds)]
    if bad or arr is None or arr.ndim != ndim or not arr.size or arr.dtype.kind not in dtypes:
        got = f"an entry {bad[0]!r}" if bad else reprlib.repr(value)
        raise ValueError(f"{key} must be {what}, got {got}")
    return arr


def indices(key: str, value):
    """``value`` if it is a nonempty 1-D list, tuple or array of integers that
    fit an index."""
    _array(key, value, 1, _INTEGER, "iu", "a nonempty 1-D list of integers")
    return value


def array(key: str, value, ndim: int):
    """``value`` if it is a nonempty ``ndim``-dimensional array of finite
    numbers."""
    arr = _array(key, value, ndim, _NUMBER, "iuf", f"a nonempty {ndim}-D array of numbers")
    if not np.isfinite(arr).all():
        raise ValueError(f"{key} has a non-finite entry")
    return value
