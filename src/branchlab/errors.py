"""Shared exception types, and four gates that return what they admit or raise ValueError:
finite for closed forms, count for counts, real for a time, power or moment, grid for a grid."""
from __future__ import annotations

import math
import numbers

import numpy as np


class BranchLabError(Exception):
    """Base class for package errors."""


class CapExceededError(BranchLabError):
    """A configured event or memory cap would be exceeded."""


class TableCoverageError(BranchLabError):
    """A renewal table does not cover the requested time or order."""


class FactorizationError(BranchLabError):
    """Covariance factorization failed even with diagonal jitter."""


def finite(compute, what: str):
    """compute() if every element is finite, else ValueError; float overflow and x/0 read as inf."""
    try:
        with np.errstate(all="ignore"):
            value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{what} is not finite (NaN or past the double range)")
    return value


def count(x, what: str, lo=0, hi=math.inf) -> int:
    """int(x) for an integer x in lo..hi (numpy ones pass, bools do not), else ValueError.

    The result is a Python int, so a product of counts cannot wrap as an int64 one does.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    x = int(x)
    if not lo <= x <= hi:
        bound = f"be >= {lo}" if hi == math.inf else f"lie in {lo}..{hi}"
        raise ValueError(f"{what} must {bound}")
    return x


def _bound(lo, hi, above: bool) -> str:
    if (lo, hi, above) == (0, math.inf, True):
        return "positive and finite"
    return f"finite and in {'(' if above else '['}{lo:g}, {hi:g}]"


def real(x, what: str, lo=-math.inf, hi=math.inf, *, above: bool = False) -> float:
    """float(x) for a finite int or float x in [lo, hi], or in (lo, hi] when above, else ValueError.

    A numpy scalar or 0-d array passes; a bool, string, sequence or int past 2**64 does not.
    """
    a = np.asarray(x)
    if a.ndim or a.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be a real number, got {x!r}")
    x = float(a)
    if not (math.isfinite(x) and (lo < x if above else lo <= x) and x <= hi):
        raise ValueError(f"{what} must be {_bound(lo, hi, above)}, got {x:g}")
    return x


def grid(values, what: str, lo, hi, *, above: bool = False, increasing: bool = False) -> np.ndarray:
    """values as a nonempty 1-d float array of entries that pass real's rule, else ValueError.

    With increasing, the entries must also increase strictly.
    """
    a = np.asarray(values)
    if a.ndim != 1 or a.size == 0 or a.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be a nonempty 1-d sequence of reals")
    a = a.astype(float, copy=False)
    if not np.all(np.isfinite(a) & ((a > lo) if above else (a >= lo)) & (a <= hi)):
        raise ValueError(f"{what} entries must be {_bound(lo, hi, above)}")
    if increasing and np.any(np.diff(a) <= 0.0):
        raise ValueError(f"{what} must be strictly increasing")
    return a
