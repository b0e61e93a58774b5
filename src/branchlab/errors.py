"""Shared exception types, and two gates: finite for closed forms, count for counts."""
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
        raise ValueError(f"{what} leaves the double range")
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
