"""Shared exception types, and the gate every closed form passes through."""
from __future__ import annotations

import math

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
