"""Deterministic multi-stream random number generation.

A stream is a numpy Generator identified by the pair (master_seed,
stream_id): its PCG64 is keyed by a 64-bit avalanche mix of the pair, so
replicate r can always be handed stream_id r and will reproduce the same
draws no matter how work is scheduled or how many workers run.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix(x: int) -> int:
    # splitmix64 finalizer
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def mix64(*parts: int) -> int:
    """Avalanche-mix any number of integers into one well-spread 64-bit value.

    Deterministic, order sensitive, and stable across platforms; this is the
    only seeding primitive used anywhere in the package.
    """
    acc = 0
    for p in parts:
        acc = (acc + (int(p) & _MASK) + _GOLDEN) & _MASK
        acc = _splitmix(acc)
    return acc


class RngStream(np.random.Generator):
    """One independent, reproducible stream of randomness: a numpy Generator.

    Two instances built from equal (master_seed, stream_id) produce
    byte-identical draw sequences.
    """

    def __init__(self, master_seed: int, stream_id: int = 0):
        super().__init__(np.random.PCG64(mix64(master_seed, stream_id)))
