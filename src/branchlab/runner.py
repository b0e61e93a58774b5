"""Deterministic replicated execution, serial or across worker processes.

Replicate r always draws from RngStream(seed, r) and results are reduced
in replicate order, so outputs are byte-identical for any worker count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .rng import RngStream


def _run_chunk(args):
    task, seed, lo, hi = args
    return [task(RngStream(seed, r)) for r in range(lo, hi)]


def map_replicated(task, n_reps: int, seed: int, workers: int = 1):
    """Evaluate task(RngStream(seed, r)) for r in 0..n_reps-1, in order.

    task must be picklable (a module-level callable or functools.partial of
    one) when workers > 1. The pool then starts min(workers, n_reps, cpu
    count) processes and hands them about four chunks of replicates each.
    Returns the stacked numpy array of results.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1:
        rows = _run_chunk((task, seed, 0, n_reps))
    else:
        procs = min(workers, n_reps, os.cpu_count() or 1)
        chunk_size = math.ceil(n_reps / (procs * 4))
        chunks = [
            (task, seed, lo, min(lo + chunk_size, n_reps))
            for lo in range(0, n_reps, chunk_size)
        ]
        rows = []
        with ProcessPoolExecutor(max_workers=procs) as pool:
            for part in pool.map(_run_chunk, chunks):
                rows.extend(part)
    return np.stack(rows)
