"""Deterministic replicated execution, serial or across worker processes.

Replicate r always draws from RngStream(seed, r) and results are reduced
in replicate order, so outputs are byte-identical for any worker count.
"""
from __future__ import annotations

import contextlib
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import count
from .rng import RngStream

# replicates, so tasks run and results held, in one map_replicated call;
# the registry's largest call has 2000
MAX_REPLICATES = 2**20

# the pool a shared_pool block keeps open, else None
_shared = None


def _run_chunk(args):
    task, seed, lo, hi = args
    return [task(RngStream(seed, r)) for r in range(lo, hi)]


@contextlib.contextmanager
def shared_pool(workers: int):
    """Serve every pooled map_replicated call in the block from one pool.

    The pool holds min(workers, cpu count) processes and is shut down when
    the block ends. With workers == 1 no pool starts and each pooled call
    starts its own, as outside the block. Raises ValueError, before any
    pool starts, unless workers is an integer >= 1.
    """
    global _shared
    if count(workers, "workers", 1) < 2:
        yield
        return
    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        _shared = pool
        try:
            yield
        finally:
            _shared = None


def map_replicated(task, n_reps: int, seed: int, workers: int = 1):
    """Evaluate task(RngStream(seed, r)) for r in 0..n_reps-1, in order.

    task must be picklable (a module-level callable or functools.partial of
    one) when workers > 1. The call then cuts the replicates into about
    four chunks per process, for min(workers, n_reps, cpu count)
    processes, and maps them on the pool of an enclosing shared_pool block,
    or else on a pool of that many processes of its own. Returns the
    stacked numpy array of results. Raises ValueError, before any task runs
    or pool starts, unless n_reps is an integer in 1..MAX_REPLICATES,
    workers an integer >= 1 and seed an integer.
    """
    n_reps = count(n_reps, "n_reps", 1, MAX_REPLICATES)
    workers = count(workers, "workers", 1)
    seed = count(seed, "seed", -math.inf)
    if workers == 1:
        rows = _run_chunk((task, seed, 0, n_reps))
    else:
        procs = min(workers, n_reps, os.cpu_count() or 1)
        if _shared is None:
            pool = ProcessPoolExecutor(max_workers=procs)
        else:
            pool = contextlib.nullcontext(_shared)
        chunk_size = math.ceil(n_reps / (procs * 4))
        chunks = [
            (task, seed, lo, min(lo + chunk_size, n_reps))
            for lo in range(0, n_reps, chunk_size)
        ]
        rows = []
        with pool as executor:
            for part in executor.map(_run_chunk, chunks):
                rows.extend(part)
    return np.stack(rows)
