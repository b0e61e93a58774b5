"""Branching counts generated by positive random walks, truncated at a horizon.

Generation 1 is the walk's partial-sum sequence up to the horizon; each
individual born at time s starts an independent copy of the walk, shifted
by s, to produce the next generation. Trajectories record, per generation,
the sorted birth times, the index of the first-generation ancestor, and the
parent's position in the previous generation.

The genealogical embedding ties this to uniform recursive trees: with unit
rate exponential clocks, when j vertices are alive the next birth happens
after an Exp(j) wait and attaches to a uniformly chosen live vertex.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .distributions import IncrementDistribution
from .errors import CapExceededError, TableCoverageError
from .recursive_tree import RecursiveTree
from .renewal import RenewalTable
from .rng import RngStream

MAX_EVENTS = 2**28
# The embedded tree's heap holds one Python tuple per vertex: a birth costs
# about 10 us and 150 bytes, so 2**22 births take about 45 s and 650 MB.
MAX_EMBEDDED_BIRTHS = 2**22
_CELL_BUDGET = 4_000_000
# A walk block may be redrawn at 2, 4 and 8 times its 10-sigma width. That
# covers laws as skewed as gamma(1e-3,1e-3) at small budgets; a law that
# needs more cannot pass its budget in bounded memory.
_MAX_DOUBLINGS = 3


class CmjTrajectory:
    """Events of one truncated branching run, grouped by generation.

    times[g], anc1[g], parent_idx[g] describe generation g+1, each sorted by
    birth time (ties keep creation order). parent_idx entries point into the
    previous generation's arrays; generation 1 has parent -1.
    """

    __slots__ = ("dist", "horizon", "k_max", "times", "anc1", "parent_idx")

    def __init__(self, dist, horizon, k_max, times, anc1, parent_idx):
        self.dist = dist
        self.horizon = float(horizon)
        self.k_max = int(k_max)
        self.times = times
        self.anc1 = anc1
        self.parent_idx = parent_idx

    @property
    def n_events(self) -> int:
        return int(sum(t.shape[0] for t in self.times))

    def merged_order(self):
        """Global event order (time, then generation, then creation order).

        Returns (times, generations, ancestors), one entry per event.
        """
        all_t = np.concatenate(self.times) if self.times else np.empty(0)
        gens = np.concatenate(
            [np.full(t.shape[0], g + 1, dtype=np.int64) for g, t in enumerate(self.times)]
        ) if self.times else np.empty(0, dtype=np.int64)
        anc = np.concatenate(self.anc1) if self.anc1 else np.empty(0, dtype=np.int64)
        seq = np.arange(all_t.shape[0])
        order = np.lexsort((seq, gens, all_t))
        return all_t[order], gens[order], anc[order]


@dataclass(frozen=True)
class EmbeddedTree:
    """A recursive tree with the continuous birth times of its vertices.

    birth_times[i] is when vertex i+1 appeared; the root is present from
    time 0.
    """

    tree: RecursiveTree
    birth_times: np.ndarray


@dataclass(frozen=True)
class DecompositionTerms:
    """Fluctuation split of Y_k(t) around its polynomial center.

    y1 + y2 + y3 equals count - t^k/(k! mu^k) exactly up to interpolation
    rounding; y2_star is the alternative second term centered by the exact
    mean U_k(t) instead of the polynomial, so y1 + y2_star = count - U_k(t).
    """

    k: int
    t: float
    count: int
    y1: float
    y2: float
    y3: float
    y2_star: float


def expected_event_count(dist: IncrementDistribution, horizon: float, k_max: int) -> float:
    """Leading-order estimate sum_k (horizon/mu)^k / k! used for the cap check."""
    m = horizon / dist.mu
    return float(sum(m**k / math.factorial(k) for k in range(1, k_max + 1)))


def walk_blocks(dist: IncrementDistribution, rng: RngStream, budgets):
    """Partial sums of independent walks, one row per budget, in row blocks.

    Yields (lo, cs, inside) for consecutive blocks covering rows 0..n-1:
    row i of cs is a walk driven past budgets[lo + i], and inside is
    cs <= budget, the sums that land within it. A block's width covers its
    first (largest) budget with a 10-sigma margin, so budgets must be
    nonincreasing. A block that fails to pass every budget is redrawn at
    double width, at most _MAX_DOUBLINGS times; past that the law cannot
    drive the walk past the budget and CapExceededError is raised.
    """
    budgets = np.asarray(budgets, dtype=float)
    if np.any(budgets[1:] > budgets[:-1]):
        raise ValueError("walk budgets must be nonincreasing")
    n = budgets.shape[0]
    lo = 0
    while lo < n:
        m = budgets[lo] / dist.mu
        cols = int(m + 10.0 * math.sqrt(max(m, 1.0) * dist.sigma2 / dist.mu**2) + 32)
        rows = max(1, min(n - lo, _CELL_BUDGET // cols))
        b = budgets[lo : lo + rows, None]
        for _ in range(_MAX_DOUBLINGS + 1):
            cs = dist.sample(rng, (rows, cols))
            np.cumsum(cs, axis=1, out=cs)
            if bool(np.all(cs[:, -1:] > b)):
                break
            cols *= 2
        else:
            raise CapExceededError(
                f"walk of {dist.descriptor} did not pass budget {b[0, 0]:g} "
                f"after {_MAX_DOUBLINGS} doublings of its width"
            )
        yield lo, cs, cs <= b
        lo += rows


def _offspring(
    dist: IncrementDistribution,
    rng: RngStream,
    births: np.ndarray,
    horizon: float,
):
    """Child birth times (<= horizon) for every parent, flattened parent-major.

    Returns (times, parent_rows); births must be nondecreasing.
    """
    times_parts = []
    rows_parts = []
    for lo, cs, inside in walk_blocks(dist, rng, horizon - births):
        rows = lo + np.nonzero(inside)[0]
        times_parts.append(births[rows] + cs[inside])
        rows_parts.append(rows)
    if not times_parts:
        return np.empty(0), np.empty(0, dtype=np.int64)
    return np.concatenate(times_parts), np.concatenate(rows_parts)


def simulate_cmj(
    dist: IncrementDistribution,
    horizon: float,
    k_max: int,
    rng: RngStream,
) -> CmjTrajectory:
    """Simulate generations 1..k_max up to the horizon.

    Generation-k_max individuals are leaves (their offspring are never
    drawn). Raises CapExceededError when the expected or actual event count
    exceeds MAX_EVENTS, or when the law's walk cannot pass its
    budget (see walk_blocks).
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if expected_event_count(dist, horizon, k_max) > MAX_EVENTS:
        raise CapExceededError("expected event count exceeds the cap")

    g1, _ = _offspring(dist, rng, np.zeros(1), horizon)
    times = [g1]
    anc1 = [np.arange(1, g1.shape[0] + 1, dtype=np.int64)]
    parent_idx = [np.full(g1.shape[0], -1, dtype=np.int64)]
    total = g1.shape[0]
    for _ in range(2, k_max + 1):
        prev_t = times[-1]
        child_t, child_rows = _offspring(dist, rng, prev_t, horizon)
        order = np.argsort(child_t, kind="stable")
        child_t = child_t[order]
        child_rows = child_rows[order]
        total += child_t.shape[0]
        if total > MAX_EVENTS:
            raise CapExceededError("event count exceeds the cap")
        times.append(child_t)
        anc1.append(anc1[-1][child_rows])
        parent_idx.append(child_rows)
    return CmjTrajectory(dist, horizon, k_max, times, anc1, parent_idx)


def count_generation(traj: CmjTrajectory, k: int, t: float) -> int:
    """Number of generation-k births at or before time t."""
    if not 1 <= k <= traj.k_max:
        raise ValueError(f"generation must lie in 1..{traj.k_max}")
    if t > traj.horizon + 1e-9 * max(1.0, traj.horizon):
        raise ValueError("query beyond the simulated horizon")
    if t < 0:
        return 0
    return int(np.searchsorted(traj.times[k - 1], t, side="right"))


def simulate_embedded_rrt(n: int, rng: RngStream) -> EmbeddedTree:
    """Grow a recursive tree in continuous time for n attachments.

    Every vertex carries its own unit-rate exponential birth clock; the
    vertex whose clock fires first bears the next child. This is a
    different mechanism from uniform attachment, yet the genealogical
    tree at the n-th birth has the same law as generate_rrt(n + 1),
    which is exactly what the embedding-based checks exercise.

    Draws happen in event order: the root's first clock, then two fresh
    exponentials per birth (the parent's next firing and the child's
    first). Raises CapExceededError above MAX_EMBEDDED_BIRTHS births.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_EMBEDDED_BIRTHS:
        raise CapExceededError(f"{n} births exceed the cap {MAX_EMBEDDED_BIRTHS}")
    parent = np.full(n + 1, -1, dtype=np.int64)
    birth_times = np.empty(n)
    if n:
        draws = rng.gen.exponential(size=2 * n + 1)
        heap = [(draws[0], 0)]
        for i in range(1, n + 1):
            t, v = heapq.heappop(heap)
            parent[i] = v
            birth_times[i - 1] = t
            heapq.heappush(heap, (t + draws[2 * i - 1], v))
            heapq.heappush(heap, (t + draws[2 * i], i))
    return EmbeddedTree(RecursiveTree(parent), birth_times)


def renewal_count_samples(
    dist: IncrementDistribution, t: float, n_samples: int, rng: RngStream
) -> np.ndarray:
    """n_samples independent copies of the first-generation count at time t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    out = np.empty(n_samples, dtype=np.int64)
    for lo, cs, inside in walk_blocks(dist, rng, np.full(n_samples, float(t))):
        out[lo : lo + cs.shape[0]] = inside.sum(axis=1)
    return out


def decomposition_terms(
    traj: CmjTrajectory, table: RenewalTable, k: int, t: float
) -> DecompositionTerms:
    """Split Y_k(t) - t^k/(k! mu^k) into its three fluctuation terms.

    y1 sums, over first-generation individuals born by t, the centered
    descendant counts; y2 recenters the shot-noise sum of U_{k-1} by its
    integral; y3 is the deterministic drift. U-values are interpolated from
    the table, which must cover order k and horizon t and describe the same
    law as the trajectory.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > traj.k_max:
        raise ValueError(f"trajectory holds generations 1..{traj.k_max}")
    if table.dist.descriptor != traj.dist.descriptor:
        raise ValueError("table and trajectory use different increment laws")
    if table.k_max < k:
        raise TableCoverageError(f"table must hold orders up to {k}")
    if t > traj.horizon + 1e-9 * max(1.0, traj.horizon):
        raise ValueError("query beyond the simulated horizon")

    mu = traj.dist.mu
    s1 = traj.times[0]
    s1 = s1[s1 <= t]
    shot = float(np.sum(table.interp(k - 1, t - s1))) if s1.size else 0.0
    drift = table.integral(k - 1, t) / mu
    poly = t**k / (math.factorial(k) * mu**k)
    count = count_generation(traj, k, t)
    return DecompositionTerms(
        k=k,
        t=t,
        count=count,
        y1=count - shot,
        y2=shot - drift,
        y3=drift - poly,
        y2_star=shot - float(table.interp(k, t)),
    )
