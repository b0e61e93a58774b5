"""Branching counts generated by positive random walks, truncated at a horizon.

Generation 1 is the walk's partial-sum sequence up to the horizon; each
individual born at time s starts an independent copy of the walk, shifted
by s, to produce the next generation. Trajectories record, per generation,
the sorted birth times and the index of each birth's first-generation
ancestor.

Every walk draws its own slot of increments, about three standard
deviations longer than its expected step count, and the walks of one
generation are drawn in passes of consecutive slots with one cumulative
sum each. A walk keeps the sums within its budget horizon - b; one that is
still within it at the end of its slot goes on from fresh draws in a later
pass. The slots are disjoint, so the walks are independent copies (Gut,
Stopped Random Walks, 2nd ed., Springer 2009). Each pass goes to its
caller as it is drawn, so a caller that only counts holds counts, not
steps. Counting a generation compares its births with the query times, so
it needs no sort.

The genealogical embedding ties this to uniform recursive trees: with unit
rate exponential clocks, when j vertices are alive the next birth happens
after an Exp(j) wait and attaches to a uniformly chosen live vertex. Two
samplers race those clocks on the same draws: simulate_embedded_rrt keeps
a heap, O(n log n), and serves one large tree (cmj --embedded);
_embedded_parent_matrix races the clocks of many small trees at once in
numpy, O(n^2) per tree, and serves the verify registry.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .distributions import IncrementDistribution
from .errors import CapExceededError, count, grid, real
from .recursive_tree import RecursiveTree
from .rng import RngStream

# A run holds about 33 bytes per event. simulate_cmj(exp(1), 16.46, 30) made 2.6e7
# events in 11 s and 0.90 GB (fresh process, 2 cores): about 15 s and 1.2 GB at the
# cap. The cmj command, writing its 0.63 GB CSV in merged time blocks as well, took
# 31 s and 0.88 GB: the writer adds no peak to the run's own.
MAX_EVENTS = 2**25
# With m = horizon/mu, a run of k_max >= 40 generations and m >= 20 expects
# about e**20 > MAX_EVENTS events. So every admitted run that deep has
# m < 20, and generation 2**10 expects fewer than 1e-1000 events: a larger
# k_max would only loop over empty generations.
MAX_GENERATIONS = 2**10
# The embedded tree's heap holds one Python tuple per vertex: a birth costs
# about 10 us and 150 bytes, so 2**22 births take about 45 s and 650 MB.
MAX_EMBEDDED_BIRTHS = 2**22
# One pass of the walk sampler draws at most this many increments, so it
# costs a few MB beyond the sums the walks keep.
_PASS = 1 << 18
# A walk may draw up to 8 times its 10-sigma width. That covers laws as
# skewed as gamma(1e-3,1e-3) at small budgets; a law that needs more cannot
# pass its budget in bounded memory.
_MAX_WIDTHS = 8


@dataclass(frozen=True)
class CmjTrajectory:
    """Events of one truncated branching run, grouped by generation.

    times[g] and anc1[g] describe generation g+1, each sorted by birth time
    (ties keep creation order). anc1 labels each event with its
    generation-1 ancestor, 1 + that ancestor's index in times[0]. The law
    is not kept: the caller that passed it to simulate_cmj holds it.
    """

    horizon: float
    k_max: int
    times: list
    anc1: list

    @property
    def n_events(self) -> int:
        return int(sum(t.shape[0] for t in self.times))


@dataclass(frozen=True)
class EmbeddedTree:
    """A recursive tree with the continuous birth times of its vertices.

    birth_times[i] is when vertex i+1 appeared; the root is present from
    time 0.
    """

    tree: RecursiveTree
    birth_times: np.ndarray


def expected_event_count(dist: IncrementDistribution, horizon: float, k_max: int) -> float:
    """Leading-order estimate sum_k (horizon/mu)^k / k! used for the cap check.

    Each term is the last one times m/k, so a sum past the double range
    reads inf rather than raising OverflowError. Raises CapExceededError,
    before the sum, when k_max exceeds MAX_GENERATIONS.
    """
    k_max = count(k_max, "k_max")
    if k_max > MAX_GENERATIONS:
        raise CapExceededError(f"{k_max} generations exceed the cap {MAX_GENERATIONS}")
    m = horizon / dist.mu
    total, term = 0.0, 1.0
    for k in range(1, k_max + 1):
        term *= m / k
        total += term
    return total


def _walk_sums(dist: IncrementDistribution, rng: RngStream, budgets, held: int = 0):
    """Kept partial sums of independent increasing walks, one walk per budget.

    Yields (rows, sums) per pass, one entry per kept step: sums[j] <=
    budgets[rows[j]] is a partial sum of walk rows[j], and rows never
    decrease. Walk i draws its own slot of ceil(m + 3 sigma + 4) increments,
    at most _PASS, where m and sigma are the mean and standard deviation of
    its step count. One pass draws the slots of consecutive walks, up to
    _PASS increments, takes one cumulative sum and keeps every sum within
    its walk's budget. A walk whose whole slot stays within its budget goes
    on from fresh draws in a later pass: it is extended, never redrawn. The
    slots are disjoint, so the walks are independent copies.

    Budgets must be finite and >= 0. Raises CapExceededError when a walk
    expects more than MAX_EVENTS steps (before any draw), when held plus the
    steps kept pass MAX_EVENTS (per pass; the work bound of every caller),
    or when a walk stays within its budget for _MAX_WIDTHS 10-sigma widths.
    That bound is worked out each round for the walks that go on only, so a
    walk holds three floats between rounds: budget, last kept sum, draws.
    """
    budgets = np.asarray(budgets, dtype=float)
    if not np.all(np.isfinite(budgets) & (budgets >= 0.0)):
        raise ValueError("walk budgets must be finite and >= 0")
    if budgets.size and budgets.max() / dist.mu > MAX_EVENTS:
        raise CapExceededError(f"a walk of {dist.descriptor} expects more than {MAX_EVENTS} steps")
    var = dist.sigma2 / dist.mu**2  # step-count variance per unit of mean
    base = np.zeros(budgets.shape[0])  # the last kept sum of a walk that goes on
    drawn = np.zeros(budgets.shape[0])
    walks = np.arange(budgets.shape[0])
    while walks.size:
        m = (budgets[walks] - base[walks]) / dist.mu
        width = np.ceil(m + 3.0 * np.sqrt(np.maximum(m, 1.0) * var) + 4.0)
        width = np.minimum(width, _PASS).astype(np.int64)
        ends = np.cumsum(width)
        later, lo = [], 0
        while lo < walks.size:
            first = ends[lo] - width[lo]
            hi = int(np.searchsorted(ends, first + _PASS, "right"))
            take, w, stop = walks[lo:hi], width[lo:hi], ends[lo:hi] - first
            s = dist.sample(rng, int(stop[-1]))
            np.cumsum(s, out=s)
            # restart each slot's sums from its walk's last kept sum
            s -= np.repeat(np.concatenate(([0.0], s[stop[:-1] - 1])) - base[take], w)
            keep = s <= np.repeat(budgets[take], w)
            held += np.count_nonzero(keep)
            if held > MAX_EVENTS:
                raise CapExceededError("event count exceeds the cap")
            on = keep[stop - 1]
            base[take[on]] = s[stop[on] - 1]
            drawn[take] += w
            later.append(take[on])
            lo = hi
            yield np.repeat(take, w)[keep], s[keep]
        walks = np.concatenate(later)
        mean = budgets[walks] / dist.mu
        bound = _MAX_WIDTHS * (mean + 10.0 * np.sqrt(np.maximum(mean, 1.0) * var) + 32.0)
        stuck = walks[drawn[walks] > bound]
        if stuck.size:
            raise CapExceededError(
                f"walk of {dist.descriptor} did not pass budget {budgets[stuck[0]]:g} "
                f"within {_MAX_WIDTHS} times its sampling width"
            )


def _generations(dist, horizon, k_max, rng):
    """The one generation loop behind simulate_cmj and generation_counts.

    Yields (times, parent_rows) for generations 1..k_max, one at a time:
    the walks of generation g+1 start at the births of generation g, which
    is all it holds. parent_rows index the previous generation in the order
    of _walk_sums' passes. Raises CapExceededError when k_max exceeds
    MAX_GENERATIONS, when the expected or the running event count exceeds
    MAX_EVENTS, or when a walk cannot pass its budget.
    """
    horizon = real(horizon, "horizon", 0)
    k_max = count(k_max, "k_max", 1)
    if expected_event_count(dist, horizon, k_max) > MAX_EVENTS:
        raise CapExceededError("expected event count exceeds the cap")
    births = np.zeros(1)
    total = 0
    for _ in range(k_max):
        # a birth can pass the horizon by a rounding error; its budget is then 0
        walks = _walk_sums(dist, rng, np.maximum(horizon - births, 0.0), total)
        passes = [(np.empty(0, dtype=np.int64), np.empty(0))]
        passes += [(r, births[r] + s) for r, s in walks]
        rows, births = (np.concatenate(a) for a in zip(*passes))
        total += births.shape[0]
        yield births, rows


def simulate_cmj(
    dist: IncrementDistribution,
    horizon: float,
    k_max: int,
    rng: RngStream,
) -> CmjTrajectory:
    """Simulate generations 1..k_max up to the horizon.

    Generation-k_max individuals are leaves (their offspring are never
    drawn). Generations are sorted by birth time only for storage, so the
    draws are those of generation_counts at the same stream. Raises
    CapExceededError when the expected or actual event count exceeds
    MAX_EVENTS, or when the law's walk cannot pass its budget.
    """
    times, anc1 = [], []
    for g, (t, rows) in enumerate(_generations(dist, horizon, k_max, rng)):
        # anc stays in creation order, the order rows index into
        anc = np.arange(1, t.shape[0] + 1, dtype=np.int64) if g == 0 else anc[rows]
        order = np.argsort(t, kind="stable")
        times.append(t[order])
        anc1.append(anc[order])
    return CmjTrajectory(float(horizon), int(k_max), times, anc1)


def generation_counts(
    dist: IncrementDistribution,
    horizon: float,
    k_max: int,
    fractions,
    rng: RngStream,
) -> np.ndarray:
    """Generation-k births by time s * horizon, for k = 1..k_max and s in fractions.

    Returns a (k_max, len(fractions)) int64 array: entry [k-1, i] is
    count_generation(simulate_cmj(dist, horizon, k_max, rng), k,
    fractions[i] * horizon) for the same stream, found without sorting any
    generation.
    """
    fractions = grid(fractions, "fractions", 0, 1)
    gens = _generations(dist, horizon, k_max, rng)  # gates horizon before s * horizon is taken
    counts = [[np.count_nonzero(t <= s * horizon) for s in fractions] for t, _ in gens]
    return np.array(counts, dtype=np.int64)


def count_generation(traj: CmjTrajectory, k: int, t: float) -> int:
    """Number of generation-k births at or before time t."""
    k = count(k, "generation", 1, traj.k_max)
    t = real(t, "t", hi=traj.horizon + 1e-9 * max(1.0, traj.horizon))
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
    first). The heap serves one large tree; the registry grows its many
    small trees with _embedded_parent_matrix, whose rows equal this
    function's parent arrays on the same stream. Raises CapExceededError
    above MAX_EMBEDDED_BIRTHS births.
    """
    n = count(n, "n")
    if n > MAX_EMBEDDED_BIRTHS:
        raise CapExceededError(f"{n} births exceed the cap {MAX_EMBEDDED_BIRTHS}")
    parent = np.full(n + 1, -1, dtype=np.int32)
    birth_times = np.empty(n)
    if n:
        draws = rng.exponential(size=2 * n + 1)
        heap = [(draws[0], 0)]
        for i in range(1, n + 1):
            t, v = heapq.heappop(heap)
            parent[i] = v
            birth_times[i - 1] = t
            heapq.heappush(heap, (t + draws[2 * i - 1], v))
            heapq.heappush(heap, (t + draws[2 * i], i))
    return EmbeddedTree(RecursiveTree(parent), birth_times)


def _embedded_parent_matrix(n_trees: int, n: int, rng: RngStream) -> np.ndarray:
    """Parents of vertices 1..n for n_trees clock-grown trees, one tree per row.

    Races the clocks of all trees at once: clock[r, v] is the next firing
    time of vertex v in tree r, inf before v is born. Birth i goes to the
    earliest clock among vertices 0..i-1 of each row (the lowest index on
    a tie, as in the heap), which is then re-armed with a fresh draw, and
    the child is armed with the next. Row r takes the r-th 2n + 1 draws of
    one exponential draw, so it equals the parent array of the r-th of
    n_trees consecutive simulate_embedded_rrt(n, rng) calls; n = 0 draws
    nothing, as there. Costs O(n_trees * n^2).
    """
    parents = np.empty((n_trees, n), dtype=np.int64)
    if n == 0:
        return parents
    draws = rng.exponential(size=(n_trees, 2 * n + 1))
    clock = np.full((n_trees, n + 1), np.inf)
    clock[:, 0] = draws[:, 0]
    rows = np.arange(n_trees)
    for i in range(1, n + 1):
        v = clock[:, :i].argmin(axis=1)
        t = clock[rows, v]
        parents[:, i - 1] = v
        clock[rows, v] = t + draws[:, 2 * i - 1]
        clock[:, i] = t + draws[:, 2 * i]
    return parents


def renewal_count_samples(
    dist: IncrementDistribution, t: float, n_samples: int, rng: RngStream
) -> np.ndarray:
    """n_samples independent copies of the first-generation count at time t.

    Raises CapExceededError, before allocating, above MAX_EVENTS samples.
    """
    t = real(t, "t", 0)
    n_samples = count(n_samples, "n_samples")
    if n_samples > MAX_EVENTS:
        raise CapExceededError(f"{n_samples} samples exceed the cap {MAX_EVENTS}")
    counts = np.zeros(n_samples, dtype=np.int64)
    for rows, _ in _walk_sums(dist, rng, np.full(n_samples, t)):
        np.add.at(counts, rows, 1)
    return counts
