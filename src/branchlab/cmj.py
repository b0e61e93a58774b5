"""Branching counts generated by positive random walks, truncated at a horizon.

Generation 1 is the walk's partial-sum sequence up to the horizon; each
individual born at time s starts an independent copy of the walk, shifted
by s, to produce the next generation. Trajectories record, per generation,
the sorted birth times, the index of the first-generation ancestor, and the
parent's position in the previous generation.

All walks of one generation are cut from a single flat stream of
increments. With C the cumulative sum of the stream, the walk of a parent
born at b starts at some index s and keeps the sums C[i] - C[s] up to
horizon - b; the first index q past that ends it, and the next parent's
walk starts at q. Each q is a stopping time of an i.i.d. sequence, so the
increments after it are fresh and independent of everything before (Gut,
Stopped Random Walks, 2nd ed., Springer 2009): the walks are independent
copies, and each draws only one increment that it does not keep. Parents
are taken in creation order and the last generation is counted straight
off the stream with searchsorted, so counting needs no sort.

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
import math
from dataclasses import dataclass

import numpy as np

from .distributions import IncrementDistribution
from .errors import CapExceededError, TableCoverageError
from .recursive_tree import RecursiveTree
from .renewal import RenewalTable
from .rng import RngStream

MAX_EVENTS = 2**28
# With m = horizon/mu, a run of k_max >= 40 generations and m >= 20 expects
# about e**20 > MAX_EVENTS events. So every admitted run that deep has
# m < 20, and generation 2**10 expects fewer than 1e-1000 events: a larger
# k_max would only loop over empty generations.
MAX_GENERATIONS = 2**10
# The embedded tree's heap holds one Python tuple per vertex: a birth costs
# about 10 us and 150 bytes, so 2**22 births take about 45 s and 650 MB.
MAX_EMBEDDED_BIRTHS = 2**22
# The increment stream is drawn in chunks of at most this many values, so
# extending it costs at most a few MB beyond the walks it must hold.
_CHUNK = 1 << 18
# A walk may draw up to 8 times its 10-sigma width. That covers laws as
# skewed as gamma(1e-3,1e-3) at small budgets; a law that needs more cannot
# pass its budget in bounded memory.
_MAX_WIDTHS = 8


class CmjTrajectory:
    """Events of one truncated branching run, grouped by generation.

    times[g] and anc1[g] describe generation g+1, each sorted by birth time
    (ties keep creation order). anc1 labels each event with its
    generation-1 ancestor, 1 + that ancestor's index in times[0].
    """

    __slots__ = ("dist", "horizon", "k_max", "times", "anc1")

    def __init__(self, dist, horizon, k_max, times, anc1):
        self.dist = dist
        self.horizon = float(horizon)
        self.k_max = int(k_max)
        self.times = times
        self.anc1 = anc1

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
    """Leading-order estimate sum_k (horizon/mu)^k / k! used for the cap check.

    Each term is the last one times m/k, so a sum past the double range
    reads inf rather than raising OverflowError.
    """
    m = horizon / dist.mu
    total, term = 0.0, 1.0
    for k in range(1, k_max + 1):
        term *= m / k
        total += term
    return total


def _walk_stream(dist: IncrementDistribution, rng: RngStream, budgets):
    """Cut one flat stream of increments into independent walks, one per budget.

    Yields (lo, C, s, q) for consecutive row blocks. C holds partial sums
    of the stream. Row lo + i is the walk C[s[i] + 1 :] - C[s[i]]; its
    sums within budgets[lo + i] are C[s[i] + 1 : q[i]] - C[s[i]], and
    C[q[i]] is the first sum past it. The next walk starts there:
    s[i + 1] == q[i]. Each q[i] is a stopping time of the i.i.d. increment
    sequence, so the increments after it are fresh and the walks are
    independent copies. Only the overshoot increment of each walk and the
    unused tail of the last chunk are wasted.

    The stream grows in chunks of at most _CHUNK increments, sized by the
    draws still expected; the buffer of a single walk longer than that
    grows geometrically. Budgets must be finite and >= 0. A walk expected
    to take more than MAX_EVENTS steps is refused up front, and one still
    within its budget after _MAX_WIDTHS times its 10-sigma width cannot
    pass it in bounded memory: both raise CapExceededError.
    """
    budgets = np.asarray(budgets, dtype=float)
    if not np.all(np.isfinite(budgets) & (budgets >= 0.0)):
        raise ValueError("walk budgets must be finite and >= 0")
    n = budgets.shape[0]
    mean = budgets / dist.mu
    if n and mean.max() > MAX_EVENTS:
        raise CapExceededError(f"a walk of {dist.descriptor} expects more than {MAX_EVENTS} steps")
    var = np.maximum(mean, 1.0) * (dist.sigma2 / dist.mu**2)
    bound = _MAX_WIDTHS * (mean + 10.0 * np.sqrt(var) + 32.0)
    # draws expected from row j on (sums kept plus one overshoot each), 3 sigma high
    need = np.cumsum((mean + 1.0)[::-1])[::-1] + 3.0 * np.sqrt(np.cumsum(var[::-1])[::-1]) + 32.0
    b = budgets.tolist()
    C = np.zeros(1)
    j = 0
    while j < n:
        have = C.shape[0]
        if have < _CHUNK:
            size = int(min(max(need[j] - have, have), _CHUNK))
        else:  # walk j alone fills the buffer: grow it by half or more, not past its bound
            size = int(min(max(need[j] - have, have // 2), bound[j] + 1 - have))
        step = dist.sample(rng, size)
        np.cumsum(step, out=step)
        step += C[-1]
        C = np.concatenate((C, step))
        del step  # from here only C holds the chunk
        search, item = C.searchsorted, C.item
        end = C.shape[0]
        cuts = [0]
        s = 0
        i = j
        while i < n:
            q = search(item(s) + b[i], "right")
            if q == end:
                break
            cuts.append(q)
            s = q
            i += 1
        if i > j:
            cuts = np.array(cuts)
            yield j, C, cuts[:-1], cuts[1:]
            C = C[s:]
            j = i
        if j < n and C.shape[0] > bound[j]:
            raise CapExceededError(
                f"walk of {dist.descriptor} did not pass budget {b[j]:g} "
                f"within {_MAX_WIDTHS} times its sampling width"
            )


def _kept_sums(C, s, q):
    """Row and partial sum of every kept step in one _walk_stream block, row-major."""
    n = q - s - 1
    rows = np.repeat(np.arange(n.shape[0]), n)
    first = np.repeat(s + 1 - (np.cumsum(n) - n), n)
    return rows, C[np.arange(rows.shape[0]) + first] - np.repeat(C[s], n)


def _generations(dist, horizon, k_max, rng, leaf=None):
    """The one generation loop behind simulate_cmj and generation_counts.

    Draws generations 1..k_max parent-major: the parents of generation g+1
    are generation g in creation order. Returns [(times, parent_rows)] per
    generation in creation order. Given leaf, the last generation is not
    built: its _walk_stream blocks go to leaf(births, lo, C, s, q) instead.
    Raises CapExceededError when k_max exceeds MAX_GENERATIONS, when the
    expected or the running event count exceeds MAX_EVENTS, or when a walk
    cannot pass its budget.
    """
    if not horizon >= 0:
        raise ValueError("horizon must be >= 0")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > MAX_GENERATIONS:
        raise CapExceededError(f"{k_max} generations exceed the cap {MAX_GENERATIONS}")
    if expected_event_count(dist, horizon, k_max) > MAX_EVENTS:
        raise CapExceededError("expected event count exceeds the cap")
    births = np.zeros(1)
    built = []
    total = 0
    for g in range(1, k_max + 1):
        times, rows = [np.empty(0)], [np.empty(0, dtype=np.int64)]
        # a birth can pass the horizon by a rounding error; its budget is then 0
        for lo, C, s, q in _walk_stream(dist, rng, np.maximum(horizon - births, 0.0)):
            total += int(q[-1] - s[0]) - s.shape[0]
            if total > MAX_EVENTS:
                raise CapExceededError("event count exceeds the cap")
            if g == k_max and leaf is not None:
                leaf(births, lo, C, s, q)
                continue
            r, sums = _kept_sums(C, s, q)
            times.append(births[lo + r] + sums)
            rows.append(lo + r)
        if g < k_max or leaf is None:
            births = np.concatenate(times)
            built.append((births, np.concatenate(rows)))
    return built


def simulate_cmj(
    dist: IncrementDistribution,
    horizon: float,
    k_max: int,
    rng: RngStream,
) -> CmjTrajectory:
    """Simulate generations 1..k_max up to the horizon.

    Generation-k_max individuals are leaves (their offspring are never
    drawn). Generations are drawn parent-major in creation order and
    sorted by birth time only for storage, so the draws are those of
    generation_counts at the same stream. Raises CapExceededError when the
    expected or actual event count exceeds MAX_EVENTS, or when the law's
    walk cannot pass its budget.
    """
    times, anc1 = [], []
    for g, (t, rows) in enumerate(_generations(dist, horizon, k_max, rng)):
        # anc stays in creation order, the order rows index into
        anc = np.arange(1, t.shape[0] + 1, dtype=np.int64) if g == 0 else anc[rows]
        order = np.argsort(t, kind="stable")
        times.append(t[order])
        anc1.append(anc[order])
    return CmjTrajectory(dist, horizon, k_max, times, anc1)


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
    generation or building the last one. The last generation is compared
    on the stream's partial sums, not on stored birth times; the two round
    differently only for a birth within a few ulps of the query time.
    """
    fractions = np.asarray(fractions, dtype=float)
    if fractions.ndim != 1 or not np.all((fractions >= 0.0) & (fractions <= 1.0)):
        raise ValueError("fractions must be a 1-d sequence in [0, 1]")
    query = fractions * horizon
    last = np.zeros(query.shape[0], dtype=np.int64)

    def count_leaves(births, lo, C, s, q):
        v = C[s, None] + (query - births[lo : lo + s.shape[0], None])
        last[:] += np.maximum(np.searchsorted(C, v, "right") - s[:, None] - 1, 0).sum(axis=0)

    built = _generations(dist, horizon, k_max, rng, count_leaves)
    out = np.empty((k_max, query.shape[0]), dtype=np.int64)
    for g, (t, _) in enumerate(built):
        out[g] = np.count_nonzero(t[:, None] <= query, axis=0)
    out[-1] = last
    return out


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
    first). The heap serves one large tree; the registry grows its many
    small trees with _embedded_parent_matrix, whose rows equal this
    function's parent arrays on the same stream. Raises CapExceededError
    above MAX_EMBEDDED_BIRTHS births.
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
    draws = rng.gen.exponential(size=(n_trees, 2 * n + 1))
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
    """n_samples independent copies of the first-generation count at time t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    out = np.empty(n_samples, dtype=np.int64)
    for lo, _, s, q in _walk_stream(dist, rng, np.full(n_samples, float(t))):
        out[lo : lo + s.shape[0]] = q - s - 1
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
    if table.dist != traj.dist:
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
