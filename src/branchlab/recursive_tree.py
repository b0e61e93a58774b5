"""Uniform random recursive trees and their level profiles.

A tree on V vertices is stored as a flat parent array: vertex 0 is the
root (parent entry -1), and parent[i] < i for i >= 1, so every prefix of
the vertex list is itself a recursive tree. Uniform attachment makes all
(V-1)! such trees equally likely. Depths are resolved in that order, so a
tree listed out of recursive order (say [-1, 2, 0]) is refused.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .rng import RngStream

MAX_TREE_VERTICES = 2**27
# grow_and_record's snapshot cells (grid points times levels): 2**20 of them
# take about 1.7 s and 120 MB through the profile-path CSV, start-up
# included (2 cores).
MAX_PATH_CELLS = 2**20

_ENUM_LIMIT = 9  # largest vertex count enumerated exactly: 8! sequences

_DRAW_BLOCK = 1 << 20  # parent draws per block in generate_rrt
_DEPTH_CHUNK = 1 << 16  # vertices per chunk in depths_from_parents


@dataclass(frozen=True)
class RecursiveTree:
    """Flat-array recursive tree; parent[0] is -1 and parent[i] < i."""

    parent: np.ndarray


@dataclass(frozen=True)
class ProfileVector:
    """Level occupancy counts of one tree; counts[0] is always 1 (the root)."""

    counts: np.ndarray


@dataclass(frozen=True)
class ProfilePath:
    """Level counts of one growing tree sampled at sizes floor(n_base**t).

    values[i, k-1] is the number of vertices at level k when the tree has
    sizes[i] vertices in total; levels run 1..k_max.
    """

    t_grid: np.ndarray
    sizes: np.ndarray
    values: np.ndarray


def depths_from_parents(parent: np.ndarray) -> np.ndarray:
    """Depth of every vertex, root = 0, resolved in recursive order.

    Vertices are taken in chunks [lo, hi) of at most _DEPTH_CHUNK. Every
    vertex whose parent lies below lo reads its depth off the finished
    prefix in one gather. The rest have their parent inside the chunk:
    pointer jumping (list ranking) over just those vertices sums the edges
    up to the first ancestor already resolved, so a chunk takes about
    log2 of its longest in-chunk chain passes. Depths go straight into
    the int64 result and every work array is at most chunk-sized.
    parent[0] is ignored; any other parent[i] outside 0..i-1 raises
    ValueError, so a tree must be listed in recursive order.
    """
    V = parent.shape[0]
    if V > MAX_TREE_VERTICES:
        raise CapExceededError(f"tree of {V} vertices exceeds the memory cap")
    depth = np.zeros(V, dtype=np.int64)
    for lo in range(1, V, _DEPTH_CHUNK):
        hi = min(lo + _DEPTH_CHUNK, V)
        p = parent[lo:hi].astype(np.intp, copy=False)
        if p.min() < 0 or np.any(p >= np.arange(lo, hi)):
            raise ValueError("parent of vertex i >= 1 must lie in 0..i-1")
        d = depth[lo:hi]
        np.add(depth[p], 1, out=d)  # final wherever the parent lies below lo
        inside = np.flatnonzero(p >= lo)
        if not inside.size:
            continue
        # jump slot 0 is a resolved sentinel (value 0, points at itself);
        # slot j + 1 holds inside[j], valued 1 + its parent's depth if that
        # parent is resolved, else 1
        up = p[inside] - lo
        slot = np.zeros(hi - lo, dtype=np.intp)
        slot[inside] = np.arange(1, inside.size + 1)
        d[inside] = 0
        val = np.zeros(inside.size + 1, dtype=np.int64)
        nxt = np.zeros(inside.size + 1, dtype=np.intp)
        val[1:] = d[up] + 1
        nxt[1:] = slot[up]
        while nxt.any():
            val += val[nxt]
            nxt = nxt[nxt]
        d[inside] = val[1:]
    return depth


def generate_rrt(n_plus_1: int, rng: RngStream) -> RecursiveTree:
    """Sample a uniform random recursive tree with n_plus_1 vertices."""
    if n_plus_1 < 1:
        raise ValueError("vertex count must be >= 1")
    if n_plus_1 > MAX_TREE_VERTICES:
        raise CapExceededError(f"tree of {n_plus_1} vertices exceeds the memory cap")
    parent = np.empty(n_plus_1, dtype=np.int64)
    parent[0] = -1
    # blockwise draws consume the stream exactly as one full-length draw
    for lo in range(1, n_plus_1, _DRAW_BLOCK):
        hi = min(lo + _DRAW_BLOCK, n_plus_1)
        parent[lo:hi] = rng.integers(0, np.arange(lo, hi))
    return RecursiveTree(parent)


def profile(tree: RecursiveTree) -> ProfileVector:
    """Level occupancy counts of the whole tree."""
    return ProfileVector(np.bincount(depths_from_parents(tree.parent)))


def generate_parent_matrix(n_batch: int, n_plus_1: int, rng: RngStream) -> np.ndarray:
    """Parent choices for n_batch independent trees of common size.

    Row r, column i holds the parent of vertex i+1 in tree r. Raises
    CapExceededError, before any draw, when the matrix, or one row of it,
    would hold more than MAX_TREE_VERTICES parents.
    """
    if n_batch < 0:
        raise ValueError("n_batch must be >= 0")
    if max(n_batch, 1) * (n_plus_1 - 1) > MAX_TREE_VERTICES:
        raise CapExceededError(
            f"{n_batch} trees of {n_plus_1} vertices exceed the cap {MAX_TREE_VERTICES}"
        )
    if n_plus_1 < 2:
        return np.empty((n_batch, 0), dtype=np.int64)
    return rng.integers(0, np.arange(1, n_plus_1), size=(n_batch, n_plus_1 - 1))


def _level_masks(parents: np.ndarray, k_max: int):
    """Yield the level-k masks of vertices 1..V-1 for k = 1..k_max.

    parents holds the parents of vertices 1..V-1 along its last axis: one
    tree, or one tree per row. Level 1 is the children of the root; the
    level-k mask is the level-(k-1) mask gathered through the parent array.
    The walk stops at the first empty level.
    """
    mask = np.zeros(parents.shape[:-1] + (parents.shape[-1] + 1,), dtype=bool)
    child = parents == 0
    for k in range(k_max):
        if k:
            mask[..., 1:] = child
            child = np.take_along_axis(mask, parents, axis=-1)
        if not child.any():
            return
        yield child


def level_counts_batch(parents: np.ndarray, k_max: int) -> np.ndarray:
    """Counts at levels 1..k_max for every row of a parent matrix.

    Raises CapExceededError, before allocating, when the counts would hold
    more than MAX_TREE_VERTICES cells.
    """
    if parents.shape[0] * k_max > MAX_TREE_VERTICES:
        raise CapExceededError(
            f"{parents.shape[0]} trees times {k_max} levels exceed the cap {MAX_TREE_VERTICES}"
        )
    out = np.zeros((parents.shape[0], k_max), dtype=np.int64)
    for k, mask in enumerate(_level_masks(parents, k_max), start=1):
        out[:, k - 1] = np.count_nonzero(mask, axis=1)
    return out


def _power_size(n_base: int, t: float) -> int:
    """floor(n_base**t) with a snap-upward guard for floating drift.

    Values within a relative 1e-9 of an integer are treated as that
    integer, so mathematically integral powers are never truncated down.
    """
    x = math.exp(t * math.log(n_base))
    r = round(x)
    if abs(x - r) <= 1e-9 * max(1.0, x):
        return int(r)
    return int(math.floor(x))


def grow_and_record(n_base: int, t_grid, k_max: int, rng: RngStream) -> ProfilePath:
    """Grow one tree and snapshot levels 1..k_max at sizes floor(n_base**t).

    The same realization is used for every snapshot: the size-s prefix of
    the final parent array is the tree after s vertices were attached.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid entries must be finite")
    if np.any(t_grid < 0):
        raise ValueError("t_grid entries must be >= 0")
    if t_grid.size > 1 and np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if n_base < 2:
        raise ValueError("n_base must be >= 2")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if t_grid.size * k_max > MAX_PATH_CELLS:
        raise CapExceededError(
            f"{t_grid.size} grid points times {k_max} levels exceed the cap {MAX_PATH_CELLS}"
        )

    t_last = float(t_grid[-1])
    if t_last * math.log(n_base) > math.log(MAX_TREE_VERTICES) + 1.0:  # before exp can overflow
        raise CapExceededError(
            f"final tree size {n_base}**{t_last} exceeds the cap {MAX_TREE_VERTICES}"
        )
    sizes = np.array([_power_size(n_base, t) for t in t_grid], dtype=np.int64)
    total = int(sizes[-1])
    if total > MAX_TREE_VERTICES:
        raise CapExceededError(f"final tree size {total} exceeds the cap {MAX_TREE_VERTICES}")

    tree = generate_rrt(total, rng)
    values = np.zeros((t_grid.size, k_max), dtype=np.int64)
    for k, mask in enumerate(_level_masks(tree.parent[1:], k_max), start=1):
        # vertices at level k, in insertion order
        values[:, k - 1] = np.searchsorted(np.flatnonzero(mask) + 1, sizes, side="left")
    return ProfilePath(t_grid, sizes, values)


def exact_profile_distribution(n_plus_1: int) -> dict[tuple[int, ...], float]:
    """Exact pmf of the level-count vector by enumerating attachment sequences.

    Keys are (count at level 1, ..., count at level n) with n = n_plus_1 - 1;
    each of the (n_plus_1 - 1)! attachment sequences is equally likely.
    Limited to n_plus_1 <= 9.
    """
    if not 1 <= n_plus_1 <= _ENUM_LIMIT:
        raise ValueError(f"exact enumeration supports 1..{_ENUM_LIMIT} vertices")
    n = n_plus_1 - 1
    if n == 0:
        return {(): 1.0}
    tallies: dict[tuple[int, ...], int] = {}
    for choice in itertools.product(*(range(i) for i in range(1, n + 1))):
        depth = [0] * (n + 1)
        counts = [0] * n
        for i, p in enumerate(choice, start=1):
            d = depth[p] + 1
            depth[i] = d
            counts[d - 1] += 1
        key = tuple(counts)
        tallies[key] = tallies.get(key, 0) + 1
    total = math.factorial(n)
    return {key: c / total for key, c in tallies.items()}


def level1_moments(n: int) -> tuple[float, float]:
    """Exact mean and variance of the number of root children after n attachments.

    Attachment m hits the root independently with probability 1/m, so the
    mean is the harmonic number H_n and the variance is sum (1/m)(1 - 1/m).
    Raises CapExceededError, before summing, when the tree of n + 1 vertices
    exceeds MAX_TREE_VERTICES, as generate_rrt does.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n + 1 > MAX_TREE_VERTICES:
        raise CapExceededError(f"tree of {n + 1} vertices exceeds the memory cap")
    mean = math.fsum(1.0 / m for m in range(1, n + 1))
    var = math.fsum(1.0 / m - 1.0 / m**2 for m in range(1, n + 1))
    return mean, var
