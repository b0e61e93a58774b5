import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from branchlab import recursive_tree
from branchlab.recursive_tree import (
    _DEPTH_CHUNK,
    _DRAW_BLOCK,
    MAX_TREE_VERTICES,
    RecursiveTree,
    depths_from_parents,
    exact_profile_distribution,
    generate_parent_matrix,
    generate_rrt,
    grow_and_record,
    level1_moments,
    level_counts_batch,
    profile,
)
from branchlab.errors import CapExceededError
from branchlab.rng import RngStream
from branchlab.stat_tests import ks_two_sample
from branchlab.verify import _tree_batch_task


def test_single_vertex_tree():
    tree = generate_rrt(1, RngStream(0, 0))
    assert tree.parent.tolist() == [-1]
    p = profile(tree)
    assert p.counts.tolist() == [1]


def test_two_vertex_tree_is_forced():
    tree = generate_rrt(2, RngStream(0, 0))
    assert tree.parent.tolist() == [-1, 0]
    assert profile(tree).counts.tolist() == [1, 1]


def test_parent_indices_always_precede_children():
    for seed in range(5):
        tree = generate_rrt(200, RngStream(seed, 0))
        idx = np.arange(200)
        assert tree.parent[0] == -1
        assert np.all(tree.parent[1:] < idx[1:] + 1)
        assert np.all(tree.parent[1:] >= 0)


def test_profile_counts_sum_to_size():
    for seed in range(5):
        tree = generate_rrt(300, RngStream(seed, 1))
        p = profile(tree)
        assert int(p.counts.sum()) == 300
        assert p.counts[0] == 1
        # a vertex at depth d has ancestors at every depth below d
        assert np.all(p.counts >= 1)


def test_depths_match_naive_walk():
    parents = [(generate_rrt(64, RngStream(seed, 2)).parent, np.uint8) for seed in range(4)]
    # path: height V-1, the most passes
    parents.append((np.arange(-1, 99, dtype=np.int64), np.uint8))
    parents.append((np.r_[-1, np.zeros(99, dtype=np.int64)], np.uint8))  # star
    parents.append((np.array([-1], dtype=np.int64), np.uint8))
    parents.append((np.array([-1, 0], dtype=np.int64), np.uint8))
    # the widening boundary: height 254 still fits a byte, height 255 does not
    parents.append((np.arange(-1, 254, dtype=np.int64), np.uint8))
    parents.append((np.arange(-1, 255, dtype=np.int64), np.int32))
    for parent, dtype in parents:
        d = depths_from_parents(parent)
        naive = np.zeros(parent.shape[0], dtype=np.int64)
        for i in range(1, parent.shape[0]):
            naive[i] = naive[parent[i]] + 1
        assert d.dtype == dtype, parent.shape[0]
        assert np.array_equal(d, naive)


def _naive_depths(parent):
    naive = [0] * len(parent)
    for i, p in enumerate(parent[1:].astype(np.int64).tolist(), start=1):
        naive[i] = naive[p] + 1
    return np.array(naive, dtype=np.int64)


def _chunk_spanning_shapes():
    V = 3 * _DEPTH_CHUNK + 123  # four chunks, the last one partial
    starts = np.arange(1, V, _DEPTH_CHUNK)
    chains = np.arange(-1, V - 1, dtype=np.int64)
    chains[starts] = 0  # one in-chunk chain per chunk, hung off the root
    relay = np.arange(-1, V - 1, dtype=np.int64)
    relay[starts[1:]] = starts[1:] - _DEPTH_CHUNK // 2  # chains hung mid-chain
    uniform = generate_rrt(V, RngStream(9, 0)).parent
    # a star for two chunks, then a 300-long chain in the third: the depths
    # widen after a uint8 prefix is already filled
    late_deep = np.r_[-1, np.zeros(2 * _DEPTH_CHUNK, dtype=np.int64),
                      np.arange(2 * _DEPTH_CHUNK, 2 * _DEPTH_CHUNK + 300)]
    return {
        "uniform": uniform,
        "uniform as int64": uniform.astype(np.int64),
        "path": np.arange(-1, V - 1, dtype=np.int64),  # deepest level in the last chunk only
        "star": np.r_[-1, np.zeros(V - 1, dtype=np.int64)],
        "chains": chains,
        "relay": relay,
        "late deep": late_deep,
        "root alone": np.array([-1], dtype=np.int64),
    }


def test_depths_match_naive_walk_across_chunks():
    deep = {"path", "chains", "relay", "late deep"}  # heights past 254
    for name, parent in _chunk_spanning_shapes().items():
        d = depths_from_parents(parent)
        assert d.dtype == (np.int32 if name in deep else np.uint8), name
        assert np.array_equal(d, _naive_depths(parent)), name


def test_profile_matches_a_bincount_of_the_naive_depths():
    for name, parent in _chunk_spanning_shapes().items():
        counts = profile(RecursiveTree(parent)).counts
        assert counts.dtype == np.int64, name
        assert np.array_equal(counts, np.bincount(_naive_depths(parent))), name


def test_profile_refuses_a_tree_without_its_root():
    with pytest.raises(ValueError):
        profile(RecursiveTree(np.empty(0, dtype=np.int32)))


def test_depths_reject_trees_out_of_recursive_order():
    # a valid tree (vertex 2 is the root's child, vertex 1 its child) that
    # is not listed in recursive order
    with pytest.raises(ValueError):
        depths_from_parents(np.array([-1, 2, 0], dtype=np.int64))
    parent = np.arange(-1, 2 * _DEPTH_CHUNK, dtype=np.int64)
    parent[_DEPTH_CHUNK + 5] = _DEPTH_CHUNK + 6  # forward edge in the second chunk
    parent[_DEPTH_CHUNK + 6] = 0
    with pytest.raises(ValueError):
        depths_from_parents(parent)


def test_depths_take_a_list_of_parents():
    d = depths_from_parents([-1, 0])
    assert d.dtype == np.uint8
    assert d.tolist() == [0, 1]


@pytest.mark.parametrize(
    "parent",
    [
        [-1, 0.5, 1.9],  # would truncate to the tree [-1, 0, 1]
        np.array(["-1", "0"]),
        np.array([[-1, 0], [-1, 0]]),
        generate_rrt(3 * _DEPTH_CHUNK + 123, RngStream(9, 0)).parent.astype(np.float64),
    ],
    ids=["fractional", "strings", "2-d", "float64 across chunks"],
)
def test_depths_refuse_parents_that_are_not_a_1d_integer_array(parent):
    with pytest.raises(ValueError, match="1-d integer array"):
        depths_from_parents(parent)
    with pytest.raises(ValueError, match="1-d integer array"):
        profile(RecursiveTree(parent))


def test_depths_reject_parents_that_are_not_a_tree():
    # a cycle that never reaches the root, then indices outside 0..V-1
    for bad in ([-1, 2, 1], [-1, 1], [-1, 5], [-1, 0, -1], [-1, 0, 2**32]):
        with pytest.raises(ValueError):
            depths_from_parents(np.array(bad, dtype=np.int64))


def test_depths_refuse_more_vertices_than_int32_work_arrays_hold():
    # a zero-stride view: the shape is checked before any allocation
    too_big = np.broadcast_to(np.int64(0), (MAX_TREE_VERTICES + 1,))
    with pytest.raises(CapExceededError):
        depths_from_parents(too_big)


def test_depths_peak_memory_stays_below_twice_the_input():
    parent = generate_rrt(10**6, RngStream(3, 0)).parent
    tracemalloc.start()
    try:
        depths_from_parents(parent)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * parent.nbytes


_DEPTH_PASS_PROBE = """
from branchlab.recursive_tree import generate_rrt, grow_and_record, profile
from branchlab.rng import RngStream
with open("/proc/self/status") as f:
    print(next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) // 1024)
{call}
"""


@pytest.mark.parametrize(
    "call",
    [
        "profile(generate_rrt(2**22, RngStream(0, 0)))",
        "grow_and_record(2**22, (0.5, 1.0), 3, RngStream(0, 0))",
    ],
    ids=["profile", "grow_and_record"],
)
def test_depth_pass_holds_one_byte_of_depth_per_vertex(fresh_peak_mb, call):
    # above the peak after imports, the int32 parents and uint8 depths take
    # 20 MB at 2**22 vertices and profile reads 23 MB; an int32 depth array
    # would read 36 MB. grow_and_record holds no parent array: its uint8
    # depths, one level mask and one level's indices read about 9 MB, and a
    # parent array beside the depths would read 22 MB
    (imported,), peak = fresh_peak_mb(_DEPTH_PASS_PROBE.format(call=call))
    assert peak - int(imported) < (28 if call.startswith("profile") else 14)


def _level_scans(depth, sizes, k_max):
    return [[int(np.count_nonzero(depth[:s] == k)) for k in range(1, k_max + 1)] for s in sizes]


@pytest.mark.parametrize(
    "total",
    [1, 2, _DRAW_BLOCK, _DRAW_BLOCK + 1, _DRAW_BLOCK + 2, 3 * _DRAW_BLOCK + 7],
)
def test_grow_and_record_resolves_the_tree_generate_rrt_draws(total):
    # the blocks are drawn on a helper thread while the block before has its
    # depths resolved; the tree and its counts are those of the one-shot route
    grid = (0.0,) if total == 1 else (0.5, 1.0)
    path = grow_and_record(max(total, 2), grid, 4, RngStream(31, 0))
    assert int(path.sizes[-1]) == total
    depth = depths_from_parents(generate_rrt(total, RngStream(31, 0)).parent)
    assert path.values.tolist() == _level_scans(depth, path.sizes.tolist(), 4)


def test_a_failing_draw_propagates_and_leaves_no_thread(monkeypatch):
    threads = threading.active_count()
    grow_and_record(3 * _DRAW_BLOCK, (1.0,), 2, RngStream(5, 0))
    assert threading.active_count() == threads
    draws = []
    integers = RngStream.integers

    def integers_failing_on_the_third_block(self, *args, **kwargs):
        draws.append(threading.current_thread())
        if len(draws) == 3:
            raise RuntimeError("draw failed")
        return integers(self, *args, **kwargs)

    monkeypatch.setattr(RngStream, "integers", integers_failing_on_the_third_block)
    with pytest.raises(RuntimeError, match="draw failed"):
        grow_and_record(3 * _DRAW_BLOCK, (1.0,), 2, RngStream(5, 0))
    assert len(draws) == 3
    # one helper made every block, and it is gone
    assert len(set(draws)) == 1 and draws[0] is not threading.current_thread()
    assert threading.active_count() == threads


def test_a_closed_prefetch_joins_its_helper():
    threads = threading.active_count()
    made = []

    def items():
        for i in range(10):
            made.append(i)
            yield i

    ahead = recursive_tree._ahead(items())
    assert [next(ahead), next(ahead)] == [0, 1]
    ahead.close()
    assert threading.active_count() == threads
    # only the item after the last one taken was made ahead
    assert made == [0, 1, 2]


def test_concurrent_grows_with_fast_thread_switches_draw_their_own_trees():
    # four callers, each with its own stream and helper, on fewer cores; a
    # block drawn out of order or on two threads at once would change a tree
    total = 3 * _DRAW_BLOCK + 7
    want = {
        seed: depths_from_parents(generate_rrt(total, RngStream(seed, 0)).parent)
        for seed in range(4)
    }
    got = {}

    def grow(seed):
        got[seed] = grow_and_record(total, (0.5, 1.0), 4, RngStream(seed, 0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=grow, args=(seed,)) for seed in want]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for seed, depth in want.items():
        path = got[seed]
        assert path.values.tolist() == _level_scans(depth, path.sizes.tolist(), 4)


def test_blockwise_parent_draws_equal_one_full_draw():
    V = 2 * _DRAW_BLOCK + 12_345
    tree = generate_rrt(V, RngStream(7, 0))
    full = RngStream(7, 0).integers(0, np.arange(1, V))
    assert tree.parent.dtype == np.int32
    assert tree.parent[0] == -1
    assert np.array_equal(tree.parent[1:], full)


def test_level_counts_batch_matches_per_tree_profiles():
    rng = RngStream(5, 0)
    parents = generate_parent_matrix(50, 30, rng)
    batch = level_counts_batch(parents, 6)
    for r in range(50):
        full = np.full(30, -1, dtype=np.int64)
        full[1:] = parents[r]
        d = depths_from_parents(full)
        for k in range(1, 7):
            assert batch[r, k - 1] == np.count_nonzero(d == k)


@pytest.mark.parametrize("rows, n_plus_1", [(1, 3000), (2, 700), (200, 60)])
def test_level_counts_batch_matches_one_row_at_a_time(rows, n_plus_1):
    parents = generate_parent_matrix(rows, n_plus_1, RngStream(rows, 4))
    for k_max in (1, 2, 40):
        want = np.zeros((rows, k_max), dtype=np.int64)
        for r in range(rows):
            counts = np.bincount(depths_from_parents(np.concatenate(([-1], parents[r]))))
            levels = counts[1 : k_max + 1]
            want[r, : levels.shape[0]] = levels
        assert want[:, -1].any() == (k_max < 40)  # 40 levels pass every height
        for dtype in (np.int32, np.int64, np.uint64):
            assert np.array_equal(level_counts_batch(parents.astype(dtype), k_max), want)


def test_parent_matrix_past_the_vertex_cap_is_refused_before_drawing(monkeypatch):
    monkeypatch.setattr(recursive_tree, "MAX_TREE_VERTICES", 100)
    rng = RngStream(5, 1)
    assert generate_parent_matrix(10, 11, rng).shape == (10, 10)  # at the cap
    for n_batch, n_plus_1 in ((11, 11), (10, 12), (0, 102), (10**7, 10**7)):
        with pytest.raises(CapExceededError):
            generate_parent_matrix(n_batch, n_plus_1, rng)
    with pytest.raises(ValueError, match="n_batch"):
        generate_parent_matrix(-1, 11, rng)
    ref = RngStream(5, 1)
    ref.integers(0, np.arange(1, 11), size=(10, 10))
    assert rng.random() == ref.random()  # the refusals drew nothing


def test_level_counts_batch_past_the_cap_is_refused_before_allocating(monkeypatch):
    parents = generate_parent_matrix(20, 30, RngStream(5, 2))
    monkeypatch.setattr(recursive_tree, "MAX_TREE_VERTICES", 100)
    assert level_counts_batch(parents, 5).shape == (20, 5)  # at the cap
    for k_max in (6, 10**12):
        with pytest.raises(CapExceededError):
            level_counts_batch(parents, k_max)


@pytest.mark.parametrize(
    "parents",
    [
        [[0, 7]],  # past the vertices already attached
        [[0, -1]],  # would wrap around to the last vertex
        [[2, 1]],  # a cycle
        [[2, 0]],  # out of recursive order
        [[0.5, 0]],  # not an integer
        [0, 0],  # not a matrix
    ],
)
def test_level_counts_batch_refuses_malformed_parent_matrices(parents):
    with pytest.raises(ValueError):
        level_counts_batch(np.array(parents), 3)


def test_tree_batch_task_level1_counts_root_children():
    got = _tree_batch_task(RngStream(11, 3), n_plus_1=400, k_hi=1, n_trees=20)
    parents = generate_parent_matrix(20, 400, RngStream(11, 3))
    assert got.shape == (20, 1)
    assert np.array_equal(got[:, 0], np.count_nonzero(parents == 0, axis=1))


@pytest.mark.parametrize("n_plus_1", [1, 2, _DRAW_BLOCK + 3])
def test_one_row_parent_matrix_draws_the_tree(n_plus_1):
    # verify draws its single trees as one-row batches: same stream, same tree
    row = generate_parent_matrix(1, n_plus_1, RngStream(13, 1))[0]
    assert np.array_equal(row, generate_rrt(n_plus_1, RngStream(13, 1)).parent[1:])


def test_exact_distribution_three_vertices():
    dist = exact_profile_distribution(3)
    assert dist == {(2, 0): pytest.approx(0.5), (1, 1): pytest.approx(0.5)}


def test_exact_distribution_normalizes():
    for n_plus_1 in range(1, 8):
        dist = exact_profile_distribution(n_plus_1)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        for key in dist:
            assert len(key) == n_plus_1 - 1
            assert sum(key) == n_plus_1 - 1


def test_exact_distribution_rejects_large_input():
    with pytest.raises(ValueError):
        exact_profile_distribution(10)


def test_level1_moments_small_values():
    mean2, var2 = level1_moments(2)
    assert mean2 == pytest.approx(1.5)
    assert var2 == pytest.approx(0.25)
    mean4, _ = level1_moments(4)
    assert mean4 == pytest.approx(25.0 / 12.0)


def test_level1_moments_past_the_vertex_cap_are_refused(monkeypatch):
    monkeypatch.setattr(recursive_tree, "MAX_TREE_VERTICES", 100)
    mean, _ = level1_moments(99)  # a tree of 100 vertices, at the cap
    assert mean == pytest.approx(math.fsum(1.0 / m for m in range(1, 100)))
    for n in (100, 10**12):
        with pytest.raises(CapExceededError):
            level1_moments(n)


def test_empirical_profile_close_to_enumeration():
    m = 20_000
    rng = RngStream(17, 0)
    counts = level_counts_batch(generate_parent_matrix(m, 4, rng), 3)
    keys, tallies = np.unique(counts, axis=0, return_counts=True)
    emp = {tuple(int(v) for v in row): c / m for row, c in zip(keys, tallies)}
    exact = exact_profile_distribution(4)
    support = set(emp) | set(exact)
    tv = 0.5 * sum(abs(emp.get(k, 0.0) - exact.get(k, 0.0)) for k in support)
    assert tv < 0.02


def test_grow_and_record_snapshots():
    t_grid = np.array([0.0, 0.5, 1.0])
    path = grow_and_record(100, t_grid, 3, RngStream(23, 0))
    assert path.sizes.tolist() == [1, 10, 100]
    assert path.values.shape == (3, 3)
    # the root alone has no vertices at positive levels
    assert path.values[0].tolist() == [0, 0, 0]
    # level counts only grow with the tree
    assert np.all(np.diff(path.values, axis=0) >= 0)
    # every snapshot is the level count of a prefix of the final tree. The
    # second input spans depth chunks (90 000 vertices), and its first
    # snapshots are shallower than k_max; the third has a size-1 snapshot
    # and levels past the final tree's height
    cases = (
        (100, t_grid, 3, 23),
        (300, (0.0, 0.5, 1.0, 1.5, 2.0), 12, 8),
        (3, (0.0, 0.5, 1.0, 2.0), 5, 4),
    )
    for n_base, grid, k_max, seed in cases:
        path = grow_and_record(n_base, np.array(grid), k_max, RngStream(seed, 0))
        parent = generate_rrt(int(path.sizes[-1]), RngStream(seed, 0)).parent
        for size, values in zip(path.sizes.tolist(), path.values):
            assert values.tolist() == level_counts_batch(parent[None, 1:size], k_max)[0].tolist()
    assert path.sizes.tolist() == [1, 1, 3, 9]
    assert path.values[:, -1].tolist() == [0, 0, 0, 0]


def test_grow_and_record_power_sizes_snap():
    # 10**3 must give exactly 1000 even with floating-point drift
    path = grow_and_record(10, np.array([3.0]), 2, RngStream(1, 0))
    assert path.sizes.tolist() == [1000]


def test_grow_and_record_input_validation():
    rng = RngStream(0, 0)
    with pytest.raises(ValueError):
        grow_and_record(100, np.array([-0.5, 1.0]), 2, rng)
    with pytest.raises(ValueError):
        grow_and_record(100, np.array([0.5, 0.5]), 2, rng)
    for bad in ([np.inf], [0.5, np.inf], [np.nan], [0.5, np.nan]):
        with pytest.raises(ValueError):
            grow_and_record(100, np.array(bad), 2, rng)
    with pytest.raises(CapExceededError):
        grow_and_record(10, np.array([400.0]), 2, rng)


def test_grow_final_slice_agrees_with_direct_generation():
    """The recorded level-1 count at full size must follow the same law as a
    directly generated tree of that size (one shared realization per path)."""
    m = 600
    n = 200
    grow_vals = np.empty(m)
    direct_vals = np.empty(m)
    for r in range(m):
        rng = RngStream(400 + r, 0)
        path = grow_and_record(n, np.array([1.0]), 1, rng)
        grow_vals[r] = path.values[0, 0]
        tree = generate_rrt(n, RngStream(900_000 + r, 0))
        direct_vals[r] = np.count_nonzero(tree.parent == 0)
    rep = ks_two_sample(grow_vals, direct_vals)
    assert rep.p_value > 1e-3
