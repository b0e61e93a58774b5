import math
import signal
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from branchlab import cmj, fileio
from branchlab.cli import main
from branchlab.cmj import (
    MAX_EMBEDDED_BIRTHS,
    CapExceededError,
    _PASS,
    _embedded_parent_matrix,
    _walk_sums,
    count_generation,
    expected_event_count,
    generation_counts,
    renewal_count_samples,
    simulate_cmj,
    simulate_embedded_rrt,
)
from branchlab.distributions import make_distribution
from branchlab.fileio import write_trajectory_csv
from branchlab.recursive_tree import depths_from_parents, generate_rrt
from branchlab.renewal import build_renewal_table
from branchlab.rng import RngStream
from branchlab.stat_tests import ks_two_sample
from branchlab.verify import _TWO_SAMPLE_CRIT, _shot_noise_squares

EXP1 = make_distribution("exp(1)")
GAMMA22 = make_distribution("gamma(2,2)")
UNIFORM = make_distribution("uniform(0.5,1.5)")
DET1 = make_distribution("det(1)")


@pytest.fixture(scope="module")
def exp_table_200():
    return build_renewal_table(EXP1, 200.0, h=0.02, k_max=2)


@pytest.fixture(scope="module")
def exp_trajs_200():
    return [simulate_cmj(EXP1, 200.0, 2, RngStream(31, r)) for r in range(250)]


def test_det_trajectory_by_hand():
    traj = simulate_cmj(DET1, 2.5, 2, RngStream(0, 0))
    assert np.array_equal(traj.times[0], [1.0, 2.0])
    assert np.array_equal(traj.times[1], [2.0])
    assert count_generation(traj, 1, 2.5) == 2
    assert count_generation(traj, 2, 2.5) == 1
    assert count_generation(traj, 2, 1.5) == 0
    # counting is inclusive at the query time
    assert count_generation(traj, 2, 2.0) == 1
    assert traj.anc1[1][0] == 1


def test_zero_horizon_is_empty():
    traj = simulate_cmj(EXP1, 0.0, 2, RngStream(3, 0))
    assert traj.n_events == 0
    assert count_generation(traj, 1, 0.0) == 0
    assert count_generation(traj, 2, -1.0) == 0


def test_first_generation_mean():
    m = 3000
    counts = [
        count_generation(simulate_cmj(EXP1, 10.0, 1, RngStream(8, r)), 1, 10.0)
        for r in range(m)
    ]
    se = math.sqrt(10.0 / m)
    assert abs(float(np.mean(counts)) - 10.0) < 4 * se


def test_generation_times_sorted_and_bounded():
    for r in range(5):
        traj = simulate_cmj(EXP1, 8.0, 3, RngStream(21, r))
        for g in range(3):
            t = traj.times[g]
            assert np.all(np.diff(t) >= 0)
            assert t.size == 0 or (t[0] > 0 and t[-1] <= 8.0)


def _merged_reference(traj):
    """The global event order by one sort on all three keys: time, then
    generation, then creation order."""
    t = np.concatenate(traj.times)
    gens = np.repeat(np.arange(1, traj.k_max + 1), [g.shape[0] for g in traj.times])
    order = np.lexsort((np.arange(t.shape[0]), gens, t))
    return t[order], gens[order], np.concatenate(traj.anc1)[order]


def _reference_csv(merged) -> bytes:
    rows = "".join("%.17g,%d,%d\n" % row for row in zip(*merged))
    return ("time,generation,ancestor1\n" + rows).encode()


def _written(tmp_path, traj) -> bytes:
    write_trajectory_csv(tmp_path / "traj.csv", traj)
    return (tmp_path / "traj.csv").read_bytes()


def test_event_stream_invariants(tmp_path):
    traj = simulate_cmj(EXP1, 8.0, 3, RngStream(9, 4))
    merged = _merged_reference(traj)
    assert _written(tmp_path, traj) == _reference_csv(merged)
    merged_t, gens, _ = merged
    assert np.all(np.diff(merged_t) >= 0)
    n1 = traj.times[0].shape[0]
    assert np.array_equal(traj.anc1[0], np.arange(1, n1 + 1))
    for g in (1, 2):
        anc = traj.anc1[g]
        assert anc.size > 0
        assert np.all((anc >= 1) & (anc <= n1))
        # every generation-g event's ancestor is born before it
        assert np.all(traj.times[0][anc - 1] < traj.times[g])
    for k in (1, 2, 3):
        assert np.count_nonzero(gens == k) == count_generation(traj, k, 8.0)


@pytest.mark.parametrize("law", [DET1, GAMMA22], ids=lambda d: d.descriptor)
def test_merged_order_is_time_then_generation_then_creation(law, tmp_path, monkeypatch):
    # det(1) births tie across generations, so small blocks cut through ties
    traj = simulate_cmj(law, 9.5, 4, RngStream(3, 0))
    want = _reference_csv(_merged_reference(traj))
    assert _written(tmp_path, traj) == want
    for cells in (3, 12, 30):
        monkeypatch.setattr(fileio, "_BLOCK_CELLS", cells)
        assert _written(tmp_path, traj) == want


def test_count_generation_range_errors():
    traj = simulate_cmj(EXP1, 5.0, 2, RngStream(0, 1))
    with pytest.raises(ValueError):
        count_generation(traj, 0, 1.0)
    with pytest.raises(ValueError):
        count_generation(traj, 3, 1.0)
    with pytest.raises(ValueError):
        count_generation(traj, 1, 6.0)


def test_expected_event_count_oracle():
    assert expected_event_count(EXP1, 10.0, 2) == pytest.approx(60.0)
    assert expected_event_count(GAMMA22, 4.0, 1) == pytest.approx(4.0)
    # 200! is past the double range, the terms are not
    assert expected_event_count(EXP1, 1.0, 200) == pytest.approx(math.e - 1.0)


def test_cap_precheck_raises():
    with pytest.raises(CapExceededError):
        simulate_cmj(EXP1, 2000.0, 3, RngStream(0, 0))


@contextmanager
def time_limit(seconds):
    """Fail with TimeoutError instead of hanging past the given wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_walk_that_cannot_pass_its_budget_is_refused(tmp_path, capsys):
    # numpy draws exact zeros for nearly every shape-1e-9 increment, so
    # the walks stall short of their budgets
    law = make_distribution("gamma(1e-9,1e-9)")
    with time_limit(15), pytest.raises(CapExceededError):
        simulate_cmj(law, 10.0, 2, RngStream(0, 0))
    with time_limit(15):
        code = main(["cmj", "--dist", "gamma(1e-9,1e-9)", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_REFUSAL_PROBE = """
from branchlab.cmj import simulate_cmj
from branchlab.distributions import make_distribution
from branchlab.errors import CapExceededError
from branchlab.rng import RngStream
try:
    simulate_cmj(make_distribution("gamma(1e-9,1e-9)"), 10.0, 2, RngStream(0, 0))
    print("not refused")
except CapExceededError:
    print("refused")
"""


def test_refusal_stays_within_bounded_memory(fresh_peak_mb):
    # the refusal peaks near 207 MB, about 80 MB of it the interpreter with
    # numpy; before the walks were drawn in bounded passes it took 521 MB
    verdict, peak = fresh_peak_mb(_REFUSAL_PROBE, timeout=60)
    assert verdict == ["refused"]
    assert peak < 300


_COUNT_PROBE = """
from branchlab.cmj import renewal_count_samples
from branchlab.distributions import make_distribution
from branchlab.rng import RngStream
renewal_count_samples(make_distribution("exp(1)"), 500.0, 20_000, RngStream(0, 0))
"""


def test_counting_walks_hold_counts_not_steps(fresh_peak_mb):
    # 1e7 kept steps folded into 160 KB of counts: about 52 MB, most of it the
    # interpreter with numpy; holding every kept step until the end took 357 MB
    _, peak = fresh_peak_mb(_COUNT_PROBE)
    assert peak < 150


def _joined(passes):
    rows, sums = zip(*passes)
    return np.concatenate(rows), np.concatenate(sums)


@pytest.mark.parametrize("law", [EXP1, GAMMA22, DET1], ids=lambda d: d.descriptor)
def test_walk_stream_cuts_cover_rows_and_pass_budgets(law):
    # more kept sums than one pass draws, so the walks are cut over several passes
    budgets = np.linspace(60.0, 0.0, 120_001)
    passes = list(_walk_sums(law, RngStream(2, 0), budgets))
    assert len(passes) > 1
    for r, s in passes:
        assert r.shape == s.shape
        assert r.shape[0] <= _PASS
        assert np.all(np.diff(r) >= 0)
    rows, sums = _joined(passes)
    assert rows.shape[0] > _PASS
    assert np.all(sums >= 0.0)
    assert np.all(sums <= budgets[rows])
    if law is DET1:
        counts = np.bincount(rows, minlength=budgets.shape[0])
        assert np.array_equal(counts, np.floor(budgets))
    assert list(_walk_sums(law, RngStream(2, 0), [])) == []


def test_walk_stream_budget_rules():
    # a walk longer than one pass goes on in the next and still counts exactly
    assert renewal_count_samples(DET1, 300_000.5, 2, RngStream(0, 0)).tolist() == [300_000] * 2
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError):
            renewal_count_samples(EXP1, t, 10, RngStream(0, 0))
    with pytest.raises(ValueError):
        next(_walk_sums(EXP1, RngStream(0, 0), [1.0, -1.0]))
    # mean step 1e-18: the walk would take about 1e19 steps, so it is refused before drawing
    with pytest.raises(CapExceededError):
        renewal_count_samples(make_distribution("gamma(1e-9,1e9)"), 10.0, 1, RngStream(0, 0))


def test_counting_walks_are_bounded_by_the_steps_they_keep(monkeypatch):
    # 1e5 kept steps fold into 1000 counts, yet the cap on kept steps is what
    # bounds the work of a caller that only counts
    monkeypatch.setattr(cmj, "MAX_EVENTS", 2**16)
    with pytest.raises(CapExceededError):
        renewal_count_samples(EXP1, 100.0, 1000, RngStream(0, 0))


def test_shot_noise_added_per_pass_equals_one_bincount(monkeypatch):
    # small passes, so many walks of gamma(0.1,0.1) outrun their slot and
    # span two passes: the per-pass adds keep the order of one bincount
    monkeypatch.setattr(cmj, "_PASS", 1 << 12)
    law, k, t, m = make_distribution("gamma(0.1,0.1)"), 2, 3.0, 4000
    table = build_renewal_table(law, t, h=0.01, k_max=k)
    got = _shot_noise_squares(law, table, k, t, m, RngStream(9, 0))
    passes = list(_walk_sums(law, RngStream(9, 0), np.full(m, t)))
    spanning = np.bincount(np.concatenate([np.unique(r) for r, _ in passes]), minlength=m) > 1
    assert np.count_nonzero(spanning) > 10
    rows, sums = _joined(passes)
    weights = np.interp(t - sums, table.grid, table.uk[k - 2])
    assert got.tobytes() == (np.bincount(rows, weights, minlength=m) ** 2).tobytes()


def test_renewal_count_samples_past_the_event_cap_are_refused_before_allocating(monkeypatch):
    monkeypatch.setattr(cmj, "MAX_EVENTS", 64)
    rng = RngStream(4, 2)
    assert renewal_count_samples(EXP1, 0.5, 64, rng).shape == (64,)  # at the cap
    for n_samples in (65, 10**12):
        with pytest.raises(CapExceededError):
            renewal_count_samples(EXP1, 0.5, n_samples, rng)
    ref = RngStream(4, 2)
    renewal_count_samples(EXP1, 0.5, 64, ref)
    assert rng.random() == ref.random()  # the refusals drew nothing


def _flat_stream_sums(dist, rng, budgets):
    """The flat-stream cut, kept as the same-law reference for _walk_sums.

    All walks are cut from one stream of increments with cumulative sum C:
    walk i starts at index s, keeps the sums C[s + 1 : q] - C[s] within
    budgets[i], and the first index q past it starts walk i + 1. Each q is
    a stopping time of the i.i.d. stream, so the walks are independent
    copies. Returns (rows, sums) in row order.
    """
    b = list(budgets)
    rows, sums = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    C = np.zeros(1)
    j = 0
    while j < len(b):
        C = np.concatenate((C, C[-1] + np.cumsum(dist.sample(rng, 1 << 16))))
        search, item = C.searchsorted, C.item
        cuts = [0]
        i = j
        while i < len(b):
            q = search(item(cuts[-1]) + b[i], "right")
            if q == C.shape[0]:
                break
            cuts.append(q)
            i += 1
        s, q = np.array(cuts[:-1]), np.array(cuts[1:])
        n = q - s - 1
        rows.append(np.repeat(np.arange(j, i), n))
        first = np.repeat(s + 1 - (np.cumsum(n) - n), n)
        sums.append(C[np.arange(n.sum()) + first] - np.repeat(C[s], n))
        C = C[cuts[-1] :]
        j = i
    return np.concatenate(rows), np.concatenate(sums)


def _same_law(a, b):
    report = ks_two_sample(a, b)
    return report.statistic < _TWO_SAMPLE_CRIT * math.sqrt(1.0 / a.size + 1.0 / b.size)


def test_walk_sums_match_the_flat_stream_in_law():
    # gamma(0.1,0.1) at t = 3: about 1.5% of the walks outrun their slot and
    # go on in a second pass. At 60 000 a side the KS bound is 0.011, below
    # that share, so walks redrawn instead of extended would fail it.
    law, t, m = make_distribution("gamma(0.1,0.1)"), 3.0, 60_000
    counts = renewal_count_samples(law, t, m, RngStream(61, 0))
    rows, _ = _flat_stream_sums(law, RngStream(62, 0), np.full(m, t))
    assert _same_law(counts, np.bincount(rows, minlength=m))
    # generation counts of gamma(2,2) at horizon 14, generations 1..5, the
    # reference drawing all runs of one generation as one flat stream
    horizon, k_max, fractions, runs = 14.0, 5, (0.5, 1.0), 500
    draw = partial(generation_counts, GAMMA22, horizon, k_max, fractions)
    got = np.stack([draw(RngStream(63, r)) for r in range(runs)])
    rng = RngStream(64, 0)
    run, births = np.arange(runs), np.zeros(runs)
    for k in range(k_max):
        rows, sums = _flat_stream_sums(GAMMA22, rng, np.maximum(horizon - births, 0.0))
        run, births = run[rows], births[rows] + sums
        for i, s in enumerate(fractions):
            ref = np.bincount(run[births <= s * horizon], minlength=runs)
            assert _same_law(got[:, k, i], ref), (k + 1, s)


@pytest.mark.parametrize("law", [EXP1, GAMMA22, UNIFORM, DET1], ids=lambda d: d.descriptor)
@pytest.mark.parametrize("k_max", [1, 2, 3])
def test_generation_counts_match_the_trajectory(law, k_max):
    fractions = (0.5, 1.0)
    horizon = 12.5
    for r in range(25):
        traj = simulate_cmj(law, horizon, k_max, RngStream(17, r))
        expected = [
            [count_generation(traj, k, s * horizon) for s in fractions]
            for k in range(1, k_max + 1)
        ]
        got = generation_counts(law, horizon, k_max, fractions, RngStream(17, r))
        assert got.dtype == np.int64
        assert got.tobytes() == np.array(expected, dtype=np.int64).tobytes()


def test_generation_counts_det_closed_form():
    # det(1) births of generation k are sums of k unit steps: C(floor(t), k) of them by t
    horizon, fractions = 10.5, (0.25, 0.5, 1.0)
    got = generation_counts(DET1, horizon, 3, fractions, RngStream(0, 0))
    expected = [[math.comb(math.floor(s * horizon), k) for s in fractions] for k in (1, 2, 3)]
    assert np.array_equal(got, expected)


def test_generation_counts_exp_means():
    # for exp(1) the generation-k mean at time t is t^k / k!
    m, horizon = 400, 15.0
    fractions = (0.5, 1.0)
    samples = np.stack(
        [generation_counts(EXP1, horizon, 3, fractions, RngStream(23, r)) for r in range(m)]
    )
    for k in (1, 2, 3):
        for i, s in enumerate(fractions):
            col = samples[:, k - 1, i]
            se = float(np.std(col, ddof=1)) / math.sqrt(m)
            target = (s * horizon) ** k / math.factorial(k)
            assert abs(float(np.mean(col)) - target) < 4 * se


def test_generation_counts_validation():
    with pytest.raises(ValueError):
        generation_counts(EXP1, 5.0, 2, (0.5, 1.5), RngStream(0, 0))
    with pytest.raises(ValueError):
        generation_counts(EXP1, 5.0, 2, (math.nan,), RngStream(0, 0))
    with pytest.raises(ValueError):
        generation_counts(EXP1, math.nan, 2, (1.0,), RngStream(0, 0))
    with pytest.raises(ValueError):
        generation_counts(EXP1, 5.0, 0, (1.0,), RngStream(0, 0))
    with pytest.raises(CapExceededError):
        generation_counts(EXP1, 2000.0, 3, (1.0,), RngStream(0, 0))


def test_embedded_root_child_time():
    m = 2000
    first = np.array(
        [simulate_embedded_rrt(1, RngStream(40, r)).birth_times[0] for r in range(m)]
    )
    assert abs(float(first.mean()) - 1.0) < 4.0 / math.sqrt(m)


def test_embedded_growth_clock():
    # time of the n-th attachment is a sum of independent exponentials
    # with rates 1..n, so its mean is the harmonic number
    n, m = 100, 1500
    taus = np.array(
        [simulate_embedded_rrt(n, RngStream(41, r)).birth_times[-1] for r in range(m)]
    )
    h_n = float(np.sum(1.0 / np.arange(1, n + 1)))
    var = float(np.sum(1.0 / np.arange(1, n + 1) ** 2))
    assert abs(float(taus.mean()) - h_n) < 4 * math.sqrt(var / m)


def test_embedded_tree_shape():
    emb = simulate_embedded_rrt(50, RngStream(6, 0))
    parent = emb.tree.parent
    assert parent[0] == -1
    for i in range(1, 51):
        assert 0 <= parent[i] < i
    assert np.all(np.diff(emb.birth_times) > 0)
    empty = simulate_embedded_rrt(0, RngStream(6, 1))
    assert empty.tree.parent.shape == (1,)
    assert empty.birth_times.shape == (0,)


def test_embedded_tree_refuses_births_past_the_cap():
    # refused before the parent and birth-time arrays are allocated
    for n in (MAX_EMBEDDED_BIRTHS + 1, 10**12):
        with pytest.raises(CapExceededError):
            simulate_embedded_rrt(n, RngStream(6, 2))


@pytest.mark.parametrize("n, n_trees", [(0, 3), (1, 5), (2, 1), (37, 64), (500, 20)])
def test_embedded_parent_matrix_rows_are_the_heap_trees(n, n_trees):
    """Row r equals the r-th of n_trees heap-grown trees on one stream, byte for
    byte once the heap's int32 parents are widened to the matrix's int64."""
    batch_rng, heap_rng = RngStream(53, 1), RngStream(53, 1)
    batch = _embedded_parent_matrix(n_trees, n, batch_rng)
    heap = [simulate_embedded_rrt(n, heap_rng).tree.parent[1:] for _ in range(n_trees)]
    assert batch.shape == (n_trees, n)
    assert batch.dtype == np.int64
    assert all(row.dtype == np.int32 for row in heap)
    assert batch.tobytes() == np.stack(heap).astype(np.int64).tobytes()
    # both consumed the same draws
    assert batch_rng.random() == heap_rng.random()


def test_embedded_profile_matches_uniform_attachment():
    """The clock construction and uniform attachment must agree in law.

    Compared through the level-1 count of a 201-vertex tree with a
    two-sample test at the 0.001 level. The clock side is the batch race,
    which the byte-equality test above ties to the heap.
    """
    n, m = 200, 1500
    direct = np.empty(m)
    for r in range(m):
        d = depths_from_parents(generate_rrt(n + 1, RngStream(51, r)).parent)
        direct[r] = float(np.count_nonzero(d == 1))
    embedded = np.count_nonzero(_embedded_parent_matrix(m, n, RngStream(52, 0)) == 0, axis=1)
    report = ks_two_sample(direct, embedded.astype(float))
    assert report.statistic < 1.9495 * math.sqrt(2.0 / m)


def _decomposition_remainders(traj, table, k, t):
    """y1 and y3 of the paper's split of Y_k(t) - t^k/(k! mu^k).

    y1 sums, over first-generation births by t, the descendant counts
    centred by U_{k-1}; y3 is the drift mu^{-1} int_0^t U_{k-1} less the
    polynomial centre.
    """
    s1 = traj.times[0][traj.times[0] <= t]
    shot = float(np.sum(table.interp(k - 1, t - s1)))
    mu = table.dist.mu
    y1 = count_generation(traj, k, t) - shot
    y3 = table.integral(k - 1, t) / mu - t**k / (math.factorial(k) * mu**k)
    return y1, y3


def test_decomposition_remainders_fade(exp_table_200, exp_trajs_200):
    """y1 and y3 grow slower than the t^{k-1/2} fluctuation scale."""
    scaled_y1 = []
    scaled_y3 = []
    for t in (50.0, 100.0, 200.0):
        vals = [_decomposition_remainders(tr, exp_table_200, 2, t) for tr in exp_trajs_200]
        scaled_y1.append(float(np.mean([abs(y1) for y1, _ in vals])) / t**1.5)
        scaled_y3.append(abs(vals[0][1]) / t**1.5)
    assert scaled_y1[0] > scaled_y1[1] - 1e-6 > scaled_y1[2] - 2e-6
    assert scaled_y3[0] >= scaled_y3[1] - 1e-6 >= scaled_y3[2] - 2e-6


def test_variance_growth_scale(exp_trajs_200):
    for k, power in ((1, 1.0), (2, 3.0)):
        v50 = float(np.var([count_generation(tr, k, 50.0) for tr in exp_trajs_200], ddof=1))
        v100 = float(np.var([count_generation(tr, k, 100.0) for tr in exp_trajs_200], ddof=1))
        ratio = (v100 / 100.0**power) / (v50 / 50.0**power)
        assert 1.0 / 3.0 < ratio < 3.0
