import math
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from branchlab.cli import main
from branchlab.cmj import (
    MAX_EMBEDDED_BIRTHS,
    CapExceededError,
    _embedded_parent_matrix,
    _walk_stream,
    count_generation,
    decomposition_terms,
    expected_event_count,
    generation_counts,
    renewal_count_samples,
    simulate_cmj,
    simulate_embedded_rrt,
)
from branchlab.distributions import make_distribution
from branchlab.errors import TableCoverageError
from branchlab.recursive_tree import generate_rrt
from branchlab.renewal import build_renewal_table
from branchlab.rng import RngStream
from branchlab.stat_tests import ks_two_sample

EXP1 = make_distribution("exp(1)")
GAMMA22 = make_distribution("gamma(2,2)")
UNIFORM = make_distribution("uniform(0.5,1.5)")
DET1 = make_distribution("det(1)")
SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_event_stream_invariants():
    traj = simulate_cmj(EXP1, 8.0, 3, RngStream(9, 4))
    merged_t, gens, _ = traj.merged_order()
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


# Runs the refusal in a fresh interpreter so that its peak RSS is its own.
_REFUSAL_PROBE = """
import resource
from branchlab.cmj import simulate_cmj
from branchlab.distributions import make_distribution
from branchlab.errors import CapExceededError
from branchlab.rng import RngStream
try:
    simulate_cmj(make_distribution("gamma(1e-9,1e-9)"), 10.0, 2, RngStream(0, 0))
    print("not refused")
except CapExceededError:
    print("refused")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
"""


def test_refusal_stays_within_bounded_memory():
    # the refusal peaked near 211 MB, about 80 MB of it the interpreter with
    # numpy; before the walks were cut from one bounded stream it took 521 MB
    out = subprocess.run(
        [sys.executable, "-c", _REFUSAL_PROBE],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    verdict, peak_mb = out.stdout.split()
    assert verdict == "refused"
    assert int(peak_mb) < 300


@pytest.mark.parametrize("law", [EXP1, GAMMA22, DET1], ids=lambda d: d.descriptor)
def test_walk_stream_cuts_cover_rows_and_pass_budgets(law):
    # enough rows that the stream is drawn and cut in several chunks
    budgets = np.linspace(60.0, 0.0, 120_001)
    next_row = 0
    counts = []
    for lo, C, s, q in _walk_stream(law, RngStream(2, 0), budgets):
        assert lo == next_row
        b = budgets[lo : lo + s.shape[0]]
        assert np.array_equal(s[1:], q[:-1])
        assert np.all(q > s)
        assert np.all(C[q] - C[s] > b)
        kept = q - s - 1
        assert np.all(C[s + kept] - C[s] <= b)
        counts.append(kept)
        next_row += s.shape[0]
    assert next_row == budgets.shape[0]
    assert len(counts) > 1
    if law is DET1:
        assert np.array_equal(np.concatenate(counts), np.floor(budgets))
    assert list(_walk_stream(law, RngStream(2, 0), [])) == []


def test_walk_stream_budget_rules():
    # a walk longer than one chunk grows its buffer and still counts exactly
    assert renewal_count_samples(DET1, 300_000.5, 2, RngStream(0, 0)).tolist() == [300_000] * 2
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError):
            renewal_count_samples(EXP1, t, 10, RngStream(0, 0))
    with pytest.raises(ValueError):
        list(_walk_stream(EXP1, RngStream(0, 0), [1.0, -1.0]))
    # mean step 1e-18: the walk would take about 1e19 steps, so it is refused before drawing
    with pytest.raises(CapExceededError):
        renewal_count_samples(make_distribution("gamma(1e-9,1e9)"), 10.0, 1, RngStream(0, 0))


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
    """Row r equals the r-th of n_trees heap-grown trees on one stream, byte for byte."""
    batch_rng, heap_rng = RngStream(53, 1), RngStream(53, 1)
    batch = _embedded_parent_matrix(n_trees, n, batch_rng)
    heap = [simulate_embedded_rrt(n, heap_rng).tree.parent[1:] for _ in range(n_trees)]
    assert batch.shape == (n_trees, n)
    assert batch.dtype == np.int64
    assert batch.tobytes() == np.stack(heap).tobytes()
    # both consumed the same draws
    assert batch_rng.gen.random() == heap_rng.gen.random()


def test_embedded_profile_matches_uniform_attachment():
    """The clock construction and uniform attachment must agree in law.

    Compared through the level-1 count of a 201-vertex tree with a
    two-sample test at the 0.001 level. The clock side is the batch race,
    which the byte-equality test above ties to the heap.
    """
    n, m = 200, 1500
    direct = np.empty(m)
    for r in range(m):
        d = generate_rrt(n + 1, RngStream(51, r)).depths()
        direct[r] = float(np.count_nonzero(d == 1))
    embedded = np.count_nonzero(_embedded_parent_matrix(m, n, RngStream(52, 0)) == 0, axis=1)
    report = ks_two_sample(direct, embedded.astype(float))
    assert report.statistic < 1.9495 * math.sqrt(2.0 / m)


def test_decomposition_identities(exp_table_200, exp_trajs_200):
    table = exp_table_200
    for traj in exp_trajs_200[:20]:
        for t in (50.0, 125.0, 200.0):
            d = decomposition_terms(traj, table, 2, t)
            lhs = d.y1 + d.y2 + d.y3
            assert lhs == pytest.approx(d.count - t**2 / 2.0, abs=1e-6 * max(1.0, t**2))
            lhs_star = d.y1 + d.y2_star
            assert lhs_star == pytest.approx(
                d.count - float(table.interp(2, t)), abs=1e-6 * max(1.0, t**2)
            )


def test_decomposition_remainders_fade(exp_table_200, exp_trajs_200):
    """y1 and y3 grow slower than the t^{k-1/2} fluctuation scale."""
    scaled_y1 = []
    scaled_y3 = []
    for t in (50.0, 100.0, 200.0):
        vals = [decomposition_terms(tr, exp_table_200, 2, t) for tr in exp_trajs_200]
        scaled_y1.append(float(np.mean([abs(d.y1) for d in vals])) / t**1.5)
        scaled_y3.append(abs(vals[0].y3) / t**1.5)
    assert scaled_y1[0] > scaled_y1[1] - 1e-6 > scaled_y1[2] - 2e-6
    assert scaled_y3[0] >= scaled_y3[1] - 1e-6 >= scaled_y3[2] - 2e-6


def test_variance_growth_scale(exp_trajs_200):
    for k, power in ((1, 1.0), (2, 3.0)):
        v50 = float(np.var([count_generation(tr, k, 50.0) for tr in exp_trajs_200], ddof=1))
        v100 = float(np.var([count_generation(tr, k, 100.0) for tr in exp_trajs_200], ddof=1))
        ratio = (v100 / 100.0**power) / (v50 / 50.0**power)
        assert 1.0 / 3.0 < ratio < 3.0


def test_decomposition_validation(exp_table_200, exp_trajs_200):
    traj = exp_trajs_200[0]
    with pytest.raises(ValueError):
        decomposition_terms(traj, exp_table_200, 1, 10.0)
    with pytest.raises(ValueError):
        decomposition_terms(traj, exp_table_200, 3, 10.0)
    with pytest.raises(ValueError):
        decomposition_terms(traj, exp_table_200, 2, 201.0)
    gamma_table = build_renewal_table(GAMMA22, 10.0, h=0.1, k_max=2)
    with pytest.raises(ValueError):
        decomposition_terms(traj, gamma_table, 2, 5.0)
    low_order = build_renewal_table(EXP1, 200.0, h=1.0, k_max=1)
    with pytest.raises(TableCoverageError):
        decomposition_terms(traj, low_order, 2, 10.0)


def test_decomposition_refuses_a_table_of_a_nearby_law(exp_trajs_200):
    # exp(1.0000001) and exp(1) printed alike at six digits
    near = build_renewal_table(make_distribution("exp(1.0000001)"), 20.0, h=0.1, k_max=2)
    with pytest.raises(ValueError, match="different increment laws"):
        decomposition_terms(exp_trajs_200[0], near, 2, 5.0)
