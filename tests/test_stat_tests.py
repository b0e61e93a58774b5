import math
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.special import ndtr

from branchlab.cmj import count_generation, generation_counts, simulate_cmj
from branchlab.distributions import make_distribution
from branchlab.gaussian_limit import marginal_sd
from branchlab.recursive_tree import grow_and_record
from branchlab.rng import RngStream
from branchlab.runner import map_replicated
from branchlab.stat_tests import (
    empirical_cov,
    functional_grid_test,
    ks_one_sample,
    ks_two_sample,
    max_dev_se,
    normalize_cmj,
)
from branchlab.verify import _tree_batch_task

EXP1 = make_distribution("exp(1)")


def test_one_sample_hand_value():
    report = ks_one_sample([0.25, 0.75], lambda x: np.asarray(x, dtype=float))
    assert report.statistic == pytest.approx(0.25)
    assert report.n_eff == 2


def test_one_sample_null_behaves():
    for seed in range(4):
        draws = RngStream(seed, 0).standard_normal(2000)
        report = ks_one_sample(draws, ndtr)
        assert report.p_value > 0.001


def test_one_sample_detects_constant():
    report = ks_one_sample(np.zeros(500), ndtr)
    assert report.statistic >= 0.5
    assert report.p_value < 1e-12


def test_one_sample_normal_descriptor_scaling():
    draws = 3.0 + 0.5 * RngStream(7, 0).standard_normal(3000)
    assert ks_one_sample(draws, lambda x: ndtr((x - 3.0) / 0.5)).p_value > 0.001
    assert ks_one_sample(draws, ndtr).p_value < 1e-9


def test_two_sample_identical():
    a = RngStream(1, 0).standard_normal(400)
    report = ks_two_sample(a, a.copy())
    assert report.statistic == 0.0
    assert report.n_eff == pytest.approx(200.0)


def test_two_sample_detects_shift():
    gen = RngStream(2, 0)
    a = gen.standard_normal(5000)
    b = gen.standard_normal(5000) + 0.5
    report = ks_two_sample(a, b)
    # sup-gap between the two cdfs is 2*Phi(1/4) - 1
    want = 2.0 * float(ndtr(0.25)) - 1.0
    assert report.statistic == pytest.approx(want, abs=0.05)
    assert report.p_value < 1e-9


def test_tree_normalization_center_and_scale():
    # an (n+1)-vertex tree is the exp(1) process at time ln n
    for n in (50, 3001, 10**5):
        ln = math.log(n)
        x = np.array([0.0, 3.0, 7.0, 11.0, 250.0])
        for k in (1, 2, 3, 4):
            for s in (0.25, 0.5, 1.0):
                z = normalize_cmj(x, ln, k, 1.0, 1.0, s=s)
                centred = x - (s * ln) ** k / math.factorial(k)
                want = math.factorial(k - 1) * centred / ln ** (k - 0.5)
                assert np.allclose(z, want, rtol=1e-13, atol=1e-13)


def test_cmj_normalization_center_and_scale():
    t = 9.0
    y = np.array([0.0, 4.5, 9.0, 13.5])
    z = normalize_cmj(y, t, 1, 1.0, 1.0)
    assert np.allclose(z, (y - t) / math.sqrt(t), rtol=1e-13)
    z2 = normalize_cmj(y, t, 2, 1.0, 1.0)
    assert np.allclose(z2, (y - t**2 / 2.0) / math.sqrt(t**3), rtol=1e-13)
    # centred at fraction s of the horizon, still scaled at the full horizon
    mu, sigma2 = 2.0, 3.0
    for s in (0.0, 0.5):
        z = normalize_cmj(y, t, 2, mu, sigma2, s=s)
        want = (y - (s * t) ** 2 / (2.0 * mu**2)) / math.sqrt(sigma2 * mu**-5 * t**3)
        assert np.allclose(z, want, rtol=1e-13)


def test_normalization_preserves_order():
    counts = RngStream(3, 0).integers(0, 40, size=60)
    z = normalize_cmj(counts, math.log(120), 2, 1.0, 1.0)
    assert np.array_equal(np.argsort(z, kind="stable"), np.argsort(counts, kind="stable"))


def test_normalization_validation():
    with pytest.raises(ValueError):
        normalize_cmj([1.0], 5.0, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        normalize_cmj([1.0], 5.0, 1, 0.0, 1.0)
    with pytest.raises(ValueError):
        normalize_cmj([1.0], 5.0, 1, 1.0, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="mu"):
            normalize_cmj([1.0], 5.0, 1, bad, 1.0)
        with pytest.raises(ValueError, match="sigma2"):
            normalize_cmj([1.0], 5.0, 1, 1.0, bad)
    with pytest.raises(ValueError):
        normalize_cmj([1.0], -1.0, 1, 1.0, 1.0)
    for bad_t in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            normalize_cmj([0.0, 0.0], bad_t, 1, 1.0, 1.0)
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            normalize_cmj([1.0], 5.0, 1, 1.0, 1.0, s=bad)


def test_empirical_cov_basics():
    gen = RngStream(9, 0)
    col = gen.standard_normal(4000)
    paired = np.column_stack([col, col])
    cov, se = empirical_cov(paired)
    assert cov[0, 0] == pytest.approx(cov[1, 1])
    assert cov[0, 1] == pytest.approx(cov[0, 0])
    assert abs(cov[0, 0] - 1.0) < 4 * se[0, 0]
    with pytest.raises(ValueError):
        empirical_cov(paired[:1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300])
def test_empirical_cov_refuses_samples_whose_moments_are_not_finite(bad):
    # 1e300 is finite, but its square overflows inside the matmul
    samples = RngStream(9, 0).standard_normal((50, 2))
    samples[3, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            empirical_cov(samples)


def _cmj_grid_counts(horizon, k_max, grid, n_reps, seed, workers=1):
    task = partial(generation_counts, EXP1, horizon, k_max, grid)
    return map_replicated(task, n_reps, seed, workers=workers)


def _tree_grid_counts(n_base, k_max, grid, n_reps, seed):
    # levels 1..k_max of one tree per replicate, one column per grid point
    paths = [grow_and_record(n_base, grid, k_max, RngStream(seed, r)) for r in range(n_reps)]
    return np.stack([path.values.T for path in paths])


def test_functional_grid_cmj():
    raw = _cmj_grid_counts(60.0, 2, (0.5, 1.0), n_reps=300, seed=5)
    report = functional_grid_test(raw, (0.5, 1.0), 60.0, EXP1.mu, EXP1.sigma2)
    assert set(report.marginals) == {(1, 0), (1, 1), (2, 0), (2, 1)}
    assert report.min_marginal_p > 1e-4
    assert report.max_cov_dev_se < 6.0


def _assert_unit_fraction_marginals(report, zs):
    for k, z in zs.items():
        sd = marginal_sd(k, 1.0)
        want = ks_one_sample(z, lambda x: ndtr(x / sd))
        got = report.marginals[(k, 0)]
        assert (got.statistic, got.p_value, got.n_eff) == (want.statistic, want.p_value, want.n_eff)
        # rescaling to unit variance first agrees up to rounding
        unit = ks_one_sample(z * math.sqrt(2 * k - 1), ndtr)
        assert got.statistic == pytest.approx(unit.statistic, abs=1e-12)
        assert got.p_value == pytest.approx(unit.p_value, abs=1e-12)


def test_functional_grid_unit_fraction_marginals_match_normalize_cmj():
    horizon, n_reps, seed = 30.0, 64, 8
    raw = _cmj_grid_counts(horizon, 2, (1.0,), n_reps, seed)
    report = functional_grid_test(raw, (1.0,), horizon, EXP1.mu, EXP1.sigma2)
    trajs = [simulate_cmj(EXP1, horizon, 2, RngStream(seed, r)) for r in range(n_reps)]
    zs = {}
    for k in (1, 2):
        counts = [count_generation(traj, k, horizon) for traj in trajs]
        zs[k] = normalize_cmj(counts, horizon, k, EXP1.mu, EXP1.sigma2)
    _assert_unit_fraction_marginals(report, zs)


def test_functional_grid_tree_marginals_match_normalize_cmj_at_log_n():
    n_base, n_reps, seed = 3001, 64, 8
    # the registry's single-tree task draws the same trees as grow_and_record
    task = partial(_tree_batch_task, n_plus_1=n_base, k_hi=2, n_trees=1)
    raw = map_replicated(task, n_reps, seed).reshape(n_reps, 2, 1)
    # n_base vertices: n = n_base - 1 attachments, the exp(1) process at ln n
    report = functional_grid_test(raw, (1.0,), math.log(n_base - 1))
    paths = [grow_and_record(n_base, (1.0,), 2, RngStream(seed, r)) for r in range(n_reps)]
    zs = {}
    for k in (1, 2):
        counts = [path.values[0, k - 1] for path in paths]
        zs[k] = normalize_cmj(counts, math.log(n_base - 1), k, 1.0, 1.0)
    _assert_unit_fraction_marginals(report, zs)


def test_functional_grid_deterministic_across_workers():
    grid, horizon = (0.5, 1.0), 40.0

    def draw(workers):
        return _cmj_grid_counts(horizon, 1, grid, n_reps=64, seed=12, workers=workers)

    one, again, split = draw(1), draw(1), draw(2)
    assert one.tobytes() == again.tobytes() == split.tobytes()
    reports = [functional_grid_test(raw, grid, horizon) for raw in (one, split)]
    assert reports[0].max_marginal_stat == reports[1].max_marginal_stat
    assert reports[0].max_cov_dev_se == reports[1].max_cov_dev_se


def test_functional_grid_tree_counts():
    raw = _tree_grid_counts(2000, 1, (0.5, 1.0), n_reps=150, seed=3)
    report = functional_grid_test(raw, (0.5, 1.0), math.log(1999))
    assert set(report.marginals) == {(1, 0), (1, 1)}
    # convergence in ln n is slow, so only coarse agreement is asserted here
    assert report.max_marginal_stat < 0.3
    assert np.isfinite(report.max_cov_dev_se)


_RAW = np.ones((50, 1, 2))


def test_functional_grid_validation():
    with pytest.raises(ValueError):
        functional_grid_test(_RAW, (0.5, 0.25), 10.0)
    with pytest.raises(ValueError):
        functional_grid_test(_RAW[:, :, :1], (0.0,), 10.0)
    with pytest.raises(ValueError, match="n_reps"):
        functional_grid_test(_RAW[:4], (0.5, 1.0), 10.0)
    # a degenerate law, such as det(1), has sigma2 = 0 and no Gaussian limit
    with pytest.raises(ValueError, match="sigma2"):
        functional_grid_test(_RAW, (0.5, 1.0), 10.0, 1.0, 0.0)
    # counts whose shape does not match the grid
    for raw in (_RAW[0], _RAW[:, :0], _RAW[:, :, :1], np.ones((50, 1, 2, 1))):
        with pytest.raises(ValueError, match="raw"):
            functional_grid_test(raw, (0.5, 1.0), 10.0)
    # a non-finite count would drop out of the worst-marginal maximum unseen
    for bad in (math.nan, math.inf):
        raw = _RAW.copy()
        raw[3, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            functional_grid_test(raw, (0.5, 1.0), 10.0)


def test_functional_grid_refuses_nan_fraction():
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        functional_grid_test(_RAW, (0.5, math.nan), 10.0)


def test_functional_grid_refuses_origin_and_zero_time():
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        functional_grid_test(_RAW, (0.0, 1.0), 10.0)
    # a 2-vertex tree sits at ln 1 = 0, where the scale is undefined
    with pytest.raises(ValueError, match="t must be positive"):
        functional_grid_test(_RAW, (0.5, 1.0), math.log(2 - 1))


def test_max_dev_se_counts_a_gap_without_error_as_infinite():
    emp = np.array([[1.0, 0.5], [0.5, 2.0]])
    target = np.array([[1.0, 0.25], [0.25, 2.0]])
    assert max_dev_se(emp, target, np.full((2, 2), 0.125)) == pytest.approx(2.0)
    se = np.array([[0.0, 0.125], [0.125, 0.0]])  # zero SE where the gap is zero
    assert max_dev_se(emp, target, se) == pytest.approx(2.0)
    assert max_dev_se(emp, target, np.zeros((2, 2))) == math.inf
    assert max_dev_se(target, target, np.zeros((2, 2))) == 0.0
