import math

import numpy as np
import pytest

from branchlab.distributions import lorden_constant, make_distribution
from branchlab.errors import TableCoverageError
from branchlab.renewal import (
    abs_normal_moment,
    build_renewal_table,
    higher_renewal_grid,
    lorden_check,
    moment_ratio,
    renewal_function_grid,
    second_moment_rhs,
    stieltjes_integral,
    table_from_csv,
    uk_bound_check,
    uk_deviation_bound,
    yk3_exact,
)
from branchlab.cmj import renewal_count_samples
from branchlab.rng import RngStream

EXP1 = make_distribution("exp(1)")
GAMMA22 = make_distribution("gamma(2,2)")
DET1 = make_distribution("det(1)")


@pytest.fixture(scope="module")
def exp_table():
    return build_renewal_table(EXP1, 50.0, h=0.01, k_max=3)


@pytest.fixture(scope="module")
def gamma_table():
    return build_renewal_table(GAMMA22, 50.0, h=0.01, k_max=3)


def test_exp_renewal_function_is_linear(exp_table):
    assert float(np.max(np.abs(exp_table.uk[0] - exp_table.grid))) < 1e-10


def test_exp_higher_orders_are_monomials(exp_table):
    t = exp_table.grid
    # midpoint convolution is exact on the linear kernel behind U_2;
    # the quadratic kernel behind U_3 leaves an O(h^2 t) remainder
    assert float(np.max(np.abs(exp_table.uk[1] - t**2 / 2.0))) < 1e-9
    assert float(np.max(np.abs(exp_table.uk[2] - t**3 / 6.0))) < 1e-3


def test_det_renewal_function_is_floor():
    table = renewal_function_grid(DET1, 10.0, h=0.25)
    expected = np.floor(table.grid + 1e-12)
    assert float(np.max(np.abs(table.uk[0] - expected))) < 1e-9


def test_det_grid_step_must_divide_span():
    with pytest.raises(ValueError):
        renewal_function_grid(DET1, 10.0, h=0.3)


def test_gamma_closed_form():
    # U(t) = t - (1 - exp(-4t))/4 for the rate-2 shape-2 law
    table = renewal_function_grid(GAMMA22, 20.0, h=0.01)
    t = table.grid
    exact = t - (1.0 - np.exp(-4.0 * t)) / 4.0
    assert float(np.max(np.abs(table.uk[0] - exact))) < 1e-4


def test_uniform_law_solves_without_surprises():
    d = make_distribution("uniform(0.5,1.5)")
    table = renewal_function_grid(d, 30.0, h=0.01)
    dev_lo, dev_hi = lorden_check(table)
    c0 = d.sigma2 / d.second_moment
    assert dev_lo >= -1.0 - 1e-3
    assert dev_hi <= c0 + 1e-3


def test_lorden_band_exp(exp_table):
    lo, hi = lorden_check(exp_table)
    assert abs(lo) < 1e-10 and abs(hi) < 1e-10


def test_lorden_band_gamma(gamma_table):
    lo, hi = lorden_check(gamma_table)
    assert lo >= -0.2501  # exact minimum is -1/4
    assert hi <= 1.0 / 3.0 + 1e-3
    assert lo == pytest.approx(-0.25, abs=1e-3)


def test_uk_deviation_bound_holds(gamma_table):
    for k in (2, 3):
        assert uk_bound_check(gamma_table, k) <= 1e-3


def test_uk_deviation_bound_formula(exp_table):
    # k = 1: the bound collapses to the band constant itself
    b = uk_deviation_bound(exp_table, 1)
    assert np.all(b == lorden_constant(exp_table.dist))


def test_interp_and_integral(exp_table):
    assert exp_table.interp(1, 2.345) == pytest.approx(2.345, abs=1e-10)
    assert exp_table.interp(1, -3.0) == 0.0
    assert exp_table.interp(1, -math.inf) == 0.0
    assert exp_table.integral(1, -math.inf) == 0.0
    assert exp_table.integral(1, 10.0) == pytest.approx(50.0, rel=1e-8)
    with pytest.raises(TableCoverageError):
        exp_table.interp(1, 51.0)
    with pytest.raises(TableCoverageError):
        exp_table.interp(4, 1.0)


def test_stieltjes_integral_exp(exp_table):
    # dU = dy: unit integrand recovers U, ramp integrand recovers U_2
    assert stieltjes_integral(exp_table, lambda x: np.ones_like(x), 7.0) == pytest.approx(
        7.0, abs=1e-6
    )
    ramp = stieltjes_integral(exp_table, lambda x: x, 7.0)
    assert ramp == pytest.approx(49.0 / 2.0, abs=1e-3)


def test_stieltjes_integral_det():
    table = renewal_function_grid(DET1, 5.0, h=0.25)
    # atoms at 1, 2, 3 inside [0, 3.5]
    total = stieltjes_integral(table, lambda x: np.ones_like(x), 3.5)
    assert total == pytest.approx(3.0, abs=1e-9)
    ramp = stieltjes_integral(table, lambda x: x, 3.5)
    assert ramp == pytest.approx(2.5 + 1.5 + 0.5, abs=1e-9)


def test_second_moment_identity_value():
    table = build_renewal_table(EXP1, 5.0, h=0.01, k_max=2)
    rhs = second_moment_rhs(table, 2, 5.0)
    assert rhs == pytest.approx(625.0 / 4.0 + 125.0 / 3.0, abs=1e-3)


def test_second_moment_requires_coverage(exp_table):
    with pytest.raises(TableCoverageError):
        second_moment_rhs(exp_table, 4, 1.0)
    with pytest.raises(ValueError):
        second_moment_rhs(exp_table, 1, 1.0)


def test_yk3_vanishes_for_exp(exp_table):
    for t in (1.0, 10.0, 50.0):
        assert abs(yk3_exact(exp_table, 2, t)) < 1e-6
        # the k = 3 case integrates a quadratic, so the trapezoid rule
        # leaves an O(h^2 t) remainder
        assert abs(yk3_exact(exp_table, 3, t)) < 1e-3


def test_yk3_nonzero_for_gamma(gamma_table):
    # drift term approaches a negative constant-order correction
    assert yk3_exact(gamma_table, 2, 30.0) < -0.1


def test_abs_normal_moment():
    assert abs_normal_moment(2.0, 3.0) == pytest.approx(3.0)
    assert abs_normal_moment(1.0, 1.0) == pytest.approx(math.sqrt(2.0 / math.pi))
    assert abs_normal_moment(4.0, 2.0) == pytest.approx(12.0)


def test_renewal_count_samples_det():
    out = renewal_count_samples(DET1, 3.5, 50, RngStream(0, 0))
    assert np.all(out == 3)


def test_renewal_count_samples_exp_mean():
    m = 8000
    out = renewal_count_samples(EXP1, 50.0, m, RngStream(12, 0))
    se = math.sqrt(50.0 / m)
    assert abs(float(out.mean()) - 50.0) < 4 * se


def test_count_means_match_table_on_grid(gamma_table):
    """Monte Carlo N(t) means against the numerically solved U at ten points."""
    m = 3000
    rng = RngStream(77, 0)
    for t in np.linspace(5.0, 50.0, 10):
        samples = renewal_count_samples(GAMMA22, float(t), m, rng)
        se = float(samples.std(ddof=1)) / math.sqrt(m)
        assert abs(float(samples.mean()) - gamma_table.interp(1, float(t))) < 4 * se


def test_moment_ratio_exp_closed_form_route():
    counts = renewal_count_samples(EXP1, 50.0, 4000, RngStream(5, 0))
    ratio = moment_ratio(counts, EXP1, 50.0, 2.0)
    assert 0.9 < ratio < 1.1


def test_moment_ratio_gamma_route():
    counts = renewal_count_samples(GAMMA22, 50.0, 4000, RngStream(5, 0))
    ratio = moment_ratio(counts, GAMMA22, 50.0, 2.0)
    assert 0.9 < ratio < 1.1


@pytest.mark.parametrize("law", ["exp(1)", "gamma(2,2)", "uniform(0.5,1.5)"])
def test_moment_ratio_centres_on_the_renewal_function(law):
    # one count at the grid-solved U(t) and p = 1: the ratio times its Gaussian
    # denominator is the gap between U(t) and the two-term expansion
    dist = make_distribution(law)
    table = renewal_function_grid(dist, 50.0, h=0.01)
    tol = 1e-12 if dist.kind == "exp" else 1e-4
    for t in (10.0, 20.0, 50.0):
        den = abs_normal_moment(1.0, dist.sigma2 / dist.mu**3) * math.sqrt(t)
        assert moment_ratio([table.interp(1, t)], dist, t, 1.0) * den <= tol


def test_moment_ratio_rejects_degenerate():
    counts = renewal_count_samples(DET1, 10.0, 100, RngStream(0, 0))
    with pytest.raises(ValueError):
        moment_ratio(counts, DET1, 10.0, 2.0)


def test_moment_ratio_needs_counts():
    with pytest.raises(ValueError):
        moment_ratio([], EXP1, 10.0, 2.0)


def test_table_csv_roundtrip(tmp_path, gamma_table):
    path = tmp_path / "table.csv"
    from branchlab.fileio import write_renewal_table_csv

    write_renewal_table_csv(path, gamma_table)
    assert path.read_text().split("\n", 1)[0].split(",") == ["t", "U", "U2", "U3"]
    back = table_from_csv(str(path), GAMMA22)
    assert back.h == gamma_table.h
    assert back.k_max == gamma_table.k_max
    assert np.array_equal(back.uk, gamma_table.uk)


def test_table_from_csv_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,U\n0,0\n0.1,0.2\n0.3,0.4\n")
    with pytest.raises(ValueError):
        table_from_csv(str(bad), EXP1)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("t,U\n0,0\n0.1,nan\n", id="nan-cell"),
        pytest.param("t,U\n0,0\n0.1,inf\n", id="inf-cell"),
        pytest.param("t,U\n0,0\n0.1,abc\n", id="non-numeric-cell"),
        pytest.param(
            "t,U\n",
            id="header-only",
            marks=pytest.mark.filterwarnings("ignore:genfromtxt. Empty input file"),
        ),
    ],
)
def test_table_from_csv_refuses_what_the_writer_never_writes(tmp_path, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with pytest.raises(ValueError):
        table_from_csv(str(bad), EXP1)


def test_higher_renewal_grid_is_idempotent(exp_table):
    again = higher_renewal_grid(exp_table, 2)
    assert again is exp_table


@pytest.mark.parametrize("law", ["exp(1)", "gamma(2,2)", "uniform(0.5,1.5)", "det(1)"])
def test_higher_orders_match_direct_convolution(law):
    # reference: the O(n^2) direct Stieltjes sum; the FFT product differs by round-off only
    table = build_renewal_table(make_distribution(law), 30.0, h=0.01, k_max=3)
    lattice = table.dist.lattice_span > 0
    dU = np.diff(table.uk[0])
    prev = table.uk[0]
    for k in (2, 3):
        kernel = prev[:-1] if lattice else 0.5 * (prev[:-1] + prev[1:])
        want = np.concatenate([[0.0], np.convolve(kernel, dU)[: dU.shape[0]]])
        got = table.uk[k - 1]
        assert np.all(np.diff(got) >= 0.0)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)
        prev = want


def test_grid_validation():
    with pytest.raises(ValueError):
        renewal_function_grid(EXP1, 10.0, h=-0.1)
    with pytest.raises(ValueError):
        renewal_function_grid(EXP1, 0.0)
    with pytest.raises(ValueError):
        renewal_function_grid(EXP1, 10.0, h=1e-9)
    bad = ((np.inf, 0.01), (np.nan, 0.01), (10.0, np.inf), (10.0, np.nan), (10.0, 1e-320))
    for t_max, h in bad:
        with pytest.raises(ValueError):
            renewal_function_grid(EXP1, t_max, h=h)


def test_grid_step_that_leaves_no_pivot_is_refused():
    # one cell so wide that all of its mass sits at the far left: no pivot remains
    with pytest.raises(ValueError, match="pivot"):
        renewal_function_grid(EXP1, 50.0, h=9007199254740996.0)


def test_grid_shorter_than_one_step_keeps_one_cell():
    table = renewal_function_grid(EXP1, 1e-12, h=0.01)
    assert table.n_cells == 1
