import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab.distributions import lorden_constant, make_distribution
from branchlab.rng import RngStream
from branchlab.stat_tests import ks_two_sample
from branchlab.verify import _TWO_SAMPLE_CRIT


def test_exp_moments():
    d = make_distribution("exp(1)")
    assert d.kind == "exp"
    assert d.mu == 1.0
    assert d.sigma2 == 1.0
    assert d.second_moment == 2.0
    assert d.lattice_span == 0.0


def test_gamma_moments():
    d = make_distribution("gamma(2,2)")
    assert d.mu == pytest.approx(1.0)
    assert d.sigma2 == pytest.approx(0.5)
    assert d.second_moment == pytest.approx(1.5)


def test_uniform_moments():
    d = make_distribution("uniform(0,1)")
    assert d.mu == pytest.approx(0.5)
    assert d.sigma2 == pytest.approx(1.0 / 12.0)
    assert d.second_moment == pytest.approx(1.0 / 3.0)


def test_det_moments_and_span():
    d = make_distribution("det(1.5)")
    assert d.mu == 1.5
    assert d.sigma2 == 0.0
    assert d.second_moment == 2.25
    assert d.lattice_span == 1.5


def test_descriptor_roundtrip():
    for text in ["exp(2)", "gamma(2,2)", "uniform(0.5,2)", "det(1)"]:
        d = make_distribution(text)
        assert make_distribution(d.descriptor).descriptor == d.descriptor


def test_parser_rejects_garbage():
    for text in ["exp", "exp()", "exp(-1)", "gamma(2)", "uniform(2,1)", "det(0)", "nope(1)"]:
        with pytest.raises(ValueError):
            make_distribution(text)


@pytest.mark.parametrize(
    "text",
    [
        "exp(1e300)",  # rate**2 overflows
        "exp(1e-300)",  # rate**2 underflows to 0
        "uniform(1e308,1.7e308)",
        "gamma(1e-300,1e-300)",
        "exp(nan)",
        "exp(inf)",
        "gamma(nan,1)",
        "gamma(1,-inf)",
        "uniform(0,inf)",
        "det(inf)",
        "uniform(0,1e-300)",  # second moment underflows to 0
        "det(1e-320)",
        "uniform(1e-160,1.0000000000000002e-160)",  # sigma2 underflows to 0
        "gamma(5e-324,1)",  # 1/mu overflows
    ],
)
def test_degenerate_law_is_refused(text):
    with pytest.raises(ValueError):
        make_distribution(text)


@pytest.mark.parametrize(
    "text",
    ["exp(1)", "gamma(2,2)", "uniform(0.5,1.5)", "det(1)", "exp(0.1)", "gamma(1e-300,1)",
     "uniform(1,1.0000001)", "exp(1.0000001)"],  # the last two printed as their neighbours
)
def test_descriptor_keeps_its_text_and_parses_back_to_an_equal_law(text):
    d = make_distribution(text)
    assert d.descriptor == text
    assert make_distribution(d.descriptor) == d


_PARAMS = st.sampled_from(
    [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, 1e-310, -1e-310,
     math.inf, -math.inf, math.nan, 0.5, 1.0, 2.0, 3.7, 1e3]
)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(
    st.sampled_from(["exp", "gamma", "uniform", "det"]),
    st.lists(_PARAMS, min_size=1, max_size=2),
)
def test_any_descriptor_gives_finite_moments_or_value_error(kind, params):
    text = f"{kind}({','.join(map(repr, params))})"
    try:
        d = make_distribution(text)
    except ValueError:
        return
    assert 0.0 < d.mu < math.inf
    assert 1.0 / d.mu < math.inf
    assert 0.0 < d.second_moment < math.inf
    assert 0.0 <= d.sigma2 < math.inf
    assert make_distribution(d.descriptor) == d


def test_cdf_values():
    d = make_distribution("exp(1)")
    assert d.cdf(0.0) == pytest.approx(0.0)
    assert d.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0))
    u = make_distribution("uniform(0,2)")
    assert u.cdf(1.0) == pytest.approx(0.5)
    assert u.cdf(-1.0) == 0.0
    assert u.cdf(5.0) == 1.0
    step = make_distribution("det(1)")
    assert step.cdf(0.999) == 0.0
    assert step.cdf(1.0) == 1.0


def test_partial_mean_closed_forms():
    d = make_distribution("exp(1)")
    x = 1.3
    expected = 1.0 - math.exp(-x) - x * math.exp(-x)
    assert d.partial_mean(x) == pytest.approx(expected, abs=1e-12)
    # full mass recovers the mean for every supported kind
    for text in ["exp(2)", "gamma(2,2)", "uniform(0.5,2)", "det(1)"]:
        dd = make_distribution(text)
        assert dd.partial_mean(1e9) == pytest.approx(dd.mu, rel=1e-9)


def test_partial_mean_matches_quadrature():
    from scipy.integrate import quad

    d = make_distribution("gamma(2,2)")
    for x in (0.3, 1.0, 2.7):
        val, _ = quad(lambda y: y * 4.0 * y * math.exp(-2.0 * y), 0.0, x)
        assert d.partial_mean(x) == pytest.approx(val, abs=1e-10)


def test_sample_moments_and_positivity():
    rng = RngStream(11, 0)
    for text in ["exp(1)", "gamma(2,2)", "uniform(0.5,2)"]:
        d = make_distribution(text)
        x = d.sample(rng, 200_000)
        assert np.all(x > 0)
        se = math.sqrt(d.sigma2 / x.size)
        assert abs(float(x.mean()) - d.mu) < 5 * se
        assert float(x.var()) == pytest.approx(d.sigma2, rel=0.05)


def test_gamma_2_draws_match_generator_gamma_in_law():
    # a sum of two exponentials against Generator.gamma, at the registry's alpha = 0.001
    d = make_distribution("gamma(2,2)")
    a = d.sample(RngStream(21, 0), 200_000)
    b = RngStream(21, 1).gamma(2.0, 0.5, 200_000)
    report = ks_two_sample(a, b)
    assert report.statistic < _TWO_SAMPLE_CRIT * math.sqrt(2.0 / 200_000)


@pytest.mark.parametrize("text", ["gamma(1,1)", "gamma(3,0.5)", "gamma(2.5,1)", "gamma(0.1,0.1)"])
def test_other_gamma_shapes_draw_through_generator_gamma(text):
    d = make_distribution(text)
    shape, rate = d.params
    want = RngStream(5, 0).gamma(shape, 1.0 / rate, 1000)
    assert d.sample(RngStream(5, 0), 1000).tobytes() == want.tobytes()


def test_det_sampling_is_constant_and_entropy_free():
    rng = RngStream(3, 0)
    before = RngStream(3, 0).random()
    d = make_distribution("det(2)")
    x = d.sample(rng, 100)
    assert np.all(x == 2.0)
    assert rng.random() == before


def test_lorden_constants():
    assert lorden_constant(make_distribution("exp(1)")) == 1.0
    assert lorden_constant(make_distribution("gamma(2,2)")) == 1.0
    assert lorden_constant(make_distribution("det(1)")) == 2.0


def test_cdf_monotone_over_seeded_grids():
    for text in ["exp(1)", "gamma(2,2)", "uniform(0,1)", "det(1)"]:
        d = make_distribution(text)
        xs = np.linspace(-1.0, 6.0, 201)
        fx = np.asarray(d.cdf(xs))
        assert np.all(np.diff(fx) >= -1e-15)
        assert fx[0] == 0.0
        assert 0.99 < fx[-1] <= 1.0
