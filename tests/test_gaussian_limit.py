import math

import numpy as np
import pytest

from branchlab.errors import FactorizationError
from branchlab.gaussian_limit import (
    CovMatrix,
    build_cov_matrix,
    cov_rkl,
    cov_rkl_integral,
    marginal_sd,
    sample_limit,
)
from branchlab.rng import RngStream


def test_diagonal_closed_form():
    for k in range(1, 6):
        for s in (0.5, 1.0, 2.0):
            want = s ** (2 * k - 1) / (2 * k - 1)
            assert cov_rkl(k, k, s, s) == pytest.approx(want, rel=1e-12)
            assert marginal_sd(k, s) ** 2 == pytest.approx(want, rel=1e-12)


def test_known_cross_values():
    assert cov_rkl(2, 1, 1.0, 2.0) == pytest.approx(0.5)
    assert cov_rkl(1, 2, 2.0, 1.0) == pytest.approx(0.5)
    # at a common unit time the cross moments are 1/(k+l-1)
    for k in range(1, 5):
        for l in range(1, 5):
            assert cov_rkl(k, l, 1.0, 1.0) == pytest.approx(1.0 / (k + l - 1))


def test_against_quadrature():
    for k in range(1, 6):
        for l in range(1, 6):
            for s in (0.5, 1.0, 2.0):
                for u in (0.5, 1.0, 2.0):
                    assert cov_rkl(k, l, s, u) == pytest.approx(
                        cov_rkl_integral(k, l, s, u), abs=1e-10
                    )


def test_time_scaling():
    c = 1.7
    for k, l, s, u in ((1, 1, 0.3, 0.9), (2, 3, 0.4, 1.1), (3, 2, 1.0, 0.6)):
        assert cov_rkl(k, l, c * s, c * u) == pytest.approx(
            c ** (k + l - 1) * cov_rkl(k, l, s, u), rel=1e-12
        )


def test_symmetry_and_zero_time():
    assert cov_rkl(3, 2, 0.7, 1.3) == cov_rkl(2, 3, 1.3, 0.7)
    assert cov_rkl(2, 4, 0.0, 1.0) == 0.0
    assert cov_rkl(2, 4, 1.0, 0.0) == 0.0
    assert marginal_sd(1, 0.0) == 0.0


def test_validation():
    with pytest.raises(ValueError):
        cov_rkl(0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        cov_rkl(1, 1, -0.1, 1.0)
    with pytest.raises(ValueError):
        cov_rkl_integral(1, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        marginal_sd(0, 1.0)
    with pytest.raises(ValueError):
        build_cov_matrix(0, [1.0])
    with pytest.raises(ValueError):
        build_cov_matrix(2, [])
    with pytest.raises(ValueError):
        build_cov_matrix(2, [-1.0])
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            cov_rkl(1, 1, bad, 1.0)
        with pytest.raises(ValueError):
            cov_rkl_integral(1, 1, 1.0, bad)
        with pytest.raises(ValueError):
            build_cov_matrix(2, [0.5, bad])
    # finite times whose covariance overflows: by a power, and by a product
    for k, l, s, u in ((40, 40, 1e10, 1e10), (2, 3, 1e200, 1e300), (1, 2, 1e150, 1e200)):
        with pytest.raises(ValueError):
            cov_rkl(k, l, s, u)
    with pytest.raises(ValueError):
        build_cov_matrix(2, [1e200])


def test_unit_time_matrix_is_hilbert():
    cov = build_cov_matrix(3, [1.0])
    want = np.array(
        [
            [1.0, 1.0 / 2.0, 1.0 / 3.0],
            [1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0],
            [1.0 / 3.0, 1.0 / 4.0, 1.0 / 5.0],
        ]
    )
    assert np.allclose(cov.matrix, want, rtol=0, atol=1e-15)
    assert cov.index == ((1, 1.0), (2, 1.0), (3, 1.0))


def test_index_layout_k_major():
    cov = build_cov_matrix(2, [0.5, 1.0])
    assert cov.index == ((1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0))
    assert cov.dim == 4
    assert np.allclose(cov.matrix, cov.matrix.T)


def test_sample_identity_covariance():
    eye = CovMatrix(((1, 1.0), (2, 1.0)), np.eye(2))
    out = sample_limit(eye, 100_000, RngStream(4, 0))
    assert out.jitter == 0.0
    means = out.samples.mean(axis=0)
    variances = out.samples.var(axis=0, ddof=1)
    assert np.all(np.abs(means) < 0.02)
    assert np.all(np.abs(variances - 1.0) < 0.02)


def test_sample_matches_target_covariance():
    cov = build_cov_matrix(3, [0.5, 1.0])
    m = 20_000
    out = sample_limit(cov, m, RngStream(11, 0))
    emp = np.cov(out.samples, rowvar=False, ddof=1)
    # moment-based standard error per entry
    x = out.samples
    prods = x[:, :, None] * x[:, None, :]
    se = np.sqrt(np.maximum(prods.var(axis=0, ddof=1), 1e-30) / m)
    assert np.all(np.abs(emp - cov.matrix) < 4 * se + 1e-12)


def test_jitter_ladder_on_singular_matrix():
    singular = CovMatrix(((1, 1.0), (1, 1.0)), np.array([[1.0, 1.0], [1.0, 1.0]]))
    out = sample_limit(singular, 5000, RngStream(2, 0))
    corr = float(np.corrcoef(out.samples[:, 0], out.samples[:, 1])[0, 1])
    assert corr > 0.999
    assert out.jitter >= 0.0


def test_indefinite_matrix_rejected():
    bad = CovMatrix(((1, 1.0), (2, 1.0)), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(FactorizationError):
        sample_limit(bad, 10, RngStream(0, 0))
    with pytest.raises(ValueError):
        sample_limit(build_cov_matrix(1, [1.0]), 0, RngStream(0, 0))
