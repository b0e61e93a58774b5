"""Statistical verification helpers.

normalize_cmj maps raw generation or level counts onto the scale where
the limit laws live, the KS routines quantify agreement with those laws,
and functional_grid_test scores counts drawn over a grid of scaled times
against the integrated-noise covariance targets. Nothing here simulates:
callers draw the counts and pass them in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import count, finite, grid, real
from .gaussian_limit import build_cov_matrix, marginal_sd
from .renewal import _leading_term


@dataclass(frozen=True)
class KsReport:
    """Outcome of a Kolmogorov-Smirnov comparison."""

    statistic: float
    p_value: float
    n_eff: float


def ks_one_sample(samples, cdf) -> KsReport:
    """One-sample KS test of samples against a reference law.

    cdf is the law's distribution function, vectorized: it is called once
    on the sorted samples as a float array, e.g. scipy.special.ndtr for
    the standard normal or lambda x: ndtr(x / sd) for a centered normal.
    A cdf value that is not finite or lies outside [0, 1] raises ValueError.
    """
    xs = np.sort(finite(lambda: np.asarray(samples, dtype=float), "samples").ravel())
    n = xs.size
    if n < 2:
        raise ValueError("need at least two samples")
    fx = grid(cdf(xs), "the reference cdf", 0, 1)
    ecdf = np.arange(1, n + 1, dtype=float) / n
    d_plus = float(np.max(ecdf - fx))
    d_minus = float(np.max(fx - (ecdf - 1.0 / n)))
    stat = max(d_plus, d_minus)
    from scipy.special import kolmogorov  # on first use: scipy stays off start-up

    p = float(kolmogorov(math.sqrt(n) * stat))
    return KsReport(statistic=stat, p_value=p, n_eff=float(n))


def ks_two_sample(a, b) -> KsReport:
    """Two-sample KS test with the asymptotic tail at the pooled size."""
    xa = np.sort(finite(lambda: np.asarray(a, dtype=float), "samples").ravel())
    xb = np.sort(finite(lambda: np.asarray(b, dtype=float), "samples").ravel())
    if xa.size < 2 or xb.size < 2:
        raise ValueError("need at least two samples on each side")
    pooled = np.concatenate([xa, xb])
    pooled.sort()
    ca = np.searchsorted(xa, pooled, side="right") / xa.size
    cb = np.searchsorted(xb, pooled, side="right") / xb.size
    stat = float(np.max(np.abs(ca - cb)))
    n_eff = xa.size * xb.size / (xa.size + xb.size)
    from scipy.special import kolmogorov

    p = float(kolmogorov(math.sqrt(n_eff) * stat))
    return KsReport(statistic=stat, p_value=p, n_eff=float(n_eff))


def normalize_cmj(
    counts, t: float, k: int, mu: float, sigma2: float, s: float = 1.0
) -> np.ndarray:
    """Center and scale generation-k birth counts at time s t.

    Maps y to (k-1)! (y - (s t)^k / (k! mu^k)) / sqrt(sigma2 mu^(-2k-1)
    t^(2k-1)): the center is taken at grid fraction s of the horizon t and
    the scale at the full horizon. On this scale the counts converge to
    the time-s marginal of the integrated-noise limit, a normal with
    variance s^(2k-1) / (2k - 1).

    A uniform recursive tree with n + 1 vertices is the exp(1) process
    (mu = sigma2 = 1) at time t = ln n, so the same map normalises its
    level-k counts: (k-1)! (x - (s ln n)^k / k!) / (ln n)^(k - 1/2).

    Raises ValueError for a count that is not finite, and when the center
    or the scale leaves the double range.
    """
    k = count(k, "generation k", 1)
    mu = real(mu, "mu", 0, above=True)
    sigma2 = real(sigma2, "sigma2", 0, above=True)
    t = real(t, "t", 0, above=True)
    s = real(s, "s", 0)
    y = finite(lambda: np.asarray(counts, dtype=float), "counts")
    center = _leading_term(s * t, k, mu)
    what = f"the order-{k} scale at t = {t:g}, mu = {mu:g}"
    # an infinite denominator would give scale 0, so it is refused by itself
    denom = finite(lambda: math.sqrt(sigma2 * mu ** (-2 * k - 1) * t ** (2 * k - 1)), what)
    scale = finite(lambda: math.factorial(k - 1) / denom, what)
    return (y - center) * scale


def empirical_cov(samples):
    """Sample covariance matrix with entrywise standard errors.

    samples has one row per replicate. Returns (cov, se) where
    se[a, b] estimates the sampling error of entry (a, b) from the
    fourth moments, sqrt((E[za^2 zb^2] - c_ab^2) / M). A sample that is
    not finite, or whose moments leave the double range, raises ValueError.
    """
    z = finite(lambda: np.asarray(samples, dtype=float), "a sample")
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError("samples must be (n_reps, dim) with n_reps >= 2")
    m = z.shape[0]

    def moments():
        zc = z - z.mean(axis=0)
        cov = zc.T @ zc / (m - 1)
        second = zc**2
        m22 = second.T @ second / m
        return cov, np.sqrt(np.maximum(m22 - cov**2, 0.0) / m)

    return finite(moments, "the sample covariance")


def max_dev_se(emp, target, se) -> float:
    """Largest |emp - target| in units of se; a nonzero gap with se = 0 is inf."""
    dev = np.abs(emp - target)
    positive = se > 0.0
    ratio = np.where(positive, dev / np.where(positive, se, 1.0), np.where(dev == 0.0, 0.0, np.inf))
    return float(np.max(ratio))


@dataclass(frozen=True, eq=False)
class GridTestReport:
    """Joint check of counts on a time grid against the Gaussian limit.

    marginals[(k, i)] tests level or generation k at the caller's t_grid[i], not echoed.
    """

    marginals: dict
    min_marginal_p: float
    max_marginal_stat: float
    max_cov_dev_se: float


def functional_grid_test(
    raw, t_grid, t: float, mu: float = 1.0, sigma2: float = 1.0
) -> GridTestReport:
    """Compare counts drawn over a grid of scaled times against the limit process.

    raw is an (n_reps, k_max, len(t_grid)) array: raw[r, k-1, i] is the
    generation-k (or level-k) count of replicate r at fraction t_grid[i]
    of the horizon t, for a process whose increments have mean mu and
    variance sigma2. t_grid holds fractions in (0, 1]. A tree of n + 1
    vertices is the exp(1) process at time ln n, so tree level counts pass
    t = ln n with the default moments. Each (k, s) column goes through
    normalize_cmj, centered at fraction s and scaled at the full horizon.
    Across the grid the columns should then match the integrated-noise
    process: every marginal is KS-tested against its exact normal law and
    the joint empirical covariance is compared entrywise with the
    closed-form target, in units of its standard error.
    """
    s_grid = grid(t_grid, "t_grid", 0, 1, above=True, increasing=True).tolist()
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 3 or raw.shape[1] < 1 or raw.shape[2] != len(s_grid):
        raise ValueError("raw must be (n_reps, k_max, len(t_grid)) with k_max >= 1")
    n_reps, k_max = raw.shape[:2]
    if n_reps < 8:
        raise ValueError("n_reps must be >= 8")

    from scipy.special import ndtr

    z = np.empty(raw.shape)
    marginals = {}
    for ki in range(k_max):
        for si, s in enumerate(s_grid):
            z[:, ki, si] = normalize_cmj(raw[:, ki, si], t, ki + 1, mu, sigma2, s=s)
            sd = marginal_sd(ki + 1, s)
            marginals[(ki + 1, si)] = ks_one_sample(z[:, ki, si], lambda x: ndtr(x / sd))
    min_p = min(r.p_value for r in marginals.values())
    max_stat = max(r.statistic for r in marginals.values())

    target = build_cov_matrix(k_max, s_grid)
    flat = z.reshape(n_reps, k_max * len(s_grid))
    emp, se = empirical_cov(flat)

    return GridTestReport(
        marginals=marginals,
        min_marginal_p=float(min_p),
        max_marginal_stat=float(max_stat),
        max_cov_dev_se=max_dev_se(emp, target.matrix, se),
    )
