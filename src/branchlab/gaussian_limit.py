"""The Gaussian process limiting the normalized generation counts.

The order-k limit is the (k-1)-fold time integral of a Brownian motion,
R_k(s) = int_0^s (s-y)^{k-1} dB(y), a Riemann-Liouville type process. Its
cross covariances have a closed binomial form; an adaptive-quadrature
evaluation of the defining integral serves as an independent oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, FactorizationError, count, finite
from .rng import RngStream

_JITTER_STEPS = (0.0, 1e-12, 1e-11, 1e-10)
# build_cov_matrix makes dim^2 / 2 closed-form calls of up to k_max terms
# each: dim = k_max = 256 takes about 12 s.
MAX_COV_DIM = 256
# sample_limit's draws (samples times dim): 2**22 of them take about 5 s
# and 150 MB through the limit-sample CSV, start-up included (2 cores).
MAX_SAMPLE_CELLS = 2**22


@dataclass(frozen=True)
class CovMatrix:
    """Covariance over the flat index set [(k, t) for k in 1..k_max for t in t_grid]."""

    index: tuple[tuple[int, float], ...]
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True)
class GaussianGridSample:
    """Draws from the limit on a (k, t) index set, one row per replicate."""

    index: tuple[tuple[int, float], ...]
    samples: np.ndarray
    jitter: float  # diagonal jitter the factorization needed (0 when clean)


def cov_rkl(k: int, l: int, s: float, u: float) -> float:
    """Closed-form E R_k(s) R_l(u).

    Equals int_0^{min(s,u)} (s-y)^{k-1} (u-y)^{l-1} dy; for u >= s this is
    sum_j C(l-1, j) s^{k+j} (u-s)^{l-1-j} / (k+j).
    """
    k, l = count(k, "orders", 1), count(l, "orders", 1)
    if not (0 <= s < math.inf and 0 <= u < math.inf):
        raise ValueError("times must be finite and >= 0")
    if u < s:
        k, l, s, u = l, k, u, s
    if s == 0:
        return 0.0
    terms = (
        math.comb(l - 1, j) / (k + j) * s ** (k + j) * (u - s) ** (l - 1 - j) for j in range(l)
    )
    return finite(lambda: math.fsum(terms), f"covariance of orders {k}, {l} at times {s}, {u}")


def cov_rkl_integral(k: int, l: int, s: float, u: float) -> float:
    """Quadrature oracle for cov_rkl from the defining integral."""
    k, l = count(k, "orders", 1), count(l, "orders", 1)
    if not (0 <= s < math.inf and 0 <= u < math.inf):
        raise ValueError("times must be finite and >= 0")
    top = min(s, u)
    if top == 0:
        return 0.0
    from scipy.integrate import quad  # loads scipy.optimize: keep it off start-up

    def integrand(y):
        return (s - y) ** (k - 1) * (u - y) ** (l - 1)

    return finite(
        lambda: float(quad(integrand, 0.0, top, epsabs=1e-12, epsrel=1e-12, limit=200)[0]),
        f"covariance of orders {k}, {l} at times {s}, {u}",
    )


def marginal_sd(k: int, s: float) -> float:
    """Standard deviation of R_k(s): sqrt(s^{2k-1} / (2k-1))."""
    k = count(k, "order", 1)
    if not 0 <= s < math.inf:
        raise ValueError("time must be finite and >= 0")
    return finite(lambda: math.sqrt(s ** (2 * k - 1) / (2 * k - 1)), f"Var R_{k}({s:g})")


def build_cov_matrix(k_max: int, t_grid) -> CovMatrix:
    """Covariance over the product index set, k-major then time."""
    t_grid = [float(t) for t in np.atleast_1d(np.asarray(t_grid, dtype=float))]
    k_max = count(k_max, "k_max", 1)
    if not t_grid:
        raise ValueError("t_grid must be nonempty")
    if any(t < 0 for t in t_grid):
        raise ValueError("t_grid entries must be >= 0")
    if k_max * len(t_grid) > MAX_COV_DIM:
        raise CapExceededError(
            f"covariance of dimension {k_max * len(t_grid)} exceeds the cap {MAX_COV_DIM}"
        )
    index = tuple((k, t) for k in range(1, k_max + 1) for t in t_grid)
    d = len(index)
    mat = np.empty((d, d))
    for a, (k, s) in enumerate(index):
        for b, (l, u) in enumerate(index):
            if b < a:
                mat[a, b] = mat[b, a]
            else:
                mat[a, b] = cov_rkl(k, l, s, u)
    return CovMatrix(index, mat)


def _factor(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    maxdiag = float(np.max(np.diag(matrix))) if matrix.size else 0.0
    scale = max(maxdiag, 1e-300)
    for step in _JITTER_STEPS:
        eps = step * scale
        try:
            L = np.linalg.cholesky(matrix + eps * np.eye(matrix.shape[0]))
            return L, eps
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError("covariance not factorizable within the jitter policy")


def sample_limit(cov: CovMatrix, n_samples: int, rng: RngStream) -> GaussianGridSample:
    """Exact joint draws of the limit at the covariance's index set.

    Uses a lower-triangular factor; if the matrix is numerically
    semidefinite, an escalating diagonal jitter up to 1e-10 of the largest
    diagonal entry is applied and reported.
    """
    n_samples = count(n_samples, "n_samples", 1)
    if n_samples * cov.dim > MAX_SAMPLE_CELLS:
        raise CapExceededError(
            f"{n_samples} draws of dimension {cov.dim} exceed the cap {MAX_SAMPLE_CELLS}"
        )
    L, eps = _factor(cov.matrix)
    z = rng.standard_normal((n_samples, cov.dim))
    return GaussianGridSample(cov.index, z @ L.T, eps)
