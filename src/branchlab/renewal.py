"""Grid-based renewal functions and the deviation bounds around them.

U(t) counts expected first-generation events of the walk by time t and
solves U = F + U * dF. The solver discretizes mass into grid cells, places
each cell's mass at its conditional mean, and reads U there by linear
interpolation. That keeps the recursion explicit and monotone, is exact to
rounding for exponential increments, and reproduces floor(t/d) exactly for
the lattice law det(d) because atoms land on grid nodes (the grid step must
divide d). Every integral against dU is one grid Stieltjes convolution
(_stieltjes of a row read at the cells by _at_cells): the higher-order
counts U_k = U_{k-1} * dU and the shot-noise second moment alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import IncrementDistribution, lorden_constant
from .errors import CapExceededError, TableCoverageError, count, finite

# _volterra_u solves row by row in O(n^2): on 2 cores, 50k cells take 0.4 s,
# 200k cells 4.0-4.2 s and 2**18 cells 7.4-8.0 s; 10**7 cells would take
# about three hours. renewal-table --t-max 2000 --h 0.01 (200k cells) fits,
# and no registry table exceeds 50k cells.
MAX_GRID_CELLS = 2**18
# renewal-table writes k_max * (cells + 1) values at 17 digits. On 2 cores,
# 2**22 values take about 7 s and 150 MB at 5001 points and 838 orders (a
# 94 MB CSV), and 12-16 s and 150 MB at 2**18 cells and 16 orders, solve
# included.
# MAX_SAMPLE_CELLS caps limit-sample's CSV at the same size.
MAX_TABLE_VALUES = 2**22


@dataclass(frozen=True)
class RenewalTable:
    """Uniform-grid values of U, U_2, ..., U_{k_max}; immutable once built."""

    dist: IncrementDistribution
    h: float
    uk: np.ndarray  # shape (k_max, n_cells + 1); row k-1 holds U_k on the grid

    @property
    def k_max(self) -> int:
        return int(self.uk.shape[0])

    @property
    def n_cells(self) -> int:
        return int(self.uk.shape[1]) - 1

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.uk.shape[1]) * self.h

    def _check_covers(self, t) -> None:
        t = np.asarray(t)
        if np.any(np.isnan(t)):
            raise ValueError("requested time is NaN")
        tmax = self.n_cells * self.h
        if np.any(t > tmax + 1e-9 * max(1.0, tmax)):
            raise TableCoverageError(f"requested time beyond table horizon {tmax}")

    def _row(self, k: int) -> np.ndarray:
        if count(k, "order", 1) > self.k_max:
            raise TableCoverageError(f"table holds orders 1..{self.k_max}, requested {k}")
        return self.uk[k - 1]

    def interp(self, k: int, t) -> np.ndarray | float:
        """Linearly interpolated U_k(t); 0 for t < 0, error beyond the grid or at NaN."""
        row = self._row(k)
        t_arr = np.asarray(t, dtype=float)
        self._check_covers(t_arr)
        out = np.interp(np.maximum(t_arr, 0.0), self.grid, row)
        out = np.where(t_arr < 0, 0.0, out)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    def integral(self, k: int, t: float) -> float:
        """Trapezoid integral of U_k over [0, t], with a partial last cell."""
        row = self._row(k)
        if t < 0:
            return 0.0
        self._check_covers(t)
        i = min(int(math.floor(t / self.h + 1e-12)), self.n_cells)
        full = 0.0
        if i >= 1:
            full = self.h * (0.5 * row[0] + float(np.sum(row[1:i])) + 0.5 * row[i])
        rem = t - i * self.h
        if rem > 0:
            full += 0.5 * (row[i] + self.interp(k, t)) * rem
        return full


def _leading_term(x, k: int, mu: float):
    """x**k / (k! mu**k), the leading term of U_k(x), elementwise.

    Raises ValueError where the term, or a factor of it, leaves the double
    range.
    """
    what = f"x**k / (k! mu**k) at k = {k}, mu = {mu:g}"
    return finite(lambda: x**k / (math.factorial(k) * mu**k), what)


def _volterra_u(dist: IncrementDistribution, n_cells: int, h: float) -> np.ndarray:
    edges = np.arange(n_cells + 1) * h
    Fe = np.asarray(dist.cdf(edges), dtype=float)
    Pe = np.asarray(dist.partial_mean(edges), dtype=float)
    dF = np.diff(Fe)
    dP = np.diff(Pe)
    mid = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(invalid="ignore", divide="ignore"):
        m = np.where(dF > 0, dP / np.where(dF > 0, dF, 1.0), mid)
    m = np.clip(m, edges[:-1], edges[1:])
    theta = np.clip((edges[1:] - m) / h, 0.0, 1.0)
    a = dF * (1.0 - theta)
    b = dF * theta
    denom = 1.0 - b[0]
    if not denom > 0:
        raise ValueError(f"the first grid cell (h = {h:.6g}) leaves the solve no positive pivot")
    wlag = a.copy()
    wlag[:-1] += b[1:]
    # reversed weights keep both dot operands contiguous inside the loop
    wrev = np.ascontiguousarray(wlag[::-1])
    U = np.empty(n_cells + 1)
    U[0] = Fe[0] / denom
    for i in range(1, n_cells + 1):
        U[i] = (Fe[i] + np.dot(wrev[n_cells - i :], U[:i])) / denom
    return U


def _grid_cells(t_max: float, h: float) -> int:
    """Cell count of the grid 0, h, ..., ceil(t_max/h)*h, refused past MAX_GRID_CELLS."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError("grid step h must be positive and finite")
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError("t_max must be positive and finite")
    cells = t_max / h - 1e-9  # may overflow to inf for a tiny h
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"grid of {t_max / h:.6g} cells exceeds the cap {MAX_GRID_CELLS}")
    return max(1, int(math.ceil(cells)))


def _check_orders(k_max: int, n_cells: int) -> None:
    k_max = count(k_max, "k_max", 1)
    if k_max * (n_cells + 1) > MAX_TABLE_VALUES:
        raise CapExceededError(
            f"{k_max} orders of {n_cells + 1} grid points exceed the cap {MAX_TABLE_VALUES}"
        )


def renewal_function_grid(
    dist: IncrementDistribution,
    t_max: float,
    h: float = 0.01,
) -> RenewalTable:
    """Solve for U on the grid 0, h, ..., ceil(t_max/h)*h."""
    n_cells = _grid_cells(t_max, h)
    if dist.lattice_span > 0:
        ratio = dist.lattice_span / h
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("grid step must divide the lattice span")
    U = _volterra_u(dist, n_cells, h)
    return RenewalTable(dist, h, U[np.newaxis, :].copy())


def _at_cells(row: np.ndarray, lattice: bool) -> np.ndarray:
    """A grid row at each cell's midpoint, or its left node for a lattice law.

    The one place the lattice rule lives: atoms sit on the right nodes, so
    t - y lands on a left node.
    """
    return row[:-1] if lattice else 0.5 * (row[:-1] + row[1:])


def _stieltjes(kernel: np.ndarray, dU: np.ndarray) -> np.ndarray:
    """Grid values of int f(t - y) dU(y), with f at the cells given by kernel.

    Node i holds sum_{j < i} kernel[i - 1 - j] * dU[j]; node 0 holds 0.
    """
    n = dU.shape[0]
    size = 1 << (2 * n - 1).bit_length()  # a power of two >= 2n: no wrap-around
    out = np.empty(n + 1)
    out[0] = 0.0
    out[1:] = np.fft.irfft(np.fft.rfft(kernel, size) * np.fft.rfft(dU, size), size)[:n]
    # FFT round-off can dip a row by ~1e-15 of its size; each kernel here is
    # nonnegative and nondecreasing, so the running maximum removes only that
    np.maximum.accumulate(out, out=out)
    return out


def higher_renewal_grid(table: RenewalTable, k_max: int) -> RenewalTable:
    """Extend a table with U_2..U_{k_max}: U_k = U_{k-1} * dU on the grid.

    Each order is one _stieltjes convolution of U_{k-1}, read at the cells
    by _at_cells, against the increments of U.
    """
    _check_orders(k_max, table.n_cells)
    if k_max <= table.k_max:
        return table
    lattice = table.dist.lattice_span > 0
    dU = np.diff(table.uk[0])
    rows = [table.uk[i] for i in range(table.k_max)]
    for _ in range(table.k_max + 1, k_max + 1):
        rows.append(_stieltjes(_at_cells(rows[-1], lattice), dU))
    return RenewalTable(table.dist, table.h, np.vstack(rows))


def build_renewal_table(
    dist: IncrementDistribution, t_max: float, h: float = 0.01, k_max: int = 1
) -> RenewalTable:
    """Convenience: solve for U and extend to k_max in one call.

    Both caps are checked before anything is solved.
    """
    _check_orders(k_max, _grid_cells(t_max, h))
    return higher_renewal_grid(renewal_function_grid(dist, t_max, h), k_max)


def lorden_check(table: RenewalTable) -> tuple[float, float]:
    """(min, max) over the grid of U(t) - t/mu."""
    dev = table.uk[0] - table.grid / table.dist.mu
    return float(dev.min()), float(dev.max())


def uk_deviation_bound(table: RenewalTable, k: int) -> np.ndarray:
    """Bound on |U_k(t) - t^k/(k! mu^k)| from the band constant c; ValueError if not finite."""
    k = count(k, "k")
    t = table.grid
    mu, c = table.dist.mu, lorden_constant(table.dist)
    terms = (math.comb(k, i) * t**i * c ** (k - i) / (math.factorial(i) * mu**i) for i in range(k))
    return finite(lambda: sum(terms, np.zeros_like(t)), f"the order-{k} deviation bound")


def uk_bound_check(table: RenewalTable, k: int) -> float:
    """Worst slack of the deviation bound: max over the grid of |dev| - bound.

    Negative everywhere (up to discretization tolerance) confirms the bound
    numerically.
    """
    row = table._row(k)
    poly = _leading_term(table.grid, k, table.dist.mu)
    slack = np.abs(row - poly) - uk_deviation_bound(table, k)
    return float(slack.max())


def second_moment_rhs(table: RenewalTable, k: int, t: float) -> float:
    """Closed-form second moment of the shot-noise sum over first-generation
    birth times: 2 int U_{k-1}(t-y) U_k(t-y) dU(y) + int U_{k-1}(t-y)^2 dU(y).

    The integrand, read at the cells as U_k is, goes through the same grid
    convolution against dU as higher_renewal_grid; a t between grid nodes
    is linearly interpolated from its two neighbours.
    """
    k = count(k, "k", 2)
    if table.k_max < k:
        raise TableCoverageError(f"table must hold orders up to {k}")
    if t < 0:
        return 0.0
    table._check_covers(t)
    lattice = table.dist.lattice_span > 0
    a = _at_cells(table.uk[k - 2], lattice)
    b = _at_cells(table.uk[k - 1], lattice)
    row = _stieltjes(2.0 * a * b + a * a, np.diff(table.uk[0]))
    return float(np.interp(t, table.grid, row))


def yk3_exact(table: RenewalTable, k: int, t: float) -> float:
    """Deterministic drift term: mu^{-1} int_0^t U_{k-1} - t^k/(k! mu^k)."""
    k = count(k, "k", 2)
    if table.k_max < k - 1:
        raise TableCoverageError(f"table must hold orders up to {k - 1}")
    mu = table.dist.mu
    return table.integral(k - 1, t) / mu - _leading_term(t, k, mu)


def abs_normal_moment(p: float, variance: float) -> float:
    """E|Z|^p for Z ~ normal(0, variance); ValueError past the double range."""
    return finite(
        lambda: variance ** (p / 2.0) * 2 ** (p / 2.0) * math.gamma((p + 1) / 2.0)
        / math.sqrt(math.pi),
        f"E|Z|^{p:g} at variance {variance:g}",
    )


def moment_ratio(counts, dist: IncrementDistribution, t: float, p: float) -> float:
    """Monte Carlo E|N(t) - U(t)|^p over its Gaussian prediction.

    counts holds samples of N(t), e.g. from cmj.renewal_count_samples. The
    prediction is E|Z|^p * t^{p/2} with Z ~ normal(0, sigma2 / mu^3). U(t)
    is the two-term renewal expansion t/mu + (sigma2 - mu^2) / (2 mu^2)
    (Feller, Vol. II, Ch. XI), exact for exp. For other nonlattice laws the
    remainder decays exponentially in t, but at small t the expansion
    departs from U: against a grid solved at h = 0.005 it is within 2.5e-6
    for gamma(2,2) and uniform(0.5,1.5) at t >= 10, but off by 1.7e-4 for
    gamma(0.5,0.5) at t = 10 and 0.075 at t = 1. At small t the Gaussian
    prediction is only asymptotic as well. Raises ValueError when either
    moment, or their ratio, leaves the double range.
    """
    if len(counts) == 0:
        raise ValueError("counts must be nonempty")
    if dist.sigma2 <= 0:
        raise ValueError("degenerate increments have no Gaussian limit")
    if not 0 < t < math.inf:
        raise ValueError("t must be finite and > 0")
    if not 1 <= p < math.inf:
        raise ValueError("p must be finite and >= 1")
    u_t = t / dist.mu + (dist.sigma2 - dist.mu**2) / (2.0 * dist.mu**2)
    what = f"the order-{p:g} moment ratio at t = {t:g}"
    num = finite(lambda: float(np.mean(np.abs(np.asarray(counts) - u_t) ** p)), what)
    den = finite(lambda: abs_normal_moment(p, dist.sigma2 / dist.mu**3) * t ** (p / 2.0), what)
    return finite(lambda: num / den, what)


def table_from_csv(path: str, dist: IncrementDistribution) -> RenewalTable:
    """Rebuild a table from the t,U,U2,... CSV layout.

    Raises ValueError unless the file holds two or more rows of at least
    two finite numbers each (genfromtxt reads a non-numeric cell as NaN).
    """
    data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float, ndmin=2)
    if data.shape[0] < 2 or data.shape[1] < 2:
        raise ValueError("table CSV must hold at least two grid points of t and U")
    if not np.all(np.isfinite(data)):
        raise ValueError("table CSV cells must be finite numbers")
    grid = data[:, 0]
    steps = np.diff(grid)
    h = float(steps[0])
    if not np.allclose(steps, h, rtol=0, atol=1e-9 * max(1.0, h)):
        raise ValueError("table CSV grid must be uniform")
    if abs(grid[0]) > 1e-12:
        raise ValueError("table CSV grid must start at 0")
    uk = np.ascontiguousarray(data[:, 1:].T)
    if np.any(np.diff(uk, axis=1) < -1e-9):
        raise ValueError("table CSV rows must be nondecreasing")
    return RenewalTable(dist, h, uk)
