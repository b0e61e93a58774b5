"""Positive increment laws for the driving random walks.

Each law carries closed-form moments, vectorized sampling, its CDF, and the
partial first moment (needed by the renewal solver), plus the constant in
the uniform renewal-deviation band. Supported kinds: exp(rate),
gamma(shape, rate), uniform(a, b), det(d). All have support in (0, inf)
and finite second moment by construction.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .rng import RngStream

_DESCRIPTOR_RE = re.compile(r"^\s*([a-zA-Z]+)\s*\(\s*([^,()]+?)\s*(?:,\s*([^,()]+?)\s*)?\)\s*$")


@dataclass(frozen=True)
class IncrementDistribution:
    """A positive increment law with cached moments.

    lattice_span is 0.0 for nonlattice laws; for det(d) it is d, the maximal
    span of the support lattice.
    """

    kind: str
    params: tuple[float, ...]
    mu: float
    sigma2: float
    second_moment: float
    lattice_span: float

    @property
    def descriptor(self) -> str:
        """The law's name(p1[,p2]); make_distribution parses it back to an equal law."""
        inner = ",".join(_param_text(p) for p in self.params)
        return f"{self.kind}({inner})"

    def sample(self, rng: RngStream, size) -> np.ndarray:
        """Draw size values from the law using rng."""
        if self.kind == "exp":
            return rng.exponential(1.0 / self.params[0], size)
        if self.kind == "gamma":
            shape, rate = self.params
            if shape == 2.0:
                # gamma(2) is the sum of two exponentials (Devroye 1986, Ch. IX),
                # cheaper than Generator.gamma; the registry's gamma(2,2) draws here.
                out = rng.standard_exponential(size)
                out += rng.standard_exponential(size)
                out *= 1.0 / rate
                return out
            return rng.gamma(shape, 1.0 / rate, size)
        if self.kind == "uniform":
            a, b = self.params
            return rng.uniform(a, b, size)
        return np.full(size, self.params[0])  # det: no entropy consumed

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "exp":
            rate = self.params[0]
            return np.where(x > 0, -np.expm1(-rate * np.maximum(x, 0.0)), 0.0)
        if self.kind == "gamma":
            # scipy loads on first use, never at start-up (about 0.5 s of it)
            from scipy.special import gammainc

            shape, rate = self.params
            return np.where(x > 0, gammainc(shape, rate * np.maximum(x, 0.0)), 0.0)
        if self.kind == "uniform":
            a, b = self.params
            return np.clip((x - a) / (b - a), 0.0, 1.0)
        d = self.params[0]
        return (x >= d).astype(float)

    def partial_mean(self, x) -> np.ndarray:
        """Partial first moment: integral of y dF(y) over [0, x]."""
        x = np.asarray(x, dtype=float)
        if self.kind == "exp":
            rate = self.params[0]
            xp = np.maximum(x, 0.0)
            val = self.mu * -np.expm1(-rate * xp) - xp * np.exp(-rate * xp)
            return np.where(x > 0, val, 0.0)
        if self.kind == "gamma":
            from scipy.special import gammainc

            shape, rate = self.params
            return np.where(x > 0, self.mu * gammainc(shape + 1.0, rate * np.maximum(x, 0.0)), 0.0)
        if self.kind == "uniform":
            a, b = self.params
            xc = np.clip(x, a, b)
            return (xc * xc - a * a) / (2.0 * (b - a))
        d = self.params[0]
        return np.where(x >= d, d, 0.0)


def _param_text(p: float) -> str:
    """Six significant digits when they are exact, else the shortest round-trip repr."""
    text = format(p, "g")
    return text if float(text) == p else repr(p)


def make_distribution(descriptor: str) -> IncrementDistribution:
    """Parse a law descriptor of the form name(p1[,p2]).

    Recognized names: exp, gamma, uniform, det. Raises ValueError for an
    unknown kind, a wrong parameter count, a non-finite parameter,
    parameters outside the admissible range (nonpositive rate/shape/d,
    a < 0, b <= a), or a law whose moments leave the double range: mu,
    1/mu and the second moment must be finite and > 0, and sigma2 finite,
    and > 0 unless the law is det.
    """
    m = _DESCRIPTOR_RE.match(descriptor)
    if not m:
        raise ValueError(f"unparseable distribution descriptor: {descriptor!r}")
    kind = m.group(1).lower()
    raw = [g for g in (m.group(2), m.group(3)) if g is not None]
    try:
        params = tuple(float(p) for p in raw)
    except ValueError as exc:
        raise ValueError(f"non-numeric parameter in descriptor {descriptor!r}") from exc
    if not all(math.isfinite(p) for p in params):
        raise ValueError(f"parameters must be finite in {descriptor!r}")
    degenerate = f"{descriptor!r} has moments outside the double range"
    try:
        dist = _law(kind, params)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(degenerate) from exc
    if not (
        0.0 < dist.mu < math.inf
        and 1.0 / dist.mu < math.inf
        and 0.0 < dist.second_moment < math.inf
        and (0.0 < dist.sigma2 < math.inf or (kind == "det" and dist.sigma2 == 0.0))
    ):
        raise ValueError(degenerate)
    return dist


def _law(kind: str, params: tuple[float, ...]) -> IncrementDistribution:
    """The law of one kind with finite params, its moments in closed form.

    Raises ValueError for an unknown kind, a wrong parameter count or an
    inadmissible parameter; the moment arithmetic may raise OverflowError
    or ZeroDivisionError.
    """
    if kind == "exp":
        if len(params) != 1:
            raise ValueError("exp takes exactly one parameter: exp(rate)")
        (rate,) = params
        if rate <= 0:
            raise ValueError("exp rate must be positive")
        mu = 1.0 / rate
        sigma2 = 1.0 / rate**2
        return IncrementDistribution("exp", params, mu, sigma2, 2.0 / rate**2, 0.0)
    if kind == "gamma":
        if len(params) != 2:
            raise ValueError("gamma takes two parameters: gamma(shape, rate)")
        shape, rate = params
        if shape <= 0 or rate <= 0:
            raise ValueError("gamma shape and rate must be positive")
        mu = shape / rate
        sigma2 = shape / rate**2
        return IncrementDistribution("gamma", params, mu, sigma2, sigma2 + mu * mu, 0.0)
    if kind == "uniform":
        if len(params) != 2:
            raise ValueError("uniform takes two parameters: uniform(a, b)")
        a, b = params
        if a < 0:
            raise ValueError("uniform lower endpoint must be >= 0")
        if b <= a:
            raise ValueError("uniform upper endpoint must exceed the lower")
        mu = 0.5 * (a + b)
        sigma2 = (b - a) ** 2 / 12.0
        return IncrementDistribution("uniform", params, mu, sigma2, sigma2 + mu * mu, 0.0)
    if kind == "det":
        if len(params) != 1:
            raise ValueError("det takes exactly one parameter: det(d)")
        (d,) = params
        if d <= 0:
            raise ValueError("det step must be positive")
        return IncrementDistribution("det", params, d, 0.0, d * d, d)
    raise ValueError(f"unknown distribution kind: {kind!r}")


def lorden_constant(dist: IncrementDistribution) -> float:
    """Constant c >= 1 bounding |U(t) - t/mu| uniformly in t.

    Nonlattice laws admit c0 = Var/E^2nd-moment; a delta-lattice law needs
    the extra 2*delta/mu term. The usable constant is max(c0, 1).
    """
    c0 = dist.sigma2 / dist.second_moment
    if dist.lattice_span > 0:
        c0 += 2.0 * dist.lattice_span / dist.mu
    return max(c0, 1.0)
