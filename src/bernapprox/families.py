"""Parameterized i.i.d. families with mean x: Bernoulli and Poisson.

For parameter x the single draw xi(x) has mean x and variance sigma(x)^2
with sigma(x) = sqrt(x(1-x)) (Bernoulli on [0,1]) or sqrt(x) (Poisson on
[0,inf)).  The scaled sum n*S_n = sum_i xi_i is Binomial(n, x) respectively
Poisson(n*x); all pmf work runs through log-gamma to stay overflow-safe.

Random generation uses numpy's PCG64 Generator; the algorithm name is
recorded in every report.  Poisson draws use inversion of a cdf table for
mean <= 30 and numpy's transformed-rejection sampler above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import gammaln

from .errors import OverflowComputationError, ParameterError
from .functions import HALF_LINE, UNIT_INTERVAL, Interval

RNG_NAME = "pcg64"
POISSON_INVERSION_MAX_MEAN = 30.0
POISSON_TAIL_MASS = 1e-16


@dataclass(frozen=True)
class Family:
    """Immutable family descriptor; x_domain keeps sigma(x) strictly positive."""

    kind: str  # "bernoulli" | "poisson"
    interval: Interval
    x_domain: tuple[float, float]

    def __post_init__(self):
        if self.kind not in ("bernoulli", "poisson"):
            raise ParameterError(f"unknown family kind {self.kind!r}")
        lo, hi = self.x_domain
        if not lo < hi:
            raise ParameterError(f"empty x-domain [{lo}, {hi}]")

    def check_x(self, x: float) -> float:
        lo, hi = self.x_domain
        if not (lo <= x <= hi):
            raise ParameterError(
                f"x={x} outside {self.kind} x-domain [{lo}, {hi}] (sigma must stay positive)"
            )
        return float(x)


def bernoulli_family(eps: float = 1e-3) -> Family:
    """Classical Bernstein family; endpoints trimmed by eps so sigma > 0."""
    if not (0 < eps < 0.5):
        raise ParameterError("eps must be in (0, 0.5)")
    return Family("bernoulli", UNIT_INTERVAL, (eps, 1.0 - eps))


def poisson_family(x_min: float = 1.0, x_max: float = 64.0) -> Family:
    """Szasz family; the default lower endpoint 1 matches the tail analysis."""
    if not (0 < x_min < x_max):
        raise ParameterError("need 0 < x_min < x_max")
    return Family("poisson", HALF_LINE, (x_min, x_max))


def family_sigma(fam: Family, x: float) -> float:
    """Standard deviation of a single draw: sqrt(x(1-x)) or sqrt(x)."""
    x = fam.check_x(x)
    if fam.kind == "bernoulli":
        return math.sqrt(x * (1.0 - x))
    return math.sqrt(x)


def sigma_weight(kind: str, x) -> np.ndarray:
    """sigma(x) evaluated without x-domain gating, for modulus weights."""
    arr = np.asarray(x, dtype=float)
    if kind == "bernoulli":
        return np.sqrt(np.clip(arr * (1.0 - arr), 0.0, None))
    if kind == "poisson":
        return np.sqrt(np.clip(arr, 0.0, None))
    raise ParameterError(f"unknown family kind {kind!r}")


def family_support(fam: Family, x: float, n: int, tail_mass: float = POISSON_TAIL_MASS) -> np.ndarray:
    """Integer support of n*S_n, Poisson tails truncated below tail_mass."""
    x = fam.check_x(x)
    _check_n(n)
    if fam.kind == "bernoulli":
        return np.arange(n + 1)
    return np.arange(szasz_truncation_point(n * x, tail_mass) + 1)


def szasz_truncation_point(mu: float, tail_tol: float) -> int:
    """Smallest K with the Chernoff bound P(Poisson(mu) > K) <= tail_tol.

    The exponent is mu * h((K - mu)/mu) with h the exact Poisson conjugate
    from the tail calculus, so the dropped mass is certified.
    """
    from .tails import poisson_conjugate  # tails imports this module

    if mu <= 0:
        return 0
    target = math.log(1.0 / tail_tol)

    def exponent(k: float) -> float:
        return mu * poisson_conjugate((k - mu) / mu)

    lo = int(math.ceil(mu))
    hi = max(lo + 1, int(math.ceil(mu + 10.0 * math.sqrt(mu) + 10.0)))
    while exponent(hi) < target:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if exponent(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def szasz_window(mu: float, tail_tol: float) -> tuple[int, int]:
    """Integer window [lo, hi] outside which Poisson(mu) has mass <= tail_tol.

    Each side drops at most tail_tol / 2.  hi is szasz_truncation_point.  lo
    is 1 + the largest j <= mu whose lower Chernoff exponent mu * h((mu-j)/mu)
    reaches ln(2 / tail_tol), or 0 if there is none.  That certifies
    P(N < lo) because P(N <= mu - t) <= exp(-mu h(-t/mu)) and h(-s) >= h(s)
    on [0, 1], so the conjugate h is only queried at nonnegative arguments.
    """
    from .tails import poisson_conjugate  # tails imports this module

    side_tol = tail_tol / 2.0
    hi = szasz_truncation_point(mu, side_tol)
    if mu <= 0:
        return 0, hi
    target = math.log(1.0 / side_tol)
    # s^2 / (2 + 2s/3) <= h(s) <= s^2 / 2 puts the last j that reaches the
    # target in [mu - t - target, mu - t] with t = sqrt(2 mu target)
    t = math.sqrt(2.0 * mu * target)
    j = np.arange(max(0, math.floor(mu - t - target)), max(0, math.floor(mu - t)) + 1)
    misses = np.flatnonzero(mu * poisson_conjugate((mu - j) / mu) < target)
    lo = int(j[misses[0]]) if misses.size else int(j[-1]) + 1
    return lo, hi


def family_pmf(fam: Family, x: float, n: int, k) -> Union[float, np.ndarray]:
    """P(n*S_n = k) through log-gamma; out-of-support k gives exact 0."""
    x = fam.check_x(x)
    _check_n(n)
    karr = np.asarray(k)
    kf = karr.astype(float)
    if fam.kind == "bernoulli":
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = (
                gammaln(n + 1.0)
                - gammaln(kf + 1.0)
                - gammaln(n - kf + 1.0)
                + kf * math.log(x)
                + (n - kf) * math.log1p(-x)
            )
        valid = (karr >= 0) & (karr <= n) & (kf == np.floor(kf))
    else:
        mu = n * x
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = kf * math.log(mu) - mu - gammaln(kf + 1.0)
        valid = (karr >= 0) & (kf == np.floor(kf))
    out = np.where(valid, np.exp(np.where(valid, logp, -np.inf)), 0.0)
    if np.isscalar(k):
        return float(out)
    return out


def sample_scaled_sum(fam: Family, x: float, n: int, rng: np.random.Generator, size=None):
    """Draw n*S_n (Binomial(n,x) or Poisson(n*x)) from the given generator."""
    x = fam.check_x(x)
    _check_n(n)
    if fam.kind == "bernoulli":
        return rng.binomial(n, x, size=size)
    mu = n * x
    if mu <= POISSON_INVERSION_MAX_MEAN:
        return _poisson_inversion(mu, rng, size)
    return rng.poisson(mu, size=size)


def family_sample(fam: Family, x: float, n: int, seed=None, rng: Optional[np.random.Generator] = None):
    """One realization of S_n = (n*S_n)/n; deterministic given the seed."""
    gen = resolve_rng(seed, rng)
    return float(sample_scaled_sum(fam, x, n, gen)) / n


def normalized_sum_samples(
    fam: Family,
    x: float,
    n: int,
    trials: int,
    seed=None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Draws of zeta_n = sqrt(n) * (S_n - x) / sigma(x)."""
    if trials < 1:
        raise ParameterError("trials must be positive")
    gen = resolve_rng(seed, rng)
    sums = sample_scaled_sum(fam, x, n, gen, size=trials).astype(float)
    sig = family_sigma(fam, x)
    return (sums - n * x) / (sig * math.sqrt(n))


def zeta_log_mgf(fam: Family, x: float, lam) -> Union[float, np.ndarray]:
    """ln E exp(lam * zeta(x)) for the centered normalized single draw.

    Bernoulli: ln[(1-x) e^{-lam x/sigma} + x e^{lam (1-x)/sigma}], evaluated
    with max-subtraction in log space since the normalized jump (1-x)/sigma
    grows near the endpoints.  Poisson: -lam sqrt(x) + x (e^{lam/sqrt(x)} - 1).
    """
    x = fam.check_x(x)
    lam_arr = np.asarray(lam, dtype=float)
    sig = family_sigma(fam, x)
    with np.errstate(over="ignore"):
        if fam.kind == "bernoulli":
            a = -lam_arr * x / sig + math.log1p(-x)
            b = lam_arr * (1.0 - x) / sig + math.log(x)
            out = np.logaddexp(a, b)
        else:
            rt = math.sqrt(x)
            out = -lam_arr * rt + x * np.expm1(lam_arr / rt)
        out = np.where(lam_arr == 0.0, 0.0, out)  # MGF(0) = 1 exactly
    if not np.all(np.isfinite(out)):
        bad_lam = lam_arr if np.isscalar(lam) else np.atleast_1d(lam_arr)[~np.isfinite(np.atleast_1d(out))][0]
        raise OverflowComputationError(
            f"zeta log-MGF overflow for {fam.kind} at x={x}, lam={bad_lam}",
            lam=float(bad_lam),
            x=x,
        )
    if np.isscalar(lam):
        return float(out)
    return out


@dataclass(frozen=True)
class NormalizedVariate:
    """zeta(x) = (xi - x) / sigma(x): mean 0 and variance 1 by construction."""

    family: Family
    x: float

    def __post_init__(self):
        self.family.check_x(self.x)

    def log_mgf(self, lam):
        return zeta_log_mgf(self.family, self.x, lam)

    def moments(self, tail_mass: float = POISSON_TAIL_MASS) -> tuple[float, float]:
        """(mean, variance) by truncated exact summation over the support of xi."""
        ks = family_support(self.family, self.x, 1, tail_mass).astype(float)
        p = family_pmf(self.family, self.x, 1, ks)
        sig = family_sigma(self.family, self.x)
        z = (ks - self.x) / sig
        mean = float(np.sum(p * z))
        var = float(np.sum(p * z * z)) - mean * mean
        return mean, var


def _check_n(n: int):
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ParameterError(f"n must be a positive integer, got {n!r}")


def resolve_rng(seed, rng=None):
    if rng is not None:
        return rng
    if seed is None:
        raise ParameterError("provide either a seed or a caller-owned Generator")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def spawn_rngs(seed, count: int) -> list[np.random.Generator]:
    """Independent child generators via SeedSequence.spawn (the splitting rule)."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def _poisson_inversion(mu: float, rng: np.random.Generator, size):
    """Exact inversion of a cdf table; used for small means.

    The table follows p_k = p_{k-1} mu / k up to the first k where p
    underflows to 0.  A draw is the first k with cdf_k >= u, capped at that
    last k, which is where a uniform beyond the saturated cdf lands.
    """
    u = rng.random(size=size)
    p = math.exp(-mu)
    cdf = [p]
    k = 0
    while p != 0.0:
        k += 1
        p *= mu / k
        cdf.append(cdf[-1] + p)
    out = np.minimum(np.searchsorted(cdf, u, side="left"), k).astype(np.int64)
    if size is None:
        return int(out)
    return out
