"""Parameterized i.i.d. families with mean x: Bernoulli and Poisson.

For parameter x the single draw xi(x) has mean x and variance sigma(x)^2
with sigma(x) = sqrt(x(1-x)) (Bernoulli on [0,1]) or sqrt(x) (Poisson on
[0,inf)).  The scaled sum n*S_n = sum_i xi_i is Binomial(n, x) respectively
Poisson(n*x).  Its pmf comes from one kernel, ``pmf_kernel``: the mode
term from Loader's saddle-point form, every other term by a ratio
recurrence out of the mode, so nothing can overflow and no log-gamma sum
amplifies rounding with n.  ``szasz_window`` cuts Poisson sums to certified
windows by one padded vector scan of the Chernoff exponent per side for a
whole array of means, no bisection.

Random generation uses numpy's PCG64 Generator, always one the caller
passes in; the algorithm name is recorded in every report.  Poisson draws
come from ``Generator.poisson`` at every mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import OverflowComputationError, ParameterError
from .functions import HALF_LINE, UNIT_INTERVAL, Interval

RNG_NAME = "pcg64"
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling-series coefficients B_2j / (2j (2j - 1)) for j = 1..5
_S0, _S1, _S2, _S3, _S4 = 1.0 / 12, 1.0 / 360, 1.0 / 1260, 1.0 / 1680, 1.0 / 1188


@dataclass(frozen=True)
class Family:
    """Immutable family descriptor whose x_domain keeps sigma(x) strictly positive:
    0 < lo < hi < 1 for Bernoulli and 0 < lo < hi for Poisson.  So no x of the
    domain makes n*S_n a point mass."""

    kind: str  # "bernoulli" | "poisson"
    interval: Interval
    x_domain: tuple[float, float]

    def __post_init__(self):
        if self.kind not in ("bernoulli", "poisson"):
            raise ParameterError(f"unknown family kind {self.kind!r}")
        lo, hi = self.x_domain
        if not (0.0 < lo < hi and (hi < 1.0 or self.kind == "poisson")):
            rule = "0 < lo < hi < 1" if self.kind == "bernoulli" else "0 < lo < hi"
            raise ParameterError(f"{self.kind} x-domain [{lo}, {hi}] must have {rule}, "
                                 "so that sigma stays positive")

    def sigma(self, x) -> np.ndarray:
        """sigma over an array of x, without x-domain gating: the modulus step weight."""
        arr = np.asarray(x, dtype=float)
        if self.kind == "bernoulli":
            return np.sqrt(np.clip(arr * (1.0 - arr), 0.0, None))
        return np.sqrt(np.clip(arr, 0.0, None))

    def check_x(self, x: float) -> float:
        lo, hi = self.x_domain
        if not (lo <= x <= hi):
            raise ParameterError(
                f"x={x} outside {self.kind} x-domain [{lo}, {hi}] (sigma must stay positive)"
            )
        return float(x)


def bernoulli_family(eps: float = 1e-3) -> Family:
    """Classical Bernstein family; endpoints trimmed by eps so sigma > 0."""
    return Family("bernoulli", UNIT_INTERVAL, (eps, 1.0 - eps))


def poisson_family(x_min: float = 1.0, x_max: float = 64.0) -> Family:
    """Szasz family on the x-domain [x_min, x_max]; its tail curve is taken at x_min."""
    return Family("poisson", HALF_LINE, (x_min, x_max))


def poisson_conjugate(u) -> float:
    """Conjugate of e^z - 1 - z: (1+u) ln(1+u) - u, the Poisson tail exponent."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0):
        raise ParameterError("u must be nonnegative")
    out = (1.0 + arr) * np.log1p(arr) - arr
    if np.isscalar(u):
        return float(out)
    return out


def szasz_window(mu, tail_tol: float):
    """Integer window [lo, hi] outside which Poisson(mu) has mass <= tail_tol.

    Each side drops at most tail_tol / 2, by Chernoff bounds with the exact
    Poisson conjugate h: hi is the smallest K >= mu whose upper exponent
    mu * h((K-mu)/mu) reaches ln(2 / tail_tol), lo is 1 + the largest j <= mu
    whose lower exponent mu * h((mu-j)/mu) reaches it, or 0 if none does;
    mu <= 0 gives (0, 0).  lo is certified because
    P(N <= mu - t) <= exp(-mu h(-t/mu)) and h(-s) >= h(s) on [0, 1], so h is
    only queried at nonnegative arguments.  A scalar mu gives (lo, hi); an
    array of mu gives arrays lo and hi, from one conjugate call per side.
    """
    mus = np.atleast_1d(np.asarray(mu, dtype=float))
    pos = mus > 0
    m = np.where(pos, mus, 1.0)[:, None]
    target = math.log(2.0 / tail_tol)
    # s^2 / (2 + 2s/3) <= h(s) <= s^2 / 2 puts the last j that reaches the target
    # in [mu - t - target, mu - t] and the first K in [mu + t, mu + t1], so one
    # padded scan covers each side; the K scan ends one past mu + t1 against rounding
    t = np.sqrt(2.0 * m * target)
    t1 = target / 3.0 + np.sqrt(target * target / 9.0 + t * t)
    j_end = np.maximum(0, np.floor(m - t))
    j = _scan(np.maximum(0, np.floor(m - t - target)), j_end)
    k_end = np.ceil(m + t1) + 1
    k = _scan(np.maximum(np.ceil(m), np.floor(m + t)), k_end)
    misses = m * poisson_conjugate((m - j) / m) < target
    hits = m * poisson_conjugate((k - m) / m) >= target
    lo = np.where(misses.any(axis=1), j[:, 0] + np.argmax(misses, axis=1), j_end[:, 0] + 1)
    hi = np.where(hits.any(axis=1), k[:, 0] + np.argmax(hits, axis=1), k_end[:, 0] + 1)
    lo, hi = np.where(pos, lo, 0).astype(np.int64), np.where(pos, hi, 0).astype(np.int64)
    if np.ndim(mu) == 0:
        return int(lo[0]), int(hi[0])
    return lo, hi


def _scan(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Rows start..end of consecutive integers (as floats), padded with end."""
    return np.minimum(start + np.arange(int(np.max(end - start)) + 1), end)


def pmf_kernel(kind: str, n: int) -> Callable[[float, int, int], np.ndarray]:
    """weights(x, lo, hi) = P(n*S_n = k) for k = lo..hi: Binomial(n, x) or Poisson(n*x),
    at an x of a family's x-domain, so 0 < x (and x < 1 for Binomial).

    The kernel anchors at the mode m, floor((n+1)x) for Binomial and
    floor(nx) for Poisson, clipped into [lo, hi], whose pmf comes from
    Loader's saddle-point form ("Fast and Accurate Computation of Binomial
    Probabilities", 2000).  Both sides follow by cumulative products of the
    pmf ratios, (n-k+1)/k * x/(1-x) or nx/k going up and their inverses going
    down.  Every ratio away from the mode is at most 1, so no term can
    overflow, far terms underflow to 0, and rounding grows with the distance
    from the mode, not with n.  The x-free Binomial factors (n-k+1)/k and
    (k+1)/(n-k) are built once here, and each x scales them by one scalar.
    """
    if kind == "bernoulli":
        k = np.arange(1, n + 1, dtype=float)
        up_base = (n - k + 1.0) / k  # ratio into k, k = 1..n
        k = np.arange(0, n, dtype=float)
        down_base = (k + 1.0) / (n - k)  # ratio into k from k + 1, k = 0..n-1

    def weights(x: float, lo: int, hi: int) -> np.ndarray:
        mu = n * x
        m = min(max(math.floor((n + 1) * x if kind == "bernoulli" else mu), lo), hi)
        i = m - lo
        ratios = np.empty(hi - lo + 1)
        if kind == "bernoulli":
            ratios[i + 1:] = up_base[m:hi] * (x / (1.0 - x))
            ratios[:i] = down_base[lo:m] * ((1.0 - x) / x)
        else:
            k = np.arange(lo, hi + 1, dtype=float)
            ratios[i + 1:] = mu / k[i + 1:]
            ratios[:i] = (k[:i] + 1.0) / mu
        ratios[i] = _mode_pmf(kind, n, x, m)
        w = np.empty(ratios.size)
        w[i:] = np.cumprod(ratios[i:])
        w[: i + 1] = np.cumprod(ratios[i::-1])[::-1]
        return w

    return weights


def _mode_pmf(kind: str, n: int, x: float, m: int) -> float:
    """The pmf at k = m in Loader's form, exp(-stirlerr and bd0 terms) / sqrt(2 pi v).

    v is m(n-m)/n or m, at least 1/2 and at most n, so the direct form can
    neither overflow nor underflow; m = 0 and m = n are single powers.
    """
    if kind == "bernoulli":
        if m == 0:
            return math.exp(n * math.log1p(-x))
        if m == n:
            return x**n
        lc = (_stirlerr(n) - _stirlerr(m) - _stirlerr(n - m)
              - _bd0(m, n * x) - _bd0(n - m, n * (1.0 - x)))
        return math.exp(lc) / math.sqrt(2.0 * math.pi * m * (n - m) / n)
    mu = n * x
    if m == 0:
        return math.exp(-mu)
    return math.exp(-_stirlerr(m) - _bd0(m, mu)) / math.sqrt(2.0 * math.pi * m)


def _stirlerr(k: int) -> float:
    """ln(k!) - ln(sqrt(2 pi k) (k/e)^k): lgamma up to 15, the Stirling series above."""
    if k <= 15:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _LN_SQRT_2PI
    kk = float(k) * k
    if k > 500:
        return (_S0 - _S1 / kk) / k
    if k > 80:
        return (_S0 - (_S1 - _S2 / kk) / kk) / k
    if k > 35:
        return (_S0 - (_S1 - (_S2 - _S3 / kk) / kk) / kk) / k
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / k


def _bd0(k: float, np_: float) -> float:
    """k ln(k/np) + np - k, by a series in (k-np)/(k+np) when k is near np."""
    d = k - np_
    if abs(d) >= 0.1 * (k + np_):
        return k * math.log(k / np_) + np_ - k
    v = d / (k + np_)
    s = d * v
    ej = 2.0 * k * v
    v *= v
    j = 3
    while True:
        ej *= v
        s1 = s + ej / j
        if s1 == s:
            return s1
        s = s1
        j += 2


def sample_scaled_sum(fam: Family, x: float, n: int, rng: np.random.Generator, size=None):
    """Draw n*S_n (Binomial(n,x) or Poisson(n*x)) from the given generator."""
    x = fam.check_x(x)
    _check_n(n)
    if fam.kind == "bernoulli":
        return rng.binomial(n, x, size=size)
    return rng.poisson(n * x, size=size)


def normalized_sum_samples(fam: Family, x: float, n: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Draws of zeta_n = sqrt(n) * (S_n - x) / sigma(x) from the given generator."""
    if trials < 1:
        raise ParameterError("trials must be positive")
    sums = sample_scaled_sum(fam, x, n, rng, size=trials).astype(float)
    sig = float(fam.sigma(fam.check_x(x)))
    return (sums - n * x) / (sig * math.sqrt(n))


def zeta_bound(fam: Family) -> float:
    """The largest |zeta(x)| over the x-domain.  A Bernoulli draw's values are
    (1-x)/sigma and -x/sigma, whose larger magnitude max(x, 1-x)/sigma(x)
    grows toward both ends of (0, 1); a Poisson draw has no bound."""
    if fam.kind != "bernoulli":
        raise ParameterError(f"zeta is unbounded for the {fam.kind} family")
    return max(max(x, 1.0 - x) / float(fam.sigma(x)) for x in fam.x_domain)


def zeta_log_mgf(fam: Family, x: float, lam) -> Union[float, np.ndarray]:
    """ln E exp(lam * zeta(x)) for the centered normalized single draw.

    Bernoulli: ln[(1-x) e^{-lam x/sigma} + x e^{lam (1-x)/sigma}], evaluated
    with max-subtraction in log space since the normalized jump (1-x)/sigma
    grows near the endpoints.  Poisson: -lam sqrt(x) + x (e^{lam/sqrt(x)} - 1).
    """
    x = fam.check_x(x)
    lam_arr = np.asarray(lam, dtype=float)
    sig = float(fam.sigma(x))
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


def _check_n(n: int):
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ParameterError(f"n must be a positive integer, got {n!r}")


def spawn_rngs(seed, count: int) -> list[np.random.Generator]:
    """Independent child generators via SeedSequence.spawn (the splitting rule)."""
    if seed is None:  # SeedSequence(None) would draw OS entropy
        raise ParameterError("a seed is required; no path draws OS entropy")
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]

