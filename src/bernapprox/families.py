"""Parameterized i.i.d. families with mean x: Bernoulli and Poisson.

For parameter x the single draw xi(x) has mean x and variance sigma(x)^2
with sigma(x) = sqrt(x(1-x)) (Bernoulli on [0,1]) or sqrt(x) (Poisson on
[0,inf)).  The scaled sum n*S_n = sum_i xi_i is Binomial(n, x) respectively
Poisson(n*x).  Its pmf comes from one kernel, ``pmf_kernel``, for a chunk
of x at a time: the mode terms from Loader's saddle-point form, every other
term by a ratio recurrence out of the mode, so nothing can overflow and no
log-gamma sum amplifies rounding with n.  Both sums are cut to certified
windows, each side dropping at most tail_tol / 2 of the mass, by one rule:
``bernstein_window`` applies Bernstein's inequality in closed form to a
whole array of x, with the variance of either law.

For the tail calculus this module gives the Bernoulli log-MGF
``zeta_log_mgf`` and jump bound ``zeta_bound``, and the Poisson conjugate
``poisson_conjugate`` of the closed-form Poisson curve; each takes an array
of lambda or u.  The Poisson log-MGF is not tabulated anywhere, so it is
not here.

Random generation uses numpy's PCG64 Generator, always one the caller
passes in; the algorithm name is recorded in every report.  Poisson draws
come from ``Generator.poisson`` at every mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError
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


def poisson_conjugate(u: np.ndarray) -> np.ndarray:
    """Conjugate of e^z - 1 - z: (1+u) ln(1+u) - u, the Poisson tail exponent."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0):
        raise ParameterError("u must be nonnegative")
    return (1.0 + arr) * np.log1p(arr) - arr


def bernstein_window(kind: str, n: int, xs: np.ndarray, tail_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Integer windows [lo, hi] outside which n*S_n, Binomial(n, x) or
    Poisson(nx), has mass <= tail_tol, for a 1-d array of x in a family's
    x-domain.

    Each side drops at most tail_tol / 2 by Bernstein's inequality
    P(K - nx >= t) <= exp(-t^2 / (2v + 2t/3)), and the same for nx - K, with
    the variance v = nx(1-x) (Binomial) or nx (Poisson) (Boucheron, Lugosi and
    Massart, Concentration Inequalities, 2013, 2.4 and 2.8): its exponent
    reaches T = ln(2 / tail_tol) at t = T/3 + sqrt(T^2/9 + 2 T v).  Both laws
    are sub-gamma with variance v and scale 1/3: a Binomial is a sum of n
    steps bounded by 1, and for Poisson(mu), ln E e^(lam(K - mu)) =
    mu(e^lam - 1 - lam) <= mu lam^2 / (2(1 - lam/3)) for 0 <= lam < 3, since
    k! >= 2 * 3^(k-2); on the left side mu(e^-lam - 1 + lam) <= mu lam^2 / 2.
    The window is [floor(nx - t), ceil(nx + t)], rounded outward by one
    lattice point against the rounding of t and clipped to [0, n] for
    Binomial and at 0 for Poisson.
    """
    target = math.log(2.0 / tail_tol)
    mu = n * xs
    v, top = (mu * (1.0 - xs), n) if kind == "bernoulli" else (mu, math.inf)
    t = target / 3.0 + np.sqrt(target * target / 9.0 + 2.0 * target * v)
    lo = np.maximum(np.floor(mu - t) - 1.0, 0.0)
    hi = np.minimum(np.ceil(mu + t) + 1.0, top)
    return lo.astype(np.int64), hi.astype(np.int64)


def pmf_kernel(kind: str, n: int, xs: np.ndarray, lo: np.ndarray, hi: np.ndarray
               ) -> tuple[np.ndarray, int, Callable[..., None], Callable[..., np.ndarray]]:
    """(modes, base_rows, bases, weights) of Binomial(n, x) or Poisson(n*x) for the rows xs.

    Each x lies in a family's x-domain, so 0 < x (and x < 1 for Binomial), and
    [lo, hi] is its window of n*S_n.  Row i anchors at its mode modes[i],
    floor((n+1)x) for Binomial and floor(nx) for Poisson, clipped into the
    window, whose pmf comes from Loader's saddle-point form ("Fast and Accurate
    Computation of Binomial Probabilities", 2000), for every x in one vector
    call.  Both sides follow by cumulative products of the pmf ratios,
    (n-k+1)/k * x/(1-x) or nx/k going up and their inverses going down.  Every
    ratio away from the mode is at most 1, so no term can overflow, far terms
    underflow to 0, and rounding grows with the distance from the mode, not
    with n.

    bases(k, out) writes the x-free half of the ratios at the lattice points
    k (floats) into the base_rows rows of out: (n-k+1)/k, the ratio into k
    from k - 1, and (k+1)/(n-k), into k from k + 1, for Binomial; k alone
    for Poisson, whose ratio into k from k + 1 reads k + 1 one column on.
    The up ratio is read only right of a mode and the down ratio only left
    of one, so the Binomial infinities at k = 0 and k = n are never read.

    weights(s, e, ca, m0, m1, base, frame, scratch) = P(n*S_n = k) for the
    rows x = xs[s:e] and the columns k = ca..ca + W - 1, as an (e - s, W)
    view of ``frame``, or a (W,) view for one row, which is computed on
    scalars.  base is bases' (base_rows, W) output at those columns
    and m0, m1 are the rows' smallest and largest mode.  frame and scratch
    are 1-d buffers of at least (e - s) W and (e - s)(m1 - m0 + 1) floats,
    and the call overwrites both.  One ufunc call per side scales the bases
    by each row's x-factor into the frame (a multiply by x/(1-x) or
    (1-x)/x, or a divide of and by nx), the mode column takes the rows'
    pmfs, and one cumulative product per side multiplies the frame out from
    the modes.  Between m0 and m1, the up pass reads 1.0 left of each row's
    mode, and a band in scratch, multiplied down from the largest mode, reads
    1.0 right of it and is then copied in.  A product with 1.0 is exact, so
    every weight is the product a row of its own gives, in the same order,
    bit for bit.
    """
    if kind == "bernoulli":
        modes, base_rows, shift = np.floor((n + 1) * xs), 2, 0
        ratio, x_up, x_down = np.multiply, (xs / (1.0 - xs))[:, None], ((1.0 - xs) / xs)[:, None]

        def bases(k: np.ndarray, out: np.ndarray) -> None:
            with np.errstate(divide="ignore"):  # k = 0 and k = n give inf, which is never read
                np.divide((n + 1.0) - k, k, out=out[0])
                np.divide(k + 1.0, n - k, out=out[1])
    else:
        ratio, x_up, base_rows, shift = np.divide, (n * xs)[:, None], 1, 1
        modes, x_down = np.floor(x_up[:, 0]), x_up

        def bases(k: np.ndarray, out: np.ndarray) -> None:
            out[0] = k
    modes = np.minimum(np.maximum(modes, lo), hi).astype(np.int64)
    mode_pmfs = _mode_pmfs(kind, n, xs, modes)

    def weights(s: int, e: int, ca: int, m0: int, m1: int, base: np.ndarray, frame: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
        o0, o1 = m0 - ca, m1 - ca  # the modes' columns
        up, down = base[0], base[-1, shift:]
        if e - s == 1:  # one row: a 1-d ufunc call on scalars costs less than a 2-d one
            w, xu, xd, p = frame[:up.size], x_up[s, 0], x_down[s, 0], mode_pmfs[s]
        else:
            w = frame[:(e - s) * up.size].reshape(e - s, up.size)
            xu, xd, p = x_up[s:e], x_down[s:e], mode_pmfs[s:e]
        ratio(xu, up[o0 + 1:], out=w[..., o0 + 1:])
        ratio(down[:o0], xd, out=w[..., :o0])
        if o1 == o0:  # one mode: both passes start at it
            w[..., o0] = p
            u, v = w[..., o0:], w[..., o0::-1]
            np.multiply.accumulate(u, axis=-1, out=u)
            np.multiply.accumulate(v, axis=-1, out=v)
            return w
        d = scratch[:(e - s) * (o1 - o0 + 1)].reshape(e - s, o1 - o0 + 1)
        ratio(down[o0:o1], xd, out=d[:, :-1])
        m = modes[s:e]
        k = np.arange(m0, m1 + 1)
        left = k < m[:, None]
        np.copyto(w[:, o0:o1 + 1], 1.0, where=left)
        np.copyto(d, 1.0, where=k > m[:, None])
        rows, cols = np.arange(e - s), m - m0
        w[rows, o0 + cols] = p
        d[rows, cols] = p
        np.multiply.accumulate(w[:, o0:], axis=1, out=w[:, o0:])
        np.multiply.accumulate(d[:, ::-1], axis=1, out=d[:, ::-1])
        if o0:  # carry the band's last product into the rows' common down side
            w[:, o0 - 1] *= d[:, 0]
            np.multiply.accumulate(w[:, o0 - 1::-1], axis=1, out=w[:, o0 - 1::-1])
        np.copyto(w[:, o0:o1 + 1], d, where=left)
        return w

    return modes, base_rows, bases, weights


def _mode_pmfs(kind: str, n: int, xs: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The pmf at k = m_i for each x_i, in Loader's form exp(-stirlerr and bd0
    terms) / sqrt(2 pi v).

    The arithmetic runs in numpy and each exp, log1p and lgamma in ``math``,
    element by element, so every value is the float the scalar form gives: a
    vector exp or log may differ from libm's in the last place.  v is
    m(n-m)/n or m, at least 1/2 and at most n, so the direct form can neither
    overflow nor underflow; m = 0 and m = n are single powers.
    """
    out = np.empty(xs.size)
    k = m.astype(float)
    if kind == "bernoulli":
        zero, full = m == 0, m == n
        out[zero] = _each(math.exp, n * _each(math.log1p, -xs[zero]))
        out[full] = [x**n for x in xs[full].tolist()]
        mid = ~(zero | full)
        k, x = k[mid], xs[mid]
        lc = (_stirlerrs(np.array([float(n)]))[0] - _stirlerrs(k) - _stirlerrs(n - k)
              - _bd0s(k, n * x) - _bd0s(n - k, n * (1.0 - x)))
        out[mid] = _each(math.exp, lc) / np.sqrt(2.0 * math.pi * k * (n - k) / n)
        return out
    mu = n * xs
    zero = m == 0
    out[zero] = _each(math.exp, -mu[zero])
    k, mu = k[~zero], mu[~zero]
    out[~zero] = _each(math.exp, -_stirlerrs(k) - _bd0s(k, mu)) / np.sqrt(2.0 * math.pi * k)
    return out


def _each(fn: Callable[[float], float], v: np.ndarray) -> np.ndarray:
    """fn of ``math`` at each element of v."""
    return np.array([fn(t) for t in v.tolist()], dtype=float)


def _stirlerrs(k: np.ndarray) -> np.ndarray:
    """ln(k!) - ln(sqrt(2 pi k) (k/e)^k) at integer k >= 1: lgamma up to 15, the
    Stirling series above."""
    kk = k * k
    out = np.select(
        [k > 500, k > 80, k > 35],
        [(_S0 - _S1 / kk) / k,
         (_S0 - (_S1 - _S2 / kk) / kk) / k,
         (_S0 - (_S1 - (_S2 - _S3 / kk) / kk) / kk) / k],
        (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / k)
    small = k <= 15
    s = k[small]
    out[small] = _each(math.lgamma, s + 1.0) - (s + 0.5) * _each(math.log, s) + s - _LN_SQRT_2PI
    return out


def _bd0s(k: np.ndarray, np_: np.ndarray) -> np.ndarray:
    """k ln(k/np) + np - k, by a series in (k-np)/(k+np) where k is near np."""
    d = k - np_
    far = np.abs(d) >= 0.1 * (k + np_)
    out = np.empty(k.size)
    kf, nf = k[far], np_[far]
    out[far] = kf * _each(math.log, kf / nf) + nf - kf
    near = ~far
    k, d = k[near], d[near]
    v = d / (k + np_[near])
    s = d * v
    ej = 2.0 * k * v
    v = v * v
    live, j = np.arange(k.size), 3
    while live.size:  # each term until it no longer moves the sum
        ej[live] *= v[live]
        s1 = s[live] + ej[live] / j
        moved = s1 != s[live]
        s[live] = s1
        live, j = live[moved], j + 2
    out[near] = s
    return out


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


def zeta_log_mgf(fam: Family, x: float, lam: np.ndarray) -> np.ndarray:
    """ln E exp(lam * zeta(x)) for the centered normalized Bernoulli draw:
    ln[(1-x) e^{-lam x/sigma} + x e^{lam (1-x)/sigma}], by logaddexp of the
    two finite exponents, since the normalized jump (1-x)/sigma grows near
    the endpoints.  The Poisson family's tail curve is a closed form, so it
    has no log-MGF here.
    """
    if fam.kind != "bernoulli":
        raise ParameterError(f"the {fam.kind} log-MGF is not tabulated; its tail curve is poisson_curve")
    x = fam.check_x(x)
    lam_arr = np.asarray(lam, dtype=float)
    sig = float(fam.sigma(x))
    out = np.logaddexp(-lam_arr * x / sig + math.log1p(-x), lam_arr * (1.0 - x) / sig + math.log(x))
    return np.where(lam_arr == 0.0, 0.0, out)  # MGF(0) = 1 exactly


def _check_n(n: int):
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ParameterError(f"n must be a positive integer, got {n!r}")


def spawn_rngs(seed, count: int) -> list[np.random.Generator]:
    """Independent child generators via SeedSequence.spawn (the splitting rule)."""
    if seed is None:  # SeedSequence(None) would draw OS entropy
        raise ParameterError("a seed is required; no path draws OS entropy")
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]

