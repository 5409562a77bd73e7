"""Parameterized i.i.d. families with mean x: Bernoulli and Poisson.

For parameter x the single draw xi(x) has mean x and variance sigma(x)^2
with sigma(x) = sqrt(x(1-x)) (Bernoulli on [0,1]) or sqrt(x) (Poisson on
[0,inf)).  The scaled sum n*S_n = sum_i xi_i is Binomial(n, x) respectively
Poisson(n*x).  Both sums are cut to certified windows, each side dropping
at most tail_tol / 2 of the mass, by one rule: ``bernstein_window`` applies
Bernstein's inequality in closed form to a whole array of x, with the
variance of either law.  ``frames`` plans a sweep over a grid of x and
yields it chunk by chunk: the rows of a chunk, their k range, their runs
of one window, the frame of pmf weights and its products with f(k/n).  The
pmf takes the mode terms from Loader's saddle-point form and every other
term by a ratio recurrence out of the mode, so nothing can overflow and no
log-gamma sum amplifies rounding with n.  The chunk plan, the modes, the
lattice of ratio bases and f values, and the band fill all live here; a
consumer only sums.

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
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ParameterError
from .functions import HALF_LINE, UNIT_INTERVAL, Interval, TargetFunction, eval_clamped

RNG_NAME = "pcg64"
LATTICE_BLOCK = 2**12  # lattice points of f per evaluation, and the lattice buffer's read-ahead
CHUNK = 2**13  # weights in a chunk's frame, unless its one window is wider
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling-series coefficients B_2j / (2j (2j - 1)) for j = 1..5
_S0, _S1, _S2, _S3, _S4 = 1.0 / 12, 1.0 / 360, 1.0 / 1260, 1.0 / 1680, 1.0 / 1188
# stirlerr at k = 0..15 by lgamma (0 at k = 0, which no caller reads)
_STIRLERR_TABLE = np.array([0.0] + [math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _LN_SQRT_2PI
                                    for k in map(float, range(1, 16))])


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


def frames(kind: str, n: int, xs: np.ndarray, lo: np.ndarray, hi: np.ndarray,
           fs: Sequence[TargetFunction]) -> Iterator[tuple[int, int, int, np.ndarray, np.ndarray, list]]:
    """Yield the frames of pmf weights of Binomial(n, x) or Poisson(n*x) for the
    rows xs, one chunk at a time, as (s, e, a, w, p, runs).

    Each x lies in a family's x-domain, so 0 < x (and x < 1 for Binomial), and
    [lo, hi] is its window of n*S_n.  A chunk (_chunk_starts) is the rows
    s..e-1 and the columns k = a..a+W-1 that hold their windows: w[i, j] =
    P(n*S_n = a + j) at x = xs[s + i], and p[l] = w * f(k/n) for the l-th f of
    fs, of shapes (e - s, W) and (len(fs), e - s, W), or (W,) and (len(fs), W)
    for a one-row chunk, whose frame is its window.  runs are the runs of rows
    of the chunk with one window, as (i, j, l, h): the rows i..j-1 of xs and
    the window [l, h].  w and p are views of buffers that the next chunk
    overwrites.

    Row i anchors at its mode, floor((n+1)x) or floor(nx) clipped into the
    window, whose pmf comes from Loader's saddle-point form ("Fast and
    Accurate Computation of Binomial Probabilities", 2000).  Both sides follow
    by cumulative products of the pmf ratios, (n-k+1)/k * x/(1-x) or nx/k
    going up and their inverses going down.  Every ratio away from the mode
    is at most 1, so no term can overflow, far terms underflow to 0, and
    rounding grows with the distance from the mode, not with n.

    A lattice buffer holds the x-free half of the ratios at k = fa..fb, then
    f(k/n) per f: (n-k+1)/k and (k+1)/(n-k), into k from k - 1 and from k + 1,
    for Binomial; k alone for Poisson, whose ratio into k from k + 1 reads
    k + 1 one column on.  The up ratio is read only right of a mode and the
    down ratio only left of one, so the Binomial infinities at k = 0 and k = n
    are never read.  A chunk past fb slides the buffer up to its lowest k,
    keeping what it holds from there, and fills it ahead in pieces of at most
    LATTICE_BLOCK points, so each lattice point is evaluated once per f.
    One ufunc call per side scales the bases by each row's x-factor into the
    frame, the mode column takes the rows' pmfs, and one cumulative product
    per side multiplies it out; a one-row chunk makes just these calls on a
    1-d row and the Python floats of lists built once per sweep.  Between a
    chunk's smallest and largest mode the up pass reads 1.0 left of each
    row's mode, and a band multiplied down from the largest mode reads 1.0
    right of it and is then copied in.  A product with 1.0 is exact, so every
    weight is the float a row of its own gives.
    """
    if kind == "bernoulli":
        modes, base_rows, shift = np.floor((n + 1) * xs), 2, 0
        ratio, x_up, x_down = np.multiply, xs / (1.0 - xs), (1.0 - xs) / xs
    else:
        ratio, x_up, base_rows, shift = np.divide, n * xs, 1, 1
        modes, x_down = np.floor(x_up), x_up
    modes = np.minimum(np.maximum(modes, lo), hi).astype(np.int64)
    mode_pmfs = _mode_pmfs(kind, n, xs, modes)
    starts = _chunk_starts(lo, hi, modes)
    ends = np.append(starts[1:], xs.size)
    ca, cb = np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)
    m0, m1 = np.minimum.reduceat(modes, starts), np.maximum.reduceat(modes, starts)
    first = np.diff(lo, prepend=-1) | np.diff(hi, prepend=-1)  # nonzero where a window starts a run
    first[starts] = 1
    run = np.flatnonzero(first)
    runs = list(zip(run.tolist(), np.append(run[1:], xs.size).tolist(), lo[run].tolist(), hi[run].tolist()))
    r0 = np.searchsorted(run, starts)
    plan = zip(starts.tolist(), ends.tolist(), ca.tolist(), cb.tolist(), m0.tolist(), m1.tolist(),
               r0.tolist(), np.append(r0[1:], run.size).tolist())
    row_up, row_down, row_pmf = x_up.tolist(), x_down.tolist(), mode_pmfs.tolist()  # one-row chunks' scalars
    rows, width = ends - starts, cb - ca + 1
    frame, band = np.empty(int(np.max(rows * width))), np.empty(int(np.max(rows * (m1 - m0 + 1))))
    prod = np.empty((len(fs), frame.size))
    fa, fb, top = 0, -1, int(np.max(hi))
    lattice = np.empty((base_rows + len(fs), min(int(np.max(width)) + LATTICE_BLOCK, top - int(np.min(lo)) + 1)))
    iota = np.arange(min(LATTICE_BLOCK, lattice.shape[1]), dtype=float)
    for s, e, a, b, mode0, mode1, r0, r1 in plan:
        if a < fa or b > fb:  # slide the buffer to start at a, keeping what it holds from a on
            keep = max(0, fb - a + 1) if a >= fa else 0
            lattice[:, :keep] = lattice[:, a - fa:a - fa + keep]
            fa, fb = a, min(a + lattice.shape[1] - 1, top)
            for k0 in range(a + keep, fb + 1, LATTICE_BLOCK):
                piece = lattice[:, k0 - a:min(k0 + LATTICE_BLOCK, fb + 1) - a]
                if kind == "bernoulli":
                    k = np.arange(k0, k0 + piece.shape[1], dtype=float)
                    with np.errstate(divide="ignore"):  # k = 0 and k = n give inf, which is never read
                        np.divide((n + 1.0) - k, k, out=piece[0])
                        np.divide(k + 1.0, n - k, out=piece[1])
                else:  # the base row is k itself
                    k = np.add(iota[:piece.shape[1]], k0, out=piece[0])
                if fs:  # with no f the last row is a base row
                    x = np.divide(k, n, out=piece[-1])  # k/n, until the last f overwrites it
                    del k
                    for row, f in zip(piece[base_rows:], fs):
                        row[:] = eval_clamped(f, x)
        c, o0, o1, wd = a - fa, mode0 - a, mode1 - a, b - a + 1  # the frame's lattice column, the modes' columns
        if e - s == 1:  # one row, 1-d from end to end: its frame is its window
            w, p = frame[:wd], prod[:, :wd]
            ratio(row_up[s], lattice[0, c + o0 + 1:c + wd], out=w[o0 + 1:])
            ratio(lattice[base_rows - 1, c + shift:c + shift + o0], row_down[s], out=w[:o0])
            w[o0] = row_pmf[s]
            u, v = w[o0:], w[o0::-1]
            np.multiply.accumulate(u, out=u)
            np.multiply.accumulate(v, out=v)
            np.multiply(w, lattice[base_rows:, c:c + wd], out=p)
        else:
            lat = lattice[:, c:c + wd]
            up, down = lat[0], lat[base_rows - 1, shift:]
            w = frame[:(e - s) * wd].reshape(e - s, wd)
            xu, xd, pm = x_up[s:e, None], x_down[s:e, None], mode_pmfs[s:e]
            ratio(xu, up[o0 + 1:], out=w[:, o0 + 1:])
            ratio(down[:o0], xd, out=w[:, :o0])
            if o1 == o0:  # one mode: both passes start at it
                w[:, o0] = pm
                u, v = w[:, o0:], w[:, o0::-1]
                np.multiply.accumulate(u, axis=1, out=u)
                np.multiply.accumulate(v, axis=1, out=v)
            else:
                d = band[:(e - s) * (o1 - o0 + 1)].reshape(e - s, o1 - o0 + 1)
                ratio(down[o0:o1], xd, out=d[:, :-1])
                m = modes[s:e]
                k = np.arange(mode0, mode1 + 1)
                left = k < m[:, None]
                np.copyto(w[:, o0:o1 + 1], 1.0, where=left)
                np.copyto(d, 1.0, where=k > m[:, None])
                i, j = np.arange(e - s), m - mode0
                w[i, o0 + j] = pm
                d[i, j] = pm
                np.multiply.accumulate(w[:, o0:], axis=1, out=w[:, o0:])
                np.multiply.accumulate(d[:, ::-1], axis=1, out=d[:, ::-1])
                if o0:  # carry the band's last product into the rows' common down side
                    w[:, o0 - 1] *= d[:, 0]
                    np.multiply.accumulate(w[:, o0 - 1::-1], axis=1, out=w[:, o0 - 1::-1])
                np.copyto(w[:, o0:o1 + 1], d, where=left)
            p = prod[:, :w.size].reshape(len(fs), e - s, wd)
            np.multiply(w, lat[base_rows:, None], out=p)
        yield s, e, a, w, p, runs[r0:r1]


def _chunk_starts(lo: np.ndarray, hi: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """The first row of each chunk: the consecutive rows whose modes lie within
    CHUNK // 32 of its first, as many as a frame of CHUNK floats holds, if that
    is three or more and the frame at most CHUNK // 8 points wide (a band chunk
    makes about twice a one-row chunk's ufunc calls, but multiplies out the
    frame's width, not each window), else one row.  Running maxima keep it
    defined for any x order, and for the dips of an increasing grid: where its
    points lie a few ulp apart, rounding can lower hi by one point from one x
    to the next."""
    first, modes, hi = np.arange(lo.size), np.maximum.accumulate(modes), np.maximum.accumulate(hi)
    end = np.searchsorted(modes, modes + CHUNK // 32, side="right")
    width = hi[end - 1] - lo + 1
    rows = np.minimum(end - first, CHUNK // width)
    reach = np.where((rows >= 3) & (width <= CHUNK // 8), first + rows, first + 1).tolist()
    starts, i = [], 0
    while i < lo.size:
        starts.append(i)
        i = reach[i]
    return np.array(starts)


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
        se = _stirlerrs(np.concatenate(([float(n)], k, n - k)))  # one call for n, k and n - k
        lc = se[0] - se[1:k.size + 1] - se[k.size + 1:] - _bd0s(k, n * x) - _bd0s(n - k, n * (1.0 - x))
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
    """ln(k!) - ln(sqrt(2 pi k) (k/e)^k) at integer k >= 1: a table up to 15,
    the Stirling series above, cut after its second, third and fourth terms
    above 500, 80 and 35.  A cut term's coefficient is 0, which leaves every
    sum the float of the shorter series."""
    kk = k * k
    s4, s3, s2 = (k <= 35) * _S4, (k <= 80) * _S3, (k <= 500) * _S2
    series = (_S0 - (_S1 - (s2 - (s3 - s4 / kk) / kk) / kk) / kk) / k
    return np.where(k <= 15, _STIRLERR_TABLE[np.minimum(k, 15).astype(np.intp)], series)


def _bd0s(k: np.ndarray, np_: np.ndarray) -> np.ndarray:
    """k ln(k/np) + np - k, by a series in v = (k-np)/(k+np) where |v| < 0.1, run on
    every element at once (v = 0 where far) until no term moves a sum: the terms
    keep one sign and shrink by v^2 < 0.01, so once one leaves a sum no later one moves it."""
    d = k - np_
    far = np.abs(d) >= 0.1 * (k + np_)
    v = d / (k + np_)
    s = d * v
    ej = 2.0 * k * v
    v = np.where(far, 0.0, v * v)
    j = 3
    while True:
        ej *= v
        s1 = s + ej / j
        if (s1 == s).all():
            break
        s, j = s1, j + 2
    if far.any():
        kf, nf = k[far], np_[far]
        s[far] = kf * _each(math.log, kf / nf) + nf - kf
    return s


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

