import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.stats
from scipy.special import gammaln

from bernapprox.errors import BoundaryWarning, ParameterError
from bernapprox.families import (
    _S0, _S1, _S2, _S3, _S4, LATTICE_BLOCK, Family, _check_n, bernstein_window,
)
from bernapprox.functions import HolderSpec, TargetFunction, eval_clamped
from bernapprox.tails import DEFAULT_LAMBDA_CAP, DEFAULT_LAMBDA_GRID_SIZE, LAMBDA_MIN, TailCurve


# e^z - 1 - z: the Poisson log-MGF at x = 1 and its nu, whose conjugate is
# families.poisson_conjugate; the oracle for poisson_curve(1)
POISSON_PHI = lambda z: np.expm1(np.asarray(z, dtype=float)) - np.asarray(z, dtype=float)  # noqa: E731


def poisson_log_mgf(x, lam) -> np.ndarray:
    """Oracle for the Poisson log-MGF ln E exp(lam zeta(x)) = -lam sqrt(x) + x (e^{lam/sqrt(x)} - 1),
    0 at lam = 0 exactly; vectorized over x and lam.  The package tabulates only the
    Bernoulli one: the Poisson tail curve is the closed form ``poisson_curve``."""
    x, lam = np.asarray(x, dtype=float), np.asarray(lam, dtype=float)
    rt = np.sqrt(x)
    return np.where(lam == 0.0, 0.0, -lam * rt + x * np.expm1(lam / rt))


def poisson_nu(lam):
    """nu of the Poisson family at x_min = 1, even in lambda."""
    return POISSON_PHI(np.abs(np.asarray(lam, dtype=float)))


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(987654321))


def simpson(fn, a: float, b: float, panels: int = 20000) -> float:
    """Plain composite Simpson oracle, independent of scipy's quadrature."""
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = np.array([fn(float(x)) for x in xs])
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1::2].sum() + 2.0 * ys[2:-1:2].sum()))


def family_pmf(fam: Family, x: float, n: int, k):
    """Log-gamma oracle for P(n*S_n = k); out-of-support k gives exact 0.

    Each term carries a relative rounding error of about (n ln n) eps, so it
    is only an oracle for small n.
    """
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


def per_x_pmf_kernel(kind: str, n: int):
    """Oracle for the weights of ``families.frames``, one x at a time: weights(x, lo, hi) =
    P(n*S_n = k) for k = lo..hi by the one recurrence P(k) / P(k-1) = x_up / L[k], with
    x_up = x/(1-x) and L[k] = k/(n+1-k) (Binomial) or x_up = nx and L[k] = k (Poisson),
    out of the mode min(max(floor((n+1)x) or floor(nx), lo), hi), whose pmf is ``mode_pmf``.
    It checks the chunking, not the accuracy: the exact-rational, log-gamma and mpmath
    references do that."""
    bern = kind == "bernoulli"

    def weights(x: float, lo: int, hi: int) -> np.ndarray:
        k = np.arange(lo, hi + 1, dtype=float)
        lk, x_up = (k / ((n + 1.0) - k), x / (1.0 - x)) if bern else (k, n * x)
        m = min(max(math.floor((n + 1) * x if bern else n * x), lo), hi)
        i = m - lo
        ratios = np.empty(k.size)
        ratios[i + 1:] = x_up / lk[i + 1:]  # into k from k - 1
        ratios[:i] = lk[1:i + 1] / x_up  # into k from k + 1
        ratios[i] = mode_pmf(kind, n, x, m)
        w = np.empty(ratios.size)
        w[i:] = np.cumprod(ratios[i:])
        w[: i + 1] = np.cumprod(ratios[i::-1])[::-1]
        return w

    return weights


def per_x_exact_sums(fs, kind: str, n: int, xs: np.ndarray, tail_tol: float = 1e-12,
                     full: bool = False) -> np.ndarray:
    """Oracle for ``operators._exact_sums``'s values: per x, one ``per_x_pmf_kernel``
    weight array times its window of f values, read on lattice blocks of
    consecutive windows (at most LATTICE_BLOCK points or one wider window),
    summed by np.sum.  With ``full``, every Binomial row sums all of [0, n]."""
    if kind == "bernoulli" and full:
        lo, hi = [0] * xs.size, [n] * xs.size
    else:
        lo, hi = (v.tolist() for v in bernstein_window(kind, n, xs, tail_tol))
    weights = per_x_pmf_kernel(kind, n)
    starts = []
    for i in range(xs.size):
        if starts and (a <= lo[i] and hi[i] <= b or max(b, hi[i]) - min(a, lo[i]) < LATTICE_BLOCK):
            a, b = min(a, lo[i]), max(b, hi[i])
        else:
            starts.append(i)
            a, b = lo[i], hi[i]
    out = np.empty((len(fs), xs.size))
    for s, e in zip(starts, starts[1:] + [xs.size]):
        a, b = min(lo[s:e]), max(hi[s:e])
        blocks = [eval_clamped(f, np.arange(a, b + 1) / n) for f in fs]
        for i in range(s, e):
            w = weights(float(xs[i]), lo[i], hi[i])
            for row, fvals in zip(out, blocks):
                row[i] = np.sum(w * fvals[lo[i] - a:hi[i] - a + 1])
    return out


def mode_pmf(kind: str, n: int, x: float, m: int) -> float:
    """Scalar oracle for ``families._mode_pmfs``: the pmf at k = m in Loader's form,
    exp(-stirlerr and bd0 terms) / sqrt(2 pi v); m = 0 and m = n are single powers."""
    if kind == "bernoulli":
        if m == 0:
            return math.exp(n * math.log1p(-x))
        if m == n:
            return x**n
        lc = (stirlerr(n) - stirlerr(m) - stirlerr(n - m)
              - bd0(m, n * x) - bd0(n - m, n * (1.0 - x)))
        return math.exp(lc) / math.sqrt(2.0 * math.pi * m * (n - m) / n)
    mu = n * x
    if m == 0:
        return math.exp(-mu)
    return math.exp(-stirlerr(m) - bd0(m, mu)) / math.sqrt(2.0 * math.pi * m)


# stirlerr at k = 1..15, the floats nearest mpmath's values at 50 digits
STIRLERR_SMALL = (
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def stirlerr(k: int) -> float:
    """ln(k!) - ln(sqrt(2 pi k) (k/e)^k): a table of exact constants up to 15, the Stirling series above."""
    if k <= 15:
        return STIRLERR_SMALL[k - 1]
    kk = float(k) * k
    if k > 500:
        return (_S0 - _S1 / kk) / k
    if k > 80:
        return (_S0 - (_S1 - _S2 / kk) / kk) / k
    if k > 35:
        return (_S0 - (_S1 - (_S2 - _S3 / kk) / kk) / kk) / k
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / k


def bd0(k: float, np_: float) -> float:
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


def two_pass_modulus(f: TargetFunction, sigma, delta_grid, xs, h_size: int):
    """Oracle for ``modulus_profile``'s single pass, as it was computed in two:
    per delta, the max of |f(x + h sigma(x)) - f(x)| over xs and h_size h
    points, then a second pass over xs[::2] and h_size // 2 + 1 h points.
    Each pass is one array.  Returns (fine, coarse, slack, values)."""
    xs = np.asarray(xs, dtype=float)
    sig, base = np.asarray(sigma(xs), dtype=float), eval_clamped(f, xs)

    def raw(x, s, b, delta, size):
        if delta == 0.0:
            return 0.0
        hs = np.linspace(-delta, delta, size)[:, None]
        return float(np.max(np.abs(eval_clamped(f, x + hs * s) - b)))

    deltas = [float(d) for d in delta_grid]
    fine = np.array([raw(xs, sig, base, d, h_size) for d in deltas])
    coarse = np.array([raw(xs[::2], sig[::2], base[::2], d, h_size // 2 + 1) for d in deltas])
    return fine, coarse, max(float(np.max(fine - coarse)), 0.0), np.maximum.accumulate(fine)


def scale_function(f: TargetFunction, c: float) -> TargetFunction:
    """c * f with metadata scaled accordingly."""
    return TargetFunction(
        interval=f.interval,
        evaluator=lambda x, _f=f.evaluator, _c=c: _c * np.asarray(_f(x)),
        name=f"{c:g}*{f.name}",
        sup_abs=None if f.sup_abs is None else abs(c) * f.sup_abs,
        holder=None if f.holder is None else HolderSpec(f.holder.alpha, abs(c) * f.holder.seminorm),
    )


def fenchel_conjugate(g, u: float, lambda_grid=None, grid_size: int = DEFAULT_LAMBDA_GRID_SIZE) -> float:
    """Refined oracle for sup over lambda >= 0 of (lambda u - g(lambda)), convex g, g(0) = 0.

    The maximum on a uniform grid, refined by bounded golden-section search
    between the maximizer's neighbours.  The default grid ends at
    max(DEFAULT_LAMBDA_CAP, 2u), past which a g >= lambda^2/2 has no
    maximizer; a grid too short for its maximizer warns.
    """
    from scipy.optimize import minimize_scalar

    g1 = lambda lam: float(np.asarray(g(np.array([lam])))[0])  # noqa: E731  g takes arrays
    g0 = g1(0.0)
    if abs(g0) > 1e-9:
        raise ParameterError(f"g(0) must be 0, got {g0}")
    if u < 0:
        raise ParameterError(f"u must be nonnegative, got {u}")
    if lambda_grid is None:
        lambda_grid = np.linspace(0.0, max(DEFAULT_LAMBDA_CAP, 2.0 * u), grid_size)
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3 or grid[0] != 0.0:
        raise ParameterError("lambda grid must be 1-d, start at 0, size >= 3")
    gv = np.asarray(g(grid), dtype=float)
    h = grid * u - gv
    i = int(np.argmax(h))
    if i == grid.size - 1:
        warnings.warn(f"conjugate maximizer at the lambda grid boundary {grid[-1]:g} for u={u:g}",
                      BoundaryWarning)
    res = minimize_scalar(
        lambda lam: -(lam * u - g1(lam)),
        bounds=(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return max(0.0, float(h[i]), float(-res.fun))


def brute_force_conjugate_curve(nu, u_hint: float, grid_size: int = DEFAULT_LAMBDA_GRID_SIZE) -> TailCurve:
    """Oracle for ``conjugate_curve``: the same frozen lines, 0 and geometric
    lambdas up to max(DEFAULT_LAMBDA_CAP, 2 u_hint), every one scored at
    every u and the first maximum kept, then the same 4-ulp rounding,
    2 exp(-max(best, 0)) and boundary warning (once per read with a u on the
    last line and a Q above 0.0, naming the last breakpoint)."""
    grid = np.concatenate([[0.0], np.geomspace(LAMBDA_MIN, max(DEFAULT_LAMBDA_CAP, 2.0 * u_hint), grid_size - 1)])
    gv = np.asarray(nu(grid), dtype=float)
    eps = np.finfo(float).eps
    last_break = float(np.max(np.diff(gv) / np.diff(grid)))

    def fn(u):
        flat = np.ravel(np.asarray(u, dtype=float))
        lines = flat[:, None] * grid - gv
        j = np.argmax(lines, axis=1)
        best = lines[np.arange(flat.size), j] - 4.0 * eps * (np.abs(flat * grid[j]) + np.abs(gv[j]))
        q = 2.0 * np.exp(-np.maximum(best, 0.0))
        if np.any((j == grid.size - 1) & (q > 0.0)):
            warnings.warn(f"conjugate maximizer at the lambda grid boundary {grid[-1]:g} "
                          f"for u past the last breakpoint {last_break:g}", BoundaryWarning)
        return q.reshape(np.shape(u))

    return TailCurve(kind="conjugate", fn=fn,
                     params={"lambda_cap": float(grid[-1]), "lambda_grid_size": int(grid.size)})


def law_breakpoints(fam: Family, x: float, n: int, tol: float) -> np.ndarray:
    """The breakpoints |k - nx| / (sigma(x) sqrt(n)) of ``exact_law_curve`` for one n:
    one per lattice point k of the Bernstein window of tol, in k order."""
    (lo,), (hi,) = bernstein_window(fam.kind, n, np.array([x]), tol)
    return np.abs(np.arange(lo, hi + 1) - n * x) / (float(fam.sigma(x)) * math.sqrt(n))


def law_tail(kind: str, n: int, x: float, u: float) -> float:
    """Oracle for the exact law: P(|K - nx| > u sigma(x) sqrt(n)) for K ~ Binomial(n, x)
    or Poisson(nx), from mpmath's regularized incomplete beta and gamma functions at 40
    digits (scipy's binomial sf is off by up to about 1e-13 relative, more than the
    rounding the exact law is checked to).  Which lattice points lie past u is decided
    by the curve's own breakpoint expression, so that a u on a breakpoint splits the
    lattice as the curve does; a Poisson point beyond u + 12 standard deviations and 50
    more is left out, which for u <= 12 drops less than 1e-30."""
    import mpmath

    sig = math.sqrt(x * (1.0 - x)) if kind == "bernoulli" else math.sqrt(x)
    mu, scale = n * x, sig * math.sqrt(n)
    reach = (u + 12.0) * scale + 50.0
    k = np.arange(max(0, math.floor(mu - reach)), n + 1 if kind == "bernoulli" else math.ceil(mu + reach) + 1)
    past = np.abs(k - mu) / scale > u
    up, down = k[past & (k > mu)], k[past & (k < mu)]
    with mpmath.workdps(40):
        p = mpmath.mpf(x)
        if kind == "bernoulli":  # P(K >= a) = I_x(a, n - a + 1), P(K <= b) = I_{1-x}(n - b, b + 1)
            sf = lambda a: mpmath.betainc(a, n - a + 1, 0, p, regularized=True)  # noqa: E731
            cdf = lambda b: mpmath.betainc(n - b, b + 1, 0, 1 - p, regularized=True)  # noqa: E731
        else:  # P(K >= a) = P(a, nx), P(K <= b) = Q(b + 1, nx)
            sf = lambda a: mpmath.gammainc(a, 0, n * p, regularized=True)  # noqa: E731
            cdf = lambda b: mpmath.gammainc(b + 1, n * p, mpmath.inf, regularized=True)  # noqa: E731
        return float((sf(int(up[0])) if up.size else 0) + (cdf(int(down[-1])) if down.size else 0))


def law_abs_moment(kind: str, n: int, x: float, alpha: float) -> float:
    """Oracle for E|zeta_n(x)|^alpha, zeta_n(x) = (K - nx) / (sigma(x) sqrt(n)) with K ~
    Binomial(n, x) or Poisson(nx), from scipy's pmf; a Poisson point beyond 40 standard
    deviations and 50 more is left out."""
    sig = math.sqrt(x * (1.0 - x)) if kind == "bernoulli" else math.sqrt(x)
    mu, scale = n * x, sig * math.sqrt(n)
    if kind == "bernoulli":
        k, pmf = np.arange(n + 1), scipy.stats.binom(n, x).pmf
    else:
        reach = 40.0 * scale + 50.0
        k, pmf = np.arange(max(0, math.floor(mu - reach)), math.ceil(mu + reach) + 1), scipy.stats.poisson(mu).pmf
    return float(np.sum(pmf(k) * (np.abs(k - mu) / scale) ** alpha))


def step_read(u_grid, table, u: float, below: float) -> float:
    """The right-continuous step rule: the entry of the largest grid point <= u,
    ``below`` below the grid."""
    out = below
    for k, g in enumerate(u_grid):
        if g <= u:
            out = table[k]
    return float(out)


def gaussian_curve() -> TailCurve:
    """Subgaussian reference curve min(1, 2 exp(-u^2/2))."""
    fn = lambda u: 2.0 * np.exp(-0.5 * np.asarray(u, dtype=float) ** 2)  # noqa: E731
    return TailCurve(kind="subgaussian", fn=fn)


def exp_tail_curve(q: float, K: float) -> TailCurve:
    """Exponential-tail reference curve min(1, exp(-K u^q)), for a K the caller assumes."""
    fn = lambda u: np.exp(-K * np.asarray(u, dtype=float) ** q)  # noqa: E731
    return TailCurve(kind="exp-tail", fn=fn)


@dataclass(frozen=True)
class HdtExpBound:
    """Both readings of the exponential-tail closed form.

    ``direct`` integrates alpha H n^{-alpha/2} z^{alpha-1} exp(-K z^q)
    numerically (analytically H n^{-alpha/2} (alpha/q) K^{-alpha/q}
    Gamma(alpha/q)); ``printed_formula`` is the published variant without
    the 1/q factor.  ``ratio`` exposes the discrepancy (equal to q when the
    numerical integral is exact).
    """

    direct: float
    printed_formula: float
    closed_form: float
    ratio: float


def hdt_bound_exp(h: HolderSpec, q_exp: float, K: float, n: int) -> HdtExpBound:
    """quad oracle for the Holder closed form against the curve exp(-K z^q)."""
    from scipy.integrate import quad

    alpha, H = h.alpha, h.seminorm
    scale = H * n ** (-alpha / 2.0)

    # integral z^{alpha-1} exp(-K z^q) dz over (0, inf); substitute z = t^(1/alpha)
    # on (0,1) to absorb the origin singularity.
    head, _ = quad(lambda t: math.exp(-K * t ** (q_exp / alpha)), 0.0, 1.0, limit=200)
    head /= alpha
    body, _ = quad(lambda z: z ** (alpha - 1.0) * math.exp(-K * z**q_exp), 1.0, np.inf, limit=200)
    direct = scale * alpha * (head + body)

    closed = scale * (alpha / q_exp) * K ** (-alpha / q_exp) * math.gamma(alpha / q_exp)
    printed = scale * alpha * K ** (-alpha / q_exp) * math.gamma(alpha / q_exp)
    return HdtExpBound(
        direct=direct,
        printed_formula=printed,
        closed_form=closed,
        ratio=printed / direct if direct > 0 else math.inf,
    )
