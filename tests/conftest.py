import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import gammaln

from bernapprox.errors import BoundaryWarning, ParameterError
from bernapprox.families import (
    _LN_SQRT_2PI, _S0, _S1, _S2, _S3, _S4, Family, _check_n, bernstein_window, normalized_sum_samples,
    spawn_rngs,
)
from bernapprox.functions import HolderSpec, TargetFunction, eval_clamped
from bernapprox.operators import LATTICE_BLOCK
from bernapprox.tails import (
    DEFAULT_LAMBDA_CAP, DEFAULT_LAMBDA_GRID_SIZE, MAX_CAP_DOUBLINGS, PowerTailSpec, TailCurve, _lambda_grid,
)


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
    """Oracle for ``families.pmf_kernel``, one x at a time: weights(x, lo, hi) =
    P(n*S_n = k) for k = lo..hi, from the ratio recurrence out of the mode
    min(max(floor((n+1)x) or floor(nx), lo), hi), whose pmf is ``mode_pmf``."""
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


def stirlerr(k: int) -> float:
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


def scalar_z_max(curve: TailCurve, floor: float, cap: float) -> float:
    """Oracle for ``tails.tail_z_max``: the bisection of [0, cap] with one scalar
    read of the curve per step."""
    if curve.at(0.0) < floor:
        return 0.0
    if curve.at(cap) >= floor:
        return cap
    lo, hi = 0.0, cap
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if curve.at(mid) < floor:
            hi = mid
        else:
            lo = mid
    return hi


def scale_function(f: TargetFunction, c: float) -> TargetFunction:
    """c * f with metadata scaled accordingly."""
    return TargetFunction(
        interval=f.interval,
        evaluator=lambda x, _f=f.evaluator, _c=c: _c * np.asarray(_f(x)),
        name=f"{c:g}*{f.name}",
        sup_abs=None if f.sup_abs is None else abs(c) * f.sup_abs,
        holder=None if f.holder is None else HolderSpec(f.holder.alpha, abs(c) * f.holder.seminorm),
    )


def fenchel_conjugate(
    g,
    u: float,
    lambda_grid=None,
    lambda_cap: float = DEFAULT_LAMBDA_CAP,
    grid_size: int = DEFAULT_LAMBDA_GRID_SIZE,
) -> float:
    """Refined oracle for sup over lambda >= 0 of (lambda u - g(lambda)), convex g, g(0) = 0.

    The maximum on a uniform grid on [0, cap], refined by bounded
    golden-section search between the maximizer's neighbours.  With the
    default grid the cap doubles (up to MAX_CAP_DOUBLINGS times) while the
    maximizer lands on the boundary; an explicit grid only warns.
    """
    from scipy.optimize import minimize_scalar

    g1 = lambda lam: float(np.asarray(g(np.array([lam])))[0])  # noqa: E731  g takes arrays
    g0 = g1(0.0)
    if abs(g0) > 1e-9:
        raise ParameterError(f"g(0) must be 0, got {g0}")
    if u < 0:
        raise ParameterError(f"u must be nonnegative, got {u}")
    if lambda_grid is None:
        for attempt in range(MAX_CAP_DOUBLINGS + 1):
            grid = np.linspace(0.0, lambda_cap, grid_size)
            gv = np.asarray(g(grid), dtype=float)
            if int(np.argmax(grid * u - gv)) < grid_size - 1 or attempt == MAX_CAP_DOUBLINGS:
                break
            lambda_cap *= 2.0
    else:
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


def brute_force_conjugate_curve(
    nu,
    u_hint: float,
    lambda_cap: float = DEFAULT_LAMBDA_CAP,
    grid_size: int = DEFAULT_LAMBDA_GRID_SIZE,
) -> TailCurve:
    """Oracle for ``conjugate_curve``: the same frozen lines, every one scored
    at every u and the first maximum kept, then the same 4-ulp rounding,
    2 exp(-max(best, 0)) and boundary warning (once per read with a u on the
    last line and a Q above 0.0, naming the last breakpoint)."""
    grid, gv = _lambda_grid(nu, u_hint, lambda_cap, grid_size)
    eps = np.finfo(float).eps
    last_break = float(np.max(np.diff(gv) / np.diff(grid)))

    def fn(u):
        flat = np.ravel(np.asarray(u, dtype=float))
        if np.any(flat < 0):
            raise ParameterError(f"u must be nonnegative, got {flat[flat < 0][0]}")
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


def empirical_table(fam: Family, x: float, u_grid, n_set, trials: int, seed):
    """Oracle for ``empirical_atf``'s table on u_grid: per n, from its spawned
    child generator, the frequency of |zeta_n| > u; the max over n, made
    nonincreasing from the right and capped at 1; and one binomial standard
    error of each value.  Returns (values, half_widths)."""
    us = [float(u) for u in u_grid]
    ns = sorted(set(int(n) for n in n_set))
    vals = [0.0] * len(us)
    for n, rng in zip(ns, spawn_rngs(seed, len(ns))):
        z = np.abs(normalized_sum_samples(fam, x, n, trials, rng))
        vals = [max(v, float(np.mean(z > u))) for v, u in zip(vals, us)]
    for i in range(len(us) - 2, -1, -1):
        vals[i] = max(vals[i], vals[i + 1])
    vals = np.minimum(1.0, vals)
    return vals, np.sqrt(vals * (1.0 - vals) / trials)


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


def hdt_bound_exp(h: HolderSpec, spec: PowerTailSpec, n: int) -> HdtExpBound:
    """quad oracle for the Holder closed form against the curve exp(-K z^q)."""
    from scipy.integrate import quad

    alpha, H = h.alpha, h.seminorm
    q_exp, K = spec.q, spec.K
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
