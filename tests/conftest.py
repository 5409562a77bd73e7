import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.special import gammaln

from bernapprox.errors import BoundaryWarning, ParameterError
from bernapprox.families import Family, _check_n, normalized_sum_samples, spawn_rngs
from bernapprox.functions import HolderSpec, TargetFunction, eval_clamped
from bernapprox.tails import (
    DEFAULT_LAMBDA_CAP, DEFAULT_LAMBDA_GRID_SIZE, MAX_CAP_DOUBLINGS, PowerTailSpec, TailCurve,
    _lambda_grid, poisson_conjugate,
)


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


def szasz_truncation_point(mu: float, tail_tol: float) -> int:
    """Bisection oracle: the smallest K with the Chernoff bound P(Poisson(mu) > K) <= tail_tol.

    The exponent is mu * h((K - mu)/mu) with h the exact Poisson conjugate,
    so the dropped mass is certified.  ``szasz_window`` finds the same cut
    by a bracketed vector scan.
    """
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


def szasz_window_oracle(mu: float, tail_tol: float) -> tuple[int, int]:
    """Scalar oracle for ``szasz_window``: one bracketed scan per side for one mu.

    hi is the smallest K >= mu whose upper exponent mu * h((K-mu)/mu) reaches
    ln(2 / tail_tol), lo is 1 + the largest j <= mu whose lower exponent
    mu * h((mu-j)/mu) reaches it, or 0 if none does.
    """
    if mu <= 0:
        return 0, 0
    target = math.log(2.0 / tail_tol)
    # s^2 / (2 + 2s/3) <= h(s) <= s^2 / 2 puts the last j that reaches the target
    # in [mu - t - target, mu - t] and the first K in [mu + t, mu + t1]
    t = math.sqrt(2.0 * mu * target)
    t1 = target / 3.0 + math.sqrt(target * target / 9.0 + t * t)
    j = np.arange(max(0, math.floor(mu - t - target)), max(0, math.floor(mu - t)) + 1)
    k = np.arange(max(math.ceil(mu), math.floor(mu + t)), math.ceil(mu + t1) + 2)
    misses = np.flatnonzero(mu * poisson_conjugate((mu - j) / mu) < target)
    hits = np.flatnonzero(mu * poisson_conjugate((k - mu) / mu) >= target)
    lo = int(j[misses[0]]) if misses.size else int(j[-1]) + 1
    hi = int(k[hits[0]]) if hits.size else int(k[-1]) + 1
    return lo, hi


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

    g0 = float(g(0.0))
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
        lambda lam: -(lam * u - float(g(lam))),
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
    boundary warning and 2 exp(-max(best, 0))."""
    grid, gv = _lambda_grid(nu, u_hint, lambda_cap, grid_size)
    eps = np.finfo(float).eps

    def fn(u):
        flat = np.ravel(np.asarray(u, dtype=float))
        if np.any(flat < 0):
            raise ParameterError(f"u must be nonnegative, got {flat[flat < 0][0]}")
        lines = flat[:, None] * grid - gv
        j = np.argmax(lines, axis=1)
        best = lines[np.arange(flat.size), j] - 4.0 * eps * (np.abs(flat * grid[j]) + np.abs(gv[j]))
        for v in flat[j == grid.size - 1]:
            warnings.warn(f"conjugate maximizer at the lambda grid boundary {grid[-1]:g} for u={v:g}",
                          BoundaryWarning)
        return (2.0 * np.exp(-np.maximum(best, 0.0))).reshape(np.shape(u))

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
