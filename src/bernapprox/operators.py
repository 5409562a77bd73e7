"""Approximation operators A_n[f](x) = E f(S_n) and the sup error over a grid.

Both families share one exact-sum kernel: per x it takes the window of
n*S_n, all of [0, n] for Binomial weights (Bernstein polynomials) and the
two-sided Chernoff window families.szasz_window for Poisson(nx) weights
(Szasz sums), and sums families.scaled_sum_pmf, a ratio recurrence out of
the mode, against f(k/n).  f is evaluated on k/n again only when the
window changes, so a Bernstein grid evaluates it once.  The Szasz window
drops at most tail_tol / 2 of Poisson mass on each side, so its error
radius tail_tol * sup|f| certifies the truncation; the rounding of the
weights is not in the radius.  A seeded Monte Carlo path covers the generic
definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .families import (
    Family,
    resolve_rng,
    sample_scaled_sum,
    scaled_sum_pmf,
    spawn_rngs,
    szasz_window,
)
from .functions import TargetFunction, eval_clamped
from .grids import resolve_grid

MAX_BERNSTEIN_N = 2**20


@dataclass(frozen=True)
class OperatorValue:
    value: float
    error_radius: float
    method: str  # "exact-sum" | "truncated-sum" | "monte-carlo"

    def __post_init__(self):
        if self.method not in ("exact-sum", "truncated-sum", "monte-carlo"):
            raise ParameterError(f"unknown method {self.method!r}")
        if self.error_radius < 0:
            raise ParameterError("error radius must be nonnegative")
        if self.method == "exact-sum" and self.error_radius != 0.0:
            raise ParameterError("exact-sum requires a zero error radius")


@dataclass(frozen=True)
class SupError:
    """Grid approximation of Delta_n = sup_x |A_n[f](x) - f(x)|."""

    n: int
    delta: float
    argmax_x: float
    x_grid_size: int
    error_radius: float
    values: tuple[OperatorValue, ...] = field(default=(), repr=False, compare=False)


def bernstein_exact(f: TargetFunction, n: int, x: float) -> OperatorValue:
    """Bernstein polynomial sum_m C(n,m) f(m/n) x^m (1-x)^(n-m).

    The Binomial weights come from the mode-anchored ratio recurrence, so
    n up to 2^20 is safe.  The result is affine in f and reproduces affine
    functions exactly.
    """
    return _exact_sums(f, "bernoulli", n, [x])[0]


def szasz_exact(f: TargetFunction, n: int, x: float, tail_tol: float = 1e-12) -> OperatorValue:
    """Szasz operator e^{-nx} sum_k (nx)^k/k! f(k/n), truncated with proof.

    The sum runs over the window [lo, hi] of szasz_window(nx, tail_tol):
    Chernoff bounds certify at most tail_tol / 2 of Poisson mass below lo and
    above hi each, so the dropped terms are bounded by the error radius
    tail_tol * sup|f|.  Requires f.sup_abs for that.  The radius covers the
    truncation, not the rounding of the mode-anchored weights.
    """
    return _exact_sums(f, "poisson", n, [x], tail_tol)[0]


def _exact_sums(f: TargetFunction, kind: str, n: int, xs,
                tail_tol: float = 1e-12) -> tuple[OperatorValue, ...]:
    """A_n[f](x) = sum_k P(n*S_n = k) f(k/n) at every x of xs, for either family.

    n, x, tail_tol and f.sup_abs are checked once.  Per x the sum runs over
    the window of n*S_n, [0, n] or szasz_window(nx, tail_tol), or over the
    single point nx where S_n = x almost surely (x = 0, or x = 1 for Binomial).
    """
    if not (isinstance(n, (int, np.integer)) and 1 <= n <= MAX_BERNSTEIN_N):
        raise ParameterError(f"n must be an integer in [1, {MAX_BERNSTEIN_N}], got {n!r}")
    xs = [float(x) for x in xs]
    if kind == "bernoulli":
        bad = [x for x in xs if not 0.0 <= x <= 1.0]
        if bad:
            raise ParameterError(f"Bernstein evaluation needs x in [0, 1], got {bad[0]}")
        method, radius = "exact-sum", 0.0
    else:
        bad = [x for x in xs if x < 0]
        if bad:
            raise ParameterError(f"Szasz evaluation needs x >= 0, got {bad[0]}")
        if not (0.0 < tail_tol <= 1e-6):
            raise ParameterError(f"tail_tol must be in (0, 1e-6], got {tail_tol}")
        if f.sup_abs is None:
            raise InsufficientDataError(
                f"{f.name}: sup_abs metadata is required to certify the Szasz truncation")
        method, radius = "truncated-sum", tail_tol * f.sup_abs
    out = []
    window = fvals = None
    for x in xs:
        if x == 0.0 or (x == 1.0 and kind == "bernoulli"):
            lo = hi = round(n * x)
            w, r, how = 1.0, 0.0, "exact-sum"
        else:
            lo, hi = (0, n) if kind == "bernoulli" else szasz_window(n * x, tail_tol)
            w, r, how = scaled_sum_pmf(kind, n, x, lo, hi), radius, method
        if (lo, hi) != window:
            window, fvals = (lo, hi), eval_clamped(f, np.arange(lo, hi + 1) / n)
        out.append(OperatorValue(float(np.sum(w * fvals)), r, how))
    return tuple(out)


def generic_mc(
    f: TargetFunction,
    fam: Family,
    n: int,
    x: float,
    trials: int,
    seed=None,
    rng: Optional[np.random.Generator] = None,
) -> OperatorValue:
    """Monte Carlo estimate of E f(S_n) with a 3-sigma error radius."""
    if trials < 100:
        raise ParameterError(f"trials must be >= 100, got {trials}")
    gen = resolve_rng(seed, rng)
    sums = sample_scaled_sum(fam, x, n, gen, size=trials).astype(float)
    vals = np.asarray(eval_clamped(f, sums / n), dtype=float)
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1))
    return OperatorValue(mean, 3.0 * std / math.sqrt(trials), "monte-carlo")


def sup_error(
    f: TargetFunction,
    fam: Family,
    n: int,
    x_grid,
    mode: str = "exact",
    tail_tol: float = 1e-12,
    trials: int = 10_000,
    seed=None,
) -> SupError:
    """Grid maximum of |A_n[f](x) - f(x)| over the family's x-domain.

    One pass of operator values over the grid, kept in ``values``; in Monte
    Carlo mode each grid point draws from its own child generator spawned
    from ``seed``.  The error radius is the worst operator radius seen on the
    grid; for the exact Bernstein path it is zero.
    """
    lo, hi = fam.x_domain
    grid = resolve_grid(x_grid, lo, hi)
    if grid.size < 33:
        raise ParameterError(f"x-grid must have at least 33 points, got {grid.size}")
    if grid[0] < lo or grid[-1] > hi:
        raise ParameterError(
            f"x-grid [{grid[0]}, {grid[-1]}] exceeds the x-domain [{lo}, {hi}]"
        )
    if mode == "exact":
        values = _exact_sums(f, fam.kind, n, grid, tail_tol)
    elif mode == "monte-carlo":
        if seed is None:
            raise ParameterError("monte-carlo sup error needs a seed")
        values = tuple(generic_mc(f, fam, n, float(xi), trials, rng=rng)
                       for xi, rng in zip(grid, spawn_rngs(seed, grid.size)))
    else:
        raise ParameterError(f"unknown mode {mode!r}; use 'exact' or 'monte-carlo'")
    d = np.abs(np.array([ov.value for ov in values]) - eval_clamped(f, grid))
    i = int(np.argmax(d))  # the first maximum, in grid order
    return SupError(
        n=n, delta=float(d[i]), argmax_x=float(grid[i]), x_grid_size=int(grid.size),
        error_radius=max(ov.error_radius for ov in values), values=values,
    )
