"""Approximation operators A_n[f](x) = E f(S_n) and the sup error over a grid.

Exact evaluators exist for both families: Bernstein polynomials (Binomial
weights, summed over all of [0, n]) and windowed Szasz sums (Poisson(nx)
weights summed over a two-sided Chernoff window).  Both take their weights
from families.scaled_sum_pmf, a ratio recurrence out of the mode.  The Szasz
window drops at most tail_tol / 2 of Poisson mass on each side, so its error
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
    normalized_sum_samples,
    resolve_rng,
    sample_scaled_sum,
    scaled_sum_pmf,
    spawn_rngs,
    szasz_truncation_point,
    szasz_window,
)
from .functions import TargetFunction, eval_clamped
from .grids import resolve_grid

MAX_BERNSTEIN_N = 2**20

__all__ = [
    "OperatorValue",
    "SupError",
    "bernstein_exact",
    "szasz_exact",
    "generic_mc",
    "operator_value",
    "sup_error",
    "normalized_sum_samples",
]


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
    _check_n(n, MAX_BERNSTEIN_N)
    if not (0.0 <= x <= 1.0):
        raise ParameterError(f"Bernstein evaluation needs x in [0, 1], got {x}")
    if x == 0.0:
        return OperatorValue(eval_clamped(f, 0.0), 0.0, "exact-sum")
    if x == 1.0:
        return OperatorValue(eval_clamped(f, 1.0), 0.0, "exact-sum")
    w = scaled_sum_pmf("bernoulli", n, x, 0, n)
    fvals = eval_clamped(f, np.arange(n + 1) / n)
    return OperatorValue(float(np.sum(w * fvals)), 0.0, "exact-sum")


def szasz_exact(f: TargetFunction, n: int, x: float, tail_tol: float = 1e-12) -> OperatorValue:
    """Szasz operator e^{-nx} sum_k (nx)^k/k! f(k/n), truncated with proof.

    The sum runs over the window [lo, hi] of szasz_window(nx, tail_tol):
    Chernoff bounds certify at most tail_tol / 2 of Poisson mass below lo and
    above hi each, so the dropped terms are bounded by the error radius
    tail_tol * sup|f|.  Requires f.sup_abs for that.  The radius covers the
    truncation, not the rounding of the mode-anchored weights.
    """
    _check_n(n, MAX_BERNSTEIN_N)
    if x < 0:
        raise ParameterError(f"Szasz evaluation needs x >= 0, got {x}")
    if not (0.0 < tail_tol <= 1e-6):
        raise ParameterError(f"tail_tol must be in (0, 1e-6], got {tail_tol}")
    if f.sup_abs is None:
        raise InsufficientDataError(
            f"{f.name}: sup_abs metadata is required to certify the Szasz truncation"
        )
    mu = n * x
    if mu == 0.0:  # S_n is a.s. zero; the single-term sum is exact
        return OperatorValue(eval_clamped(f, 0.0), 0.0, "exact-sum")
    lo, hi = szasz_window(mu, tail_tol)
    w = scaled_sum_pmf("poisson", n, x, lo, hi)
    fvals = eval_clamped(f, np.arange(lo, hi + 1) / n)
    value = float(np.sum(w * fvals))
    return OperatorValue(value, tail_tol * f.sup_abs, "truncated-sum")


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


def operator_value(
    f: TargetFunction,
    fam: Family,
    n: int,
    x: float,
    mode: str = "exact",
    tail_tol: float = 1e-12,
    trials: int = 10_000,
    seed=None,
    rng=None,
) -> OperatorValue:
    """Dispatch to the family's exact evaluator or the Monte Carlo path."""
    if mode == "exact":
        if fam.kind == "bernoulli":
            return bernstein_exact(f, n, x)
        return szasz_exact(f, n, x, tail_tol)
    if mode == "monte-carlo":
        return generic_mc(f, fam, n, x, trials, seed=seed, rng=rng)
    raise ParameterError(f"unknown mode {mode!r}; use 'exact' or 'monte-carlo'")


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
    rngs = [None] * grid.size
    if mode == "monte-carlo":
        if seed is None:
            raise ParameterError("monte-carlo sup error needs a seed")
        rngs = spawn_rngs(seed, grid.size)
    values = []
    best = -1.0
    best_x = grid[0]
    worst_radius = 0.0
    for xi, rng in zip(grid, rngs):
        ov = operator_value(f, fam, n, float(xi), mode=mode, tail_tol=tail_tol, trials=trials, rng=rng)
        values.append(ov)
        d = abs(ov.value - eval_clamped(f, float(xi)))
        worst_radius = max(worst_radius, ov.error_radius)
        if d > best:
            best = d
            best_x = float(xi)
    return SupError(
        n=n, delta=best, argmax_x=best_x, x_grid_size=int(grid.size),
        error_radius=worst_radius, values=tuple(values),
    )


def _check_n(n: int, n_max: int):
    if not (isinstance(n, (int, np.integer)) and 1 <= n <= n_max):
        raise ParameterError(f"n must be an integer in [1, {n_max}], got {n!r}")
