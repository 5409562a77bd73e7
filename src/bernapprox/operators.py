"""Approximation operators A_n[f](x) = E f(S_n) and the sup error over a grid.

Both families share one exact-sum kernel.  Per n it builds the windows of
n*S_n for the whole x grid at once, all of [0, n] for Binomial weights
(Bernstein polynomials) and the two-sided Chernoff windows
families.szasz_window for Poisson(nx) weights (Szasz sums), and the x-free
parts of the pmf ratios.  f is evaluated on k/n over lattice blocks of
consecutive windows, at most LATTICE_BLOCK points or one wider window each
(all of [0, n] for Bernstein), and each x slices its window out of its
block.  Per x one weight array, families.pmf_kernel's ratio recurrence out
of the mode, serves every function of the sweep.  The Szasz window drops at
most tail_tol / 2 of Poisson mass on each side, so its error radius
tail_tol * sup|f| certifies the truncation; the rounding of the weights is
not in the radius.  A seeded Monte Carlo path covers the generic
definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .families import (
    Family,
    pmf_kernel,
    sample_scaled_sum,
    spawn_rngs,
    szasz_window,
)
from .functions import TargetFunction, eval_clamped
from .grids import resolve_grid

MAX_BERNSTEIN_N = 2**20
LATTICE_BLOCK = 2**13  # k points of a lattice block of Szasz windows


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
    return _exact_sums((f,), "bernoulli", n, [x])[0][0]


def szasz_exact(f: TargetFunction, n: int, x: float, tail_tol: float = 1e-12) -> OperatorValue:
    """Szasz operator e^{-nx} sum_k (nx)^k/k! f(k/n), truncated with proof.

    The sum runs over the window [lo, hi] of szasz_window(nx, tail_tol):
    Chernoff bounds certify at most tail_tol / 2 of Poisson mass below lo and
    above hi each, so the dropped terms are bounded by the error radius
    tail_tol * sup|f|.  Requires f.sup_abs for that.  The radius covers the
    truncation, not the rounding of the mode-anchored weights.
    """
    return _exact_sums((f,), "poisson", n, [x], tail_tol)[0][0]


def _exact_sums(fs: Sequence[TargetFunction], kind: str, n: int, xs,
                tail_tol: float = 1e-12) -> tuple[tuple[OperatorValue, ...], ...]:
    """A_n[f](x) = sum_k P(n*S_n = k) f(k/n) at every x of xs, for each f of fs.

    n, x, tail_tol and each sup_abs are checked once.  Per x the sum runs over
    the window of n*S_n, [0, n] or szasz_window(nx, tail_tol), or over the
    single point nx where S_n = x almost surely (x = 0, or x = 1 for Binomial).
    Consecutive windows share one lattice block of f values while it spans at
    most LATTICE_BLOCK points, or while the window fits inside it.
    """
    if not (isinstance(n, (int, np.integer)) and 1 <= n <= MAX_BERNSTEIN_N):
        raise ParameterError(f"n must be an integer in [1, {MAX_BERNSTEIN_N}], got {n!r}")
    xs = np.asarray(xs, dtype=float)
    bad = xs[~np.isfinite(xs)]
    if bad.size:
        raise ParameterError(f"operator evaluation needs a finite x, got {bad[0]}")
    if kind == "bernoulli":
        bad = xs[~((0.0 <= xs) & (xs <= 1.0))]
        if bad.size:
            raise ParameterError(f"Bernstein evaluation needs x in [0, 1], got {bad[0]}")
        sure = (xs == 0.0) | (xs == 1.0)
        lo, hi = np.where(xs == 1.0, n, 0), np.where(xs == 0.0, 0, n)
        method, radii = "exact-sum", [0.0] * len(fs)
    else:
        bad = xs[xs < 0]
        if bad.size:
            raise ParameterError(f"Szasz evaluation needs x >= 0, got {bad[0]}")
        if not (0.0 < tail_tol <= 1e-6):
            raise ParameterError(f"tail_tol must be in (0, 1e-6], got {tail_tol}")
        for f in fs:
            if f.sup_abs is None:
                raise InsufficientDataError(
                    f"{f.name}: sup_abs metadata is required to certify the Szasz truncation")
        sure = xs == 0.0
        lo, hi = szasz_window(n * xs, tail_tol)
        method, radii = "truncated-sum", [tail_tol * f.sup_abs for f in fs]
    weights = pmf_kernel(kind, n)
    xs, sure, lo, hi = xs.tolist(), sure.tolist(), lo.tolist(), hi.tolist()
    starts = []
    for i in range(len(xs)):
        if starts and (a <= lo[i] and hi[i] <= b or max(b, hi[i]) - min(a, lo[i]) < LATTICE_BLOCK):
            a, b = min(a, lo[i]), max(b, hi[i])
        else:
            starts.append(i)
            a, b = lo[i], hi[i]
    outs = [[] for _ in fs]
    for s, e in zip(starts, starts[1:] + [len(xs)]):
        a, b = min(lo[s:e]), max(hi[s:e])
        blocks = [eval_clamped(f, np.arange(a, b + 1) / n) for f in fs]
        for i in range(s, e):
            if sure[i]:
                w, rs, how = 1.0, [0.0] * len(fs), "exact-sum"
            else:
                w, rs, how = weights(xs[i], lo[i], hi[i]), radii, method
            for out, fvals, r in zip(outs, blocks, rs):
                out.append(OperatorValue(float(np.sum(w * fvals[lo[i] - a:hi[i] - a + 1])), r, how))
    return tuple(tuple(out) for out in outs)


def generic_mc(
    f: TargetFunction,
    fam: Family,
    n: int,
    x: float,
    trials: int,
    rng: np.random.Generator,
) -> OperatorValue:
    """Monte Carlo estimate of E f(S_n) from the given generator, with a 3-sigma error radius."""
    if trials < 100:
        raise ParameterError(f"trials must be >= 100, got {trials}")
    sums = sample_scaled_sum(fam, x, n, rng, size=trials).astype(float)
    vals = np.asarray(eval_clamped(f, sums / n), dtype=float)
    mean = float(np.mean(vals))
    std = float(np.std(vals, ddof=1))
    return OperatorValue(mean, 3.0 * std / math.sqrt(trials), "monte-carlo")


def sup_errors(
    fs: Sequence[TargetFunction],
    fam: Family,
    n: int,
    x_grid,
    mode: str = "exact",
    tail_tol: float = 1e-12,
    trials: int = 10_000,
    seed=None,
) -> tuple[SupError, ...]:
    """Grid maximum of |A_n[f](x) - f(x)| over the family's x-domain, per f of fs.

    One pass of operator values over the grid, kept in ``values``; the
    exact path builds one weight array per x for all of fs.  In Monte Carlo
    mode each grid point draws from its own child generator spawned from
    ``seed``, afresh for each f.  The error radius is the worst operator
    radius seen on the grid; for the exact Bernstein path it is zero.
    """
    lo, hi = fam.x_domain
    grid = resolve_grid(x_grid)
    if grid.size < 33:
        raise ParameterError(f"x-grid must have at least 33 points, got {grid.size}")
    if grid[0] < lo or grid[-1] > hi:
        raise ParameterError(
            f"x-grid [{grid[0]}, {grid[-1]}] exceeds the x-domain [{lo}, {hi}]"
        )
    if mode == "exact":
        sweeps = _exact_sums(fs, fam.kind, n, grid, tail_tol)
    elif mode == "monte-carlo":
        sweeps = [tuple(generic_mc(f, fam, n, float(xi), trials, rng)
                        for xi, rng in zip(grid, spawn_rngs(seed, grid.size))) for f in fs]
    else:
        raise ParameterError(f"unknown mode {mode!r}; use 'exact' or 'monte-carlo'")
    out = []
    for f, values in zip(fs, sweeps):
        d = np.abs(np.array([ov.value for ov in values]) - eval_clamped(f, grid))
        i = int(np.argmax(d))  # the first maximum, in grid order
        out.append(SupError(
            n=n, delta=float(d[i]), argmax_x=float(grid[i]), x_grid_size=int(grid.size),
            error_radius=max(ov.error_radius for ov in values), values=values,
        ))
    return tuple(out)


def sup_error(f: TargetFunction, fam: Family, n: int, x_grid, mode: str = "exact",
              tail_tol: float = 1e-12, trials: int = 10_000, seed=None) -> SupError:
    """sup_errors for the one function f."""
    return sup_errors((f,), fam, n, x_grid, mode, tail_tol, trials, seed)[0]
