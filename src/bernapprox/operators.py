"""Approximation operators A_n[f](x) = E f(S_n) and the sup error over a grid.

``sup_errors`` is the one entry: it returns A_n[f] on the whole x grid as
an array, with an error radius at each x.  Both families share one
exact-sum path.  Per n it builds the windows of n*S_n for the whole grid at
once by one rule, families.bernstein_window: Bernstein's inequality, with
the variance of the law, for Binomial weights (Bernstein polynomials) and
for Poisson(nx) weights (Szasz sums).  families.frames plans the sweep and
yields it chunk by chunk, with each function's products of weights and
f(k/n); this module sums each row over exactly its own window, so every
value is the float a sweep of one x at a time gives.  Each window drops at
most tail_tol / 2 of the mass on each side, so the error radius
tail_tol * sup|f| certifies the truncation; the rounding of the weights is
not in the radius.  A seeded Monte Carlo path covers the generic
definition, with a 3-sigma radius at each x.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .families import (
    Family,
    bernstein_window,
    frames,
    sample_scaled_sum,
    spawn_rngs,
)
from .functions import TargetFunction, eval_clamped
from .grids import resolve_grid

MAX_BERNSTEIN_N = 2**22
BUFSIZE = 512  # floats of numpy's buffer per operand of a ufunc call in the sweep


class SupError(NamedTuple):
    """Grid approximation of Delta_n = sup_x |A_n[f](x) - f(x)|, with A_n[f] and
    its error radius at each grid x in ``values`` and ``radii``."""

    delta: float
    argmax_x: float
    error_radius: float  # max(radii)
    values: np.ndarray
    radii: np.ndarray


def _exact_sums(fs: Sequence[TargetFunction], kind: str, n: int, xs: np.ndarray,
                tail_tol: float = 1e-12) -> tuple[np.ndarray, list[float]]:
    """A_n[f](x) = sum_k P(n*S_n = k) f(k/n) at every x of xs, for each f of fs, as one
    (len(fs), len(xs)) array, and each f's error radius.

    xs is a finite grid inside a family's x-domain, so 0 < x (and x < 1 for
    Binomial) and n*S_n is never a point mass.  n, tail_tol and each sup_abs
    are checked once.  Per x the sum runs over the window of n*S_n,
    bernstein_window(kind, n, x, tail_tol), of the products that
    families.frames yields, one reduce per run of rows with one window (of a
    one-row chunk's whole row), so a value is the same float as from a chunk
    of its own.  Each window drops at most tail_tol of the mass, so the
    radius is tail_tol * sup|f| for both families.
    """
    if not (isinstance(n, (int, np.integer)) and 1 <= n <= MAX_BERNSTEIN_N):
        raise ParameterError(f"n must be an integer in [1, {MAX_BERNSTEIN_N}], got {n!r}")
    if not (0.0 < tail_tol <= 1e-6):
        raise ParameterError(f"tail_tol must be in (0, 1e-6], got {tail_tol}")
    for f in fs:
        if f.sup_abs is None:
            raise InsufficientDataError(f"{f.name}: sup_abs metadata is required to certify the window")
    lo, hi = bernstein_window(kind, n, xs, tail_tol)
    out = np.empty((len(fs), xs.size))
    with np.errstate():  # restores the buffer size on exit
        # a broadcasting ufunc call on a chunk buffers its operands; numpy's
        # default buffer of 8192 floats per operand would outweigh the chunk
        np.setbufsize(BUFSIZE)
        for s, e, a, _, p, runs in frames(kind, n, xs, lo, hi, fs):
            if e - s == 1:  # a one-row frame is its window
                np.add.reduce(p, axis=1, out=out[:, s])
                continue
            for i, j, l, h in runs:
                np.add.reduce(p[:, i - s:j - s, l - a:h - a + 1], axis=2, out=out[:, i:j])
    return out, [tail_tol * f.sup_abs for f in fs]


def generic_mc(
    f: TargetFunction,
    fam: Family,
    n: int,
    x: float,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of E f(S_n) from the given generator, and its 3-sigma error radius."""
    if trials < 100:
        raise ParameterError(f"trials must be >= 100, got {trials}")
    sums = sample_scaled_sum(fam, x, n, rng, size=trials).astype(float)
    vals = np.asarray(eval_clamped(f, sums / n), dtype=float)
    return float(np.mean(vals)), 3.0 * float(np.std(vals, ddof=1)) / math.sqrt(trials)


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
    """A_n[f] on the grid, and the grid maximum of |A_n[f](x) - f(x)| over the family's
    x-domain, per f of fs.

    The exact path builds the weights of each x's window once for all of
    fs; each x's radius is its f's one radius, tail_tol * sup|f| for either
    family.  In Monte Carlo mode each grid point draws from its own child
    generator spawned from ``seed``, afresh for each f, and has its own
    3-sigma radius.  The error radius is the largest radius on the grid.
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
        values, rs = _exact_sums(fs, fam.kind, n, grid, tail_tol)
        radii = np.repeat(np.reshape(rs, (-1, 1)), grid.size, axis=1)
    elif mode == "monte-carlo":
        draws = [[generic_mc(f, fam, n, float(xi), trials, rng)
                  for xi, rng in zip(grid, spawn_rngs(seed, grid.size))] for f in fs]
        values, radii = np.array(draws).transpose(2, 0, 1)
    else:
        raise ParameterError(f"unknown mode {mode!r}; use 'exact' or 'monte-carlo'")
    out = []
    for f, v, r in zip(fs, values, radii):
        d = np.abs(v - eval_clamped(f, grid))
        i = int(np.argmax(d))  # the first maximum, in grid order
        out.append(SupError(delta=float(d[i]), argmax_x=float(grid[i]),
                            error_radius=float(r.max()), values=v, radii=r))
    return tuple(out)


def sup_error(f: TargetFunction, fam: Family, n: int, x_grid, mode: str = "exact",
              tail_tol: float = 1e-12, trials: int = 10_000, seed=None) -> SupError:
    """sup_errors for the one function f."""
    return sup_errors((f,), fam, n, x_grid, mode, tail_tol, trials, seed)[0]
