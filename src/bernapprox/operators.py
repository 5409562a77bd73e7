"""Approximation operators A_n[f](x) = E f(S_n) and the sup error over a grid.

``sup_errors`` is the one entry: it returns A_n[f] on the whole x grid as
an array, with an error radius at each x.  Both families share one
exact-sum kernel and one path through it.  Per n it builds the windows of
n*S_n for the whole grid at once: families.bernstein_window, from
Bernstein's inequality, for Binomial weights (Bernstein polynomials) and
families.szasz_window, from the Poisson Chernoff bound, for Poisson(nx)
weights (Szasz sums).  The chunks of consecutive x that share one frame of
pmf weights, rows by [min lo, max hi], are planned for the whole grid at
once.  f(k/n) is read from a lattice buffer that slides up with the chunks
and is filled ahead in pieces of at most LATTICE_BLOCK points, so each
lattice point is evaluated once per function.  families.pmf_kernel fills a
chunk's frame with a few batched ufunc calls; each function of the sweep
multiplies it once, and each row is summed over exactly its own window, so
every value is the float a sweep of one x at a time gives.  Each window
drops at most tail_tol / 2 of the mass on each side, so the error radius
tail_tol * sup|f| certifies the truncation; the rounding of the weights is
not in the radius.  A seeded Monte Carlo path covers the generic
definition, with a 3-sigma radius at each x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .families import (
    Family,
    bernstein_window,
    pmf_kernel,
    sample_scaled_sum,
    spawn_rngs,
    szasz_window,
)
from .functions import TargetFunction, eval_clamped
from .grids import resolve_grid

MAX_BERNSTEIN_N = 2**22
LATTICE_BLOCK = 2**12  # lattice points of f per evaluation, and the lattice buffer's read-ahead
CHUNK = 2**13  # weights in a chunk's frame, unless its one window is wider
BUFSIZE = 512  # floats of numpy's buffer per operand of a ufunc call in the sweep


@dataclass(frozen=True)
class SupError:
    """Grid approximation of Delta_n = sup_x |A_n[f](x) - f(x)|, with A_n[f] and
    its error radius at each grid x in ``values`` and ``radii``."""

    delta: float
    argmax_x: float
    error_radius: float  # max(radii)
    values: np.ndarray = field(repr=False, compare=False)
    radii: np.ndarray = field(repr=False, compare=False)


def _exact_sums(fs: Sequence[TargetFunction], kind: str, n: int, xs: np.ndarray,
                tail_tol: float = 1e-12) -> tuple[np.ndarray, list[float]]:
    """A_n[f](x) = sum_k P(n*S_n = k) f(k/n) at every x of xs, for each f of fs, as one
    (len(fs), len(xs)) array, and each f's error radius.

    xs is a finite grid inside a family's x-domain, so 0 < x (and x < 1 for
    Binomial) and n*S_n is never a point mass.  n, tail_tol and each sup_abs
    are checked once.  Per x the sum runs over the window of n*S_n,
    bernstein_window(n, x, tail_tol) or szasz_window(nx, tail_tol).  The
    chunks (_chunk_starts), their frames, mode bands and runs of rows with one
    window are planned up front, and the buffers allocated once.  A lattice
    buffer holds the ratio bases and f(k/n) of each f on k = fa..fb; a chunk
    past fb slides it up to the chunk's lowest k, keeping what it holds from
    there, and it is filled ahead in pieces of at most LATTICE_BLOCK points.
    The windows move up with x, so each lattice point is evaluated once per f.
    Each f multiplies a chunk once, and each row is summed over exactly its
    own window, so a value is the same float as from a chunk of its own.  Each
    window drops at most tail_tol of the mass, so the radius is
    tail_tol * sup|f| for both families.
    """
    if not (isinstance(n, (int, np.integer)) and 1 <= n <= MAX_BERNSTEIN_N):
        raise ParameterError(f"n must be an integer in [1, {MAX_BERNSTEIN_N}], got {n!r}")
    if not (0.0 < tail_tol <= 1e-6):
        raise ParameterError(f"tail_tol must be in (0, 1e-6], got {tail_tol}")
    for f in fs:
        if f.sup_abs is None:
            raise InsufficientDataError(f"{f.name}: sup_abs metadata is required to certify the window")
    lo, hi = bernstein_window(n, xs, tail_tol) if kind == "bernoulli" else szasz_window(n * xs, tail_tol)
    modes, base_rows, bases, weights = pmf_kernel(kind, n, xs, lo, hi)
    starts = _chunk_starts(lo, hi, modes)
    ends = np.append(starts[1:], xs.size)
    ca, cb = np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)
    m0, m1 = np.minimum.reduceat(modes, starts), np.maximum.reduceat(modes, starts)
    # runs of consecutive rows of a chunk with one window, each summed by one reduce
    first = np.diff(lo, prepend=-1) | np.diff(hi, prepend=-1)  # nonzero where a window starts a run
    first[starts] = 1
    run = np.flatnonzero(first)
    runs = list(zip(run.tolist(), np.append(run[1:], xs.size).tolist(), lo[run].tolist(), hi[run].tolist()))
    r0 = np.searchsorted(run, starts)
    plan = zip(starts.tolist(), ends.tolist(), ca.tolist(), cb.tolist(), m0.tolist(), m1.tolist(),
               r0.tolist(), np.append(r0[1:], run.size).tolist())
    rows, width = ends - starts, cb - ca + 1
    frame, scratch = np.empty(int(np.max(rows * width))), np.empty(int(np.max(rows * (m1 - m0 + 1))))
    prod = np.empty(len(fs) * frame.size)
    fa, fb, top = 0, -1, int(np.max(hi))
    # the ratio bases, then f(k/n) per f, on k = fa..fb
    lattice = np.empty((base_rows + len(fs), min(int(np.max(width)) + LATTICE_BLOCK, top - int(np.min(lo)) + 1)))
    out = np.empty((len(fs), xs.size))
    with np.errstate():  # restores the buffer size on exit
        # a broadcasting ufunc call on a chunk buffers its operands; numpy's
        # default buffer of 8192 floats per operand would outweigh the chunk
        np.setbufsize(BUFSIZE)
        for s, e, a, b, mode0, mode1, r0, r1 in plan:
            if a < fa or b > fb:  # slide the buffer to start at a, keeping what it holds from a on
                keep = max(0, fb - a + 1) if a >= fa else 0
                lattice[:, :keep] = lattice[:, a - fa:a - fa + keep]
                fa, fb = a, min(a + lattice.shape[1] - 1, top)
                for k0 in range(a + keep, fb + 1, LATTICE_BLOCK):
                    piece = lattice[:, k0 - a:min(k0 + LATTICE_BLOCK, fb + 1) - a]
                    k = np.arange(k0, k0 + piece.shape[1], dtype=float)
                    bases(k, piece)
                    x = np.divide(k, n, out=piece[-1])  # k/n, until the last f overwrites it
                    del k
                    for row, f in zip(piece[-len(fs):], fs):
                        row[:] = eval_clamped(f, x)
            lat = lattice[:, a - fa:b - fa + 1]
            w = weights(s, e, a, mode0, mode1, lat[:base_rows], frame, scratch)
            p = prod[:len(fs) * w.size].reshape(len(fs), -1, b - a + 1)
            np.multiply(w, lat[base_rows:, None], out=p)
            for i, j, l, h in runs[r0:r1]:
                np.add.reduce(p[:, i - s:j - s, l - a:h - a + 1], axis=2, out=out[:, i:j])
    return out, [tail_tol * f.sup_abs for f in fs]


def _chunk_starts(lo: np.ndarray, hi: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """The first row of each chunk: the consecutive rows whose modes lie within
    CHUNK // 32 of its first, as many as a frame of CHUNK floats holds, if that
    is three or more (a band chunk makes about twice the ufunc calls of a
    one-row chunk), else one row.  Running maxima keep it defined for any x order."""
    first, modes, hi = np.arange(lo.size), np.maximum.accumulate(modes), np.maximum.accumulate(hi)
    end = np.searchsorted(modes, modes + CHUNK // 32, side="right")
    rows = np.minimum(end - first, CHUNK // (hi[end - 1] - lo + 1))
    reach = np.where(rows >= 3, first + rows, first + 1).tolist()
    starts, i = [], 0
    while i < lo.size:
        starts.append(i)
        i = reach[i]
    return np.array(starts)


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
