"""Weighted (Ditzian-Totik style) modulus of continuity on a double grid.

omega_sigma[f](delta) = sup over |h| <= delta and x in I of
|f(x + h sigma(x)) - f(x)|, with f clamped at finite endpoints.  The step
weight sigma is the family's own (``Family.sigma``): the central inequality
rests on S_n - x = sigma(x) zeta_n / sqrt(n), so no other weight gives a
bound.  The sup is approximated on an (x, h) grid; the h-grid always
contains 0 and both endpoints +-delta, where monotone weights usually
attain the sup.  The grid slack is read off every other x and h point of
the same pass.

The x-sup runs over explicit x points.  The bound holds only at the x they
cover, so a study passes points over the family's interval, cut at the
x-domain's upper end when unbounded (``experiments.build_modulus_profile``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import GridResolutionWarning, InsufficientDataError, ParameterError
from .functions import HolderSpec, TargetFunction, eval_clamped
from .grids import resolve_grid, symmetric_grid

FRAME = 9 * 2**10  # floats of (x, h) points per evaluation of f in the modulus: 72 KiB


@dataclass(frozen=True)
class ModulusProfile:
    """Tabulated nondecreasing curve delta -> omega(delta) with grid slack."""

    deltas: np.ndarray
    values: np.ndarray
    enclosure_slack: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        d = np.asarray(self.deltas, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if d.shape != v.shape or d.ndim != 1 or d.size < 2:
            raise ParameterError("profile needs matching 1-d delta/value arrays")
        if d[0] != 0.0 or np.any(np.diff(d) <= 0):
            raise ParameterError("delta grid must start at 0 and increase strictly")
        if v[0] != 0.0 or np.any(v < 0) or np.any(np.diff(v) < 0):
            raise ParameterError("profile values must be nonnegative, start at 0, nondecrease")
        if self.enclosure_slack < 0:
            raise ParameterError("enclosure slack must be nonnegative")

    @property
    def delta_max(self) -> float:
        return float(self.deltas[-1])

    def value_lower(self, delta) -> np.ndarray:
        """Value at the largest tabulated delta <= target (an under-estimate)."""
        d = np.asarray(delta, dtype=float)
        idx = np.searchsorted(self.deltas, d, side="right") - 1
        idx = np.clip(idx, 0, self.deltas.size - 1)
        return self.values[idx]

    def value_upper(self, delta, f_sup: Optional[float] = None) -> np.ndarray:
        """Value at the smallest tabulated delta >= target (an over-estimate).

        Beyond the tabulated range the 2*sup|f| cap is used; without a known
        sup bound the call fails rather than guessing.
        """
        d = np.asarray(delta, dtype=float)
        beyond = d > self.deltas[-1]
        if np.any(beyond):
            if f_sup is None:
                raise InsufficientDataError(
                    f"profile covers deltas up to {self.delta_max:g} but "
                    f"{float(np.max(d)):g} was requested and no sup bound is known"
                )
            cap = 2.0 * f_sup
        else:
            cap = 0.0
        idx = np.searchsorted(self.deltas, np.where(beyond, self.deltas[-1], d), side="left")
        idx = np.clip(idx, 0, self.deltas.size - 1)
        out = np.where(beyond, cap, self.values[idx])
        return out


def _raw_modulus(f, xs, base, sig, delta, h_grid_size) -> tuple[float, float]:
    """(fine, coarse): max |f(x + h sigma(x)) - f(x)| over xs and an h grid on
    [-delta, delta], and over its every other x and h point.  The h rows go in
    blocks of at most FRAME floats through one frame, two on the default grids,
    each with two ndarray maxima (at 131 KiB, malloc could fault a block's
    pages in again for every delta); a non-finite block max re-evaluates the
    block through eval_clamped, which names the point."""
    if delta == 0.0:
        return 0.0, 0.0
    hs = symmetric_grid(delta, h_grid_size)[:, None]
    rows = max(1, FRAME // xs.size)
    frame = np.empty((min(rows, hs.size), xs.size))
    fine = coarse = 0.0
    for i in range(0, hs.size, rows):
        pts = np.multiply(hs[i:i + rows], sig, out=frame[:min(rows, hs.size - i)])
        np.add(pts, xs, out=pts)
        np.maximum(pts, f.interval.a, out=pts)  # eval_clamped's clamp, in place
        if f.interval.finite:
            np.minimum(pts, f.interval.b, out=pts)
        with np.errstate(all="ignore"):
            d = np.abs(np.subtract(np.asarray(f.evaluator(pts), dtype=float), base, out=pts), out=pts)
        top = float(d.max())
        if not math.isfinite(top):
            eval_clamped(f, xs + hs[i:i + rows] * sig)  # raises DomainEvaluationError at the point
        fine, coarse = max(fine, top), max(coarse, float(d[i % 2::2, ::2].max(initial=0.0)))
    return fine, coarse


def modulus_profile(
    f: TargetFunction,
    sigma: Callable[[np.ndarray], np.ndarray],
    delta_grid,
    x_grid,
    h_grid_size: int = 65,
) -> ModulusProfile:
    """Tabulate the modulus over an increasing delta grid starting at 0, the
    x-sup over the explicit increasing points ``x_grid``.

    sigma(xs) and f(xs) are read once, and f once at each (x, h) point.  The
    slack is the largest gap to the nested half grid, the fine grid's every
    other x and h point: ``h_grid_size`` is at least 5 and 1 more than a
    multiple of 4, so those h points hold 0 and +-delta too.  The
    running-maximum fix for discretization-induced dips is reported when it
    exceeds the slack.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if not (deltas.ndim == 1 and deltas.size >= 2 and deltas[0] == 0.0
            and np.all(np.isfinite(deltas)) and np.all(np.diff(deltas) > 0)):
        raise ParameterError("delta grid must be finite, start at 0 and increase strictly")
    xs = resolve_grid(x_grid)
    sig = np.asarray(sigma(xs), dtype=float)
    base = np.asarray(eval_clamped(f, xs), dtype=float)
    fine, coarse = np.array([_raw_modulus(f, xs, base, sig, float(d), h_grid_size) for d in deltas]).T
    slack = max(float(np.max(fine - coarse)), 0.0)

    values = np.maximum.accumulate(fine)
    adjustment = float(np.max(values - fine))
    if adjustment > slack + 1e-15:
        warnings.warn(
            f"monotonicity fix {adjustment:g} exceeds grid slack {slack:g}; "
            "refine the x/h grids",
            GridResolutionWarning,
        )
    meta = {"x_window": (float(xs[0]), float(xs[-1])), "h_grid_size": int(h_grid_size),
            "x_grid_size": int(xs.size)}
    return ModulusProfile(deltas=deltas, values=values, enclosure_slack=slack, metadata=meta)


def holder_seminorm(
    f: TargetFunction,
    sigma: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    profile: ModulusProfile,
) -> HolderSpec:
    """Smallest H with omega(delta) <= H delta^alpha on the tabulated grid."""
    if not (0.0 < alpha <= 1.0):
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    mask = profile.deltas > 0
    if int(np.count_nonzero(mask)) < 8:
        raise ParameterError("profile needs at least 8 nonzero deltas (log-spaced)")
    ratios = profile.values[mask] / profile.deltas[mask] ** alpha
    return HolderSpec(alpha, float(np.max(ratios)))


def default_delta_grid(size: int, delta_max: float) -> np.ndarray:
    """{0} followed by size - 1 log-spaced deltas from 1e-4 to delta_max,
    raised to 1e-3 if smaller so the grid spans a decade."""
    return np.concatenate([[0.0], np.geomspace(1e-4, max(delta_max, 1e-3), size - 1)])
