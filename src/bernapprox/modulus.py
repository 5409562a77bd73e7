"""Weighted (Ditzian-Totik style) modulus of continuity on a double grid.

omega_sigma[f](delta) = sup over |h| <= delta and x in I of
|f(x + h sigma(x)) - f(x)|, with f clamped at finite endpoints.  The sup is
approximated on an (x, h) grid; the h-grid always contains 0 and both
endpoints +-delta, where monotone weights usually attain the sup.

For an unbounded interval the x-sup is truncated to a window recorded in
the profile metadata; whether the window captures the sup is the caller's
responsibility (bounded f with known decay keeps the window error small).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    GridResolutionWarning,
    InsufficientDataError,
    ParameterError,
    WeightDomainError,
)
from .families import Family, sigma_weight
from .functions import HolderSpec, TargetFunction, eval_clamped
from .grids import resolve_grid, symmetric_grid


WEIGHT_KINDS = ("family-sigma", "jacobi", "unit")


@dataclass(frozen=True)
class WeightSpec:
    """Pointwise step weight sigma(x): family sigma, Jacobi, or constant 1."""

    kind: str  # "family-sigma" | "jacobi" | "unit"
    family: Optional[Family] = None
    c: float = 1.0
    alpha_exp: float = 0.5
    beta_exp: float = 0.5

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ParameterError(f"unknown weight kind {self.kind!r}")
        if self.kind == "family-sigma" and self.family is None:
            raise ParameterError("family-sigma weight needs a family")
        if self.kind == "jacobi":
            if self.c <= 0:
                raise ParameterError("jacobi weight constant must be positive")
            if self.alpha_exp < 0 or self.beta_exp < 0:
                raise ParameterError("jacobi exponents must be nonnegative")

    def values(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if self.kind == "unit":
            out = np.ones_like(arr)
        elif self.kind == "family-sigma":
            out = sigma_weight(self.family.kind, arr)
        else:
            if np.any(arr < 0) or np.any(arr > 1):
                raise WeightDomainError("jacobi weight is defined on [0, 1] only")
            out = self.c * arr**self.alpha_exp * (1.0 - arr) ** self.beta_exp
        if not np.all(np.isfinite(out)):
            bad = arr.ravel()[~np.isfinite(out).ravel()][0]
            raise WeightDomainError(f"weight {self.kind} non-finite at x={bad}")
        return out


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


def _resolve_x_grid(f, x_grid):
    from .grids import GridSpec

    if isinstance(x_grid, GridSpec):
        if not f.interval.finite:
            raise ParameterError(
                "an unbounded interval needs explicit grid points; pick a window"
            )
        return x_grid.points(f.interval.a, f.interval.b)
    return resolve_grid(x_grid, f.interval.a, f.interval.a + 1.0)


def _raw_modulus(f, w, delta, xs, h_grid_size) -> float:
    if delta == 0.0:
        return 0.0
    hs = symmetric_grid(delta, h_grid_size)
    sig = w.values(xs)
    base = np.asarray(eval_clamped(f, xs), dtype=float)
    shifted_args = xs[None, :] + hs[:, None] * sig[None, :]
    shifted = np.asarray(eval_clamped(f, shifted_args), dtype=float)
    return float(np.max(np.abs(shifted - base[None, :])))


def modulus_profile(
    f: TargetFunction,
    w: WeightSpec,
    delta_grid,
    x_grid,
    h_grid_size: int = 65,
    metadata: Optional[dict] = None,
) -> ModulusProfile:
    """Tabulate the modulus over an increasing delta grid starting at 0.

    The slack is estimated by comparing against the nested half-resolution
    grid (every other x point, half the h points); the running-maximum fix
    for discretization-induced dips is reported when it exceeds the slack.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.ndim != 1 or deltas.size < 2 or deltas[0] != 0.0 or np.any(np.diff(deltas) <= 0):
        raise ParameterError("delta grid must start at 0 and increase strictly")
    xs = _resolve_x_grid(f, x_grid)
    xs_coarse = xs[::2]
    h_coarse = h_grid_size // 2 + 1
    if h_coarse % 2 == 0:
        h_coarse += 1

    fine = np.empty(deltas.size)
    coarse = np.empty(deltas.size)
    for i, d in enumerate(deltas):
        fine[i] = _raw_modulus(f, w, float(d), xs, h_grid_size)
        coarse[i] = _raw_modulus(f, w, float(d), xs_coarse, h_coarse)
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
            "x_grid_size": int(xs.size), "weight": w.kind}
    if metadata:
        meta.update(metadata)
    return ModulusProfile(deltas=deltas, values=values, enclosure_slack=slack, metadata=meta)


def holder_seminorm(
    f: TargetFunction,
    w: WeightSpec,
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


def default_delta_grid(interval, size: int = 33, delta_max: Optional[float] = None) -> np.ndarray:
    """{0} followed by size - 1 log-spaced deltas from 1e-4 to delta_max.

    delta_max defaults to the whole interval: b - a when finite, 8 when
    unbounded.  It is raised to 1e-3 if smaller, so the grid spans a decade.
    """
    if delta_max is None:
        delta_max = (interval.b - interval.a) if interval.finite else 8.0
    return np.concatenate([[0.0], np.geomspace(1e-4, max(delta_max, 1e-3), size - 1)])
