"""Small grid constructors used by operators, moduli and the CLI config."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

GRID_KINDS = ("uniform", "chebyshev")


@dataclass(frozen=True)
class GridSpec:
    """Declarative 1-d grid: resolved to points only once endpoints are known."""

    kind: str = "uniform"  # one of GRID_KINDS
    size: int = 257

    def __post_init__(self):
        if self.kind not in GRID_KINDS:
            raise ParameterError(f"unknown grid kind {self.kind!r}")
        if self.size < 2:
            raise ParameterError("grid size must be at least 2")

    def points(self, lo: float, hi: float) -> np.ndarray:
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ParameterError(f"bad grid endpoints [{lo}, {hi}]")
        if self.kind == "uniform":
            return np.linspace(lo, hi, self.size)
        # Chebyshev points of the second kind, endpoints included.
        k = np.arange(self.size)
        nodes = np.cos(np.pi * k / (self.size - 1))[::-1]
        return lo + (hi - lo) * (nodes + 1.0) / 2.0


def resolve_grid(grid) -> np.ndarray:
    """Explicit points as a float array, checked nonempty, 1-d and strictly increasing."""
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 1 or pts.size == 0:
        raise ParameterError("grid must be a nonempty 1-d array of points")
    if np.any(np.diff(pts) <= 0):
        raise ParameterError("grid points must be strictly increasing")
    return pts


def symmetric_grid(delta: float, size: int) -> np.ndarray:
    """Grid on [-delta, delta] containing both endpoints and 0, whose every other point is
    again such a grid, of size // 2 + 1 points: size must be at least 5 and 1 more than a
    multiple of 4."""
    if size < 5 or size % 4 != 1:
        raise ParameterError(f"h grid size must be at least 5 and 1 more than a multiple of 4, got {size}")
    if delta < 0:
        raise ParameterError("delta must be nonnegative")
    return np.linspace(-delta, delta, size)
