import math

import numpy as np
import pytest

from bernapprox.errors import ParameterError
from bernapprox.grids import GridSpec, resolve_grid, symmetric_grid


class TestGridSpec:
    def test_uniform_endpoints(self):
        pts = GridSpec("uniform", 5).points(0.0, 1.0)
        np.testing.assert_allclose(pts, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_chebyshev_endpoints_and_order(self):
        pts = GridSpec("chebyshev", 9).points(-1.0, 3.0)
        assert pts[0] == pytest.approx(-1.0)
        assert pts[-1] == pytest.approx(3.0)
        assert np.all(np.diff(pts) > 0)

    def test_validation(self):
        for kind in ("spline", "log"):
            with pytest.raises(ParameterError):
                GridSpec(kind, 5)
        with pytest.raises(ParameterError):
            GridSpec("uniform", 1)
        with pytest.raises(ParameterError):
            GridSpec("uniform", 5).points(1.0, 1.0)


def test_resolve_grid_passthrough_and_checks():
    pts = resolve_grid(np.array([0.1, 0.2, 0.9]))
    assert pts.tolist() == [0.1, 0.2, 0.9]
    with pytest.raises(ParameterError):
        resolve_grid(np.array([0.2, 0.1]))
    with pytest.raises(ParameterError):
        resolve_grid(np.array([]))


@pytest.mark.parametrize("grid", [
    [0.1, math.nan, 0.5], [0.1, 0.5, math.inf], [-math.inf, 0.1, 0.5], [math.nan],
], ids=["nan-inside", "inf-at-end", "minus-inf-first", "lone-nan"])
def test_resolve_grid_rejects_nonfinite_points(grid):
    # NaN compares false both ways, so a difference check alone lets it through
    with pytest.raises(ParameterError, match="finite"):
        resolve_grid(grid)


def test_symmetric_grid_contains_zero_and_ends():
    g = symmetric_grid(0.4, 5)
    assert g[0] == -0.4 and g[-1] == 0.4 and g[2] == 0.0
    with pytest.raises(ParameterError):
        symmetric_grid(0.4, 4)
    with pytest.raises(ParameterError):
        symmetric_grid(-0.1, 5)
