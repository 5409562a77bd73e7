import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale_function

from bernapprox.errors import CatalogError, DomainEvaluationError, ParameterError
from bernapprox.functions import (
    CATALOG_NAMES,
    HALF_LINE,
    HolderSpec,
    Interval,
    TargetFunction,
    builtin_catalog,
    eval_clamped,
    trial_function,
)


class TestInterval:
    def test_rejects_reversed_endpoints(self):
        with pytest.raises(ParameterError):
            Interval(1.0, 0.0)

    def test_rejects_infinite_left_endpoint(self):
        with pytest.raises(ParameterError, match="finite"):
            Interval(-math.inf, 1.0)

    def test_half_line_not_finite(self):
        assert not HALF_LINE.finite


class TestEvalClamped:
    def test_clamps_above(self):
        f = builtin_catalog("identity")
        assert eval_clamped(f, 1.7) == 1.0

    def test_clamps_below(self):
        f = builtin_catalog("identity")
        assert eval_clamped(f, -0.3) == 0.0

    def test_interior_point_untouched(self):
        f = trial_function(0.5, 1.0)
        assert eval_clamped(f, 0.25) == 0.25

    def test_no_upper_clamp_on_half_line(self):
        f = builtin_catalog("exp-decay")
        assert eval_clamped(f, 40.0) == pytest.approx(math.exp(-40.0))

    def test_plus_infinity_hits_finite_endpoint(self):
        f = builtin_catalog("square")
        assert eval_clamped(f, math.inf) == 1.0

    def test_nonfinite_evaluator_reports_x(self):
        f = TargetFunction(HALF_LINE, lambda x: np.asarray(x) + 0.0, name="unbounded-id")
        with pytest.raises(DomainEvaluationError) as exc:
            eval_clamped(f, math.inf)
        assert exc.value.x == math.inf

    @given(st.floats(min_value=1.0, max_value=1e6, exclude_min=True))
    @settings(max_examples=50, deadline=None)
    def test_constant_on_right_exterior(self, x):
        f = builtin_catalog("sine")
        assert eval_clamped(f, x) == eval_clamped(f, 1.0)

    @given(st.floats(min_value=-1e6, max_value=0.0))
    @settings(max_examples=50, deadline=None)
    def test_constant_on_left_exterior(self, x):
        f = builtin_catalog("sine")
        assert eval_clamped(f, x) == eval_clamped(f, 0.0)

    def test_vectorized_matches_scalar(self):
        f = builtin_catalog("square")
        xs = np.array([-1.0, 0.25, 2.0])
        np.testing.assert_allclose(eval_clamped(f, xs), [f(x) for x in xs])


class TestTrialFunction:
    def test_linear_cusp_value(self):
        g = trial_function(0.5, 1.0)
        assert g(0.75) == 0.25

    def test_zero_at_center(self):
        g = trial_function(0.5, 0.5)
        assert g(0.5) == 0.0

    def test_sqrt_cusp_value(self):
        # 0.25**0.5 by arithmetic
        g = trial_function(0.5, 0.5)
        assert g(0.75) == pytest.approx(0.5, abs=1e-15)

    def test_nonnegative_and_zero_only_at_center(self):
        g = trial_function(0.3, 0.7)
        xs = np.linspace(0.0, 1.0, 1001)
        vals = eval_clamped(g, xs)
        assert np.all(vals >= 0.0)
        assert np.all(vals[xs != 0.3] > 0.0)

    def test_x0_outside_interval_rejected(self):
        with pytest.raises(ParameterError):
            trial_function(1.0, 0.5)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ParameterError):
            trial_function(0.5, 1.5)

    def test_half_line_cusp_has_no_sup_bound(self):
        g = trial_function(2.0, 0.5, HALF_LINE)
        assert g.sup_abs is None
        assert g(6.0) == 2.0


@pytest.mark.parametrize("alpha,seminorm", [(0.0, 1.0), (1.5, 1.0), (0.5, -1.0)])
def test_holder_spec_rejects_bad_values(alpha, seminorm):
    with pytest.raises(ParameterError):
        HolderSpec(alpha, seminorm)


class TestCatalog:
    def test_constant_everywhere(self):
        f = builtin_catalog("constant", c=3.0)
        for x in (-5.0, 0.0, 0.4, 7.0):
            assert eval_clamped(f, x) == 3.0

    def test_square_value(self):
        assert builtin_catalog("square")(0.4) == pytest.approx(0.16)

    def test_exp_decay_at_zero(self):
        assert builtin_catalog("exp-decay")(0.0) == 1.0

    def test_unknown_name_lists_valid(self):
        with pytest.raises(CatalogError) as exc:
            builtin_catalog("cubic")
        assert "square" in str(exc.value)

    def test_bad_params_rejected_eagerly(self):
        with pytest.raises(ParameterError):
            builtin_catalog("square", c=2.0)
        with pytest.raises(ParameterError):
            builtin_catalog("constant", c=math.nan)
        for freq in (0.0, math.inf):
            with pytest.raises(ParameterError, match="freq"):
                builtin_catalog("sine", freq=freq)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_every_catalog_function_carries_holder_and_sup_data(self, name):
        # Study's Holder seminorm and closed form read both without a None branch
        f = builtin_catalog(name)
        assert isinstance(f.holder, HolderSpec)
        assert f.sup_abs is not None and math.isfinite(f.sup_abs)

    @pytest.mark.parametrize(
        "name,params",
        [
            ("power-cusp", {"x0": 0.5, "alpha": 0.5}),
            ("identity", {}),
            ("square", {}),
            ("exp-decay", {}),
            ("sine", {"freq": 2.0}),
        ],
    )
    def test_holder_metadata_on_random_pairs(self, name, params, rng):
        f = builtin_catalog(name, **params)
        assert f.holder is not None
        lo = f.interval.a
        hi = f.interval.b if f.interval.finite else 20.0
        x = rng.uniform(lo, hi, 10_000)
        y = rng.uniform(lo, hi, 10_000)
        lhs = np.abs(eval_clamped(f, x) - eval_clamped(f, y))
        rhs = f.holder.seminorm * np.abs(x - y) ** f.holder.alpha
        assert np.all(lhs <= rhs + 1e-12)

    def test_sup_abs_holds_on_grid(self):
        for name in ("identity", "square", "exp-decay", "sine"):
            f = builtin_catalog(name)
            hi = f.interval.b if f.interval.finite else 50.0
            xs = np.linspace(f.interval.a, hi, 2001)
            assert np.all(np.abs(eval_clamped(f, xs)) <= f.sup_abs + 1e-12)


def test_scale_function_scales_metadata():
    f = builtin_catalog("square")
    g = scale_function(f, -2.5)
    assert g(0.4) == pytest.approx(-2.5 * 0.16)
    assert g.sup_abs == pytest.approx(2.5)
    assert g.holder.seminorm == pytest.approx(5.0)
