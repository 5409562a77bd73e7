import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import scale_function, two_pass_modulus

from bernapprox.errors import DomainEvaluationError, InsufficientDataError, ParameterError
from bernapprox.families import bernoulli_family, poisson_family
from bernapprox.functions import CATALOG_NAMES, UNIT_INTERVAL, TargetFunction, builtin_catalog, trial_function
from bernapprox.modulus import (
    FRAME,
    ModulusProfile,
    _raw_modulus,
    default_delta_grid,
    holder_seminorm,
    modulus_profile,
)

XS = np.linspace(0.0, 1.0, 257)
UNIT = np.ones_like  # the unit step weight sigma(x) = 1


def modulus_at(f, sigma, delta, x_grid, h_grid_size=65):
    """The profile's double-grid maximum at the one delta > 0."""
    return modulus_profile(f, sigma, [0.0, delta], x_grid, h_grid_size).values[1]


def brute_modulus(f, sigma, delta, nx=401, nh=81):
    """Independent double-loop oracle over a denser raw grid."""
    lo = f.interval.a
    hi = f.interval.b if f.interval.finite else 64.0
    best = 0.0
    for x in np.linspace(lo, hi, nx):
        s = float(sigma(np.array([x]))[0])
        fx = f(float(x))
        for h in np.linspace(-delta, delta, nh):
            best = max(best, abs(f(float(x + h * s)) - fx))
    return best


class TestFamilySigma:
    def test_family_sigma_matches_family(self):
        # the step weight is the IEEE square root of the single draw's variance, bit for bit
        bern, pois = bernoulli_family(), poisson_family()
        xs = np.linspace(*bern.x_domain, 19)
        assert bern.sigma(xs).tolist() == [math.sqrt(x * (1.0 - x)) for x in xs.tolist()]
        xs = np.linspace(*pois.x_domain, 19)
        assert pois.sigma(xs).tolist() == [math.sqrt(x) for x in xs.tolist()]


class TestDtModulusAt:
    def test_constant_is_zero(self):
        f = builtin_catalog("constant", c=9.0)
        assert modulus_at(f, UNIT, 0.7, XS) == 0.0

    def test_identity_attains_delta(self):
        f = builtin_catalog("identity")
        val = modulus_at(f, UNIT, 0.1, XS)
        assert val == pytest.approx(0.1, abs=1e-12)
        assert val == pytest.approx(brute_modulus(f, UNIT, 0.1), abs=1e-12)

    def test_sqrt_cusp_value(self):
        f = trial_function(0.5, 0.5)
        val = modulus_at(f, UNIT, 0.01, XS)
        assert val == pytest.approx(0.1, abs=5e-3)
        assert val == pytest.approx(brute_modulus(f, UNIT, 0.01), abs=5e-3)

    def test_zero_delta_exact_zero(self):
        f = builtin_catalog("sine")
        assert modulus_profile(f, UNIT, [0.0, 0.1], XS).values[0] == 0.0

    def test_even_h_grid_rejected(self):
        f = builtin_catalog("sine")
        with pytest.raises(ParameterError):
            modulus_at(f, UNIT, 0.1, XS, h_grid_size=64)

    @pytest.mark.parametrize("size", [3, 7, 11])
    def test_h_grid_off_a_nested_half_grid_rejected(self, size):
        # at 4k + 3 points 0 has an odd index, so every other h point skips it: no nested half grid
        f = builtin_catalog("sine")
        with pytest.raises(ParameterError, match="1 more than a multiple of 4"):
            modulus_profile(f, UNIT, [0.0, 0.1], XS, h_grid_size=size)

    def test_grid_spec_is_refused(self):
        # the x-sup runs over explicit points; the caller picks the window
        from bernapprox.grids import GridSpec

        f = builtin_catalog("exp-decay")
        with pytest.raises(TypeError):
            modulus_at(f, UNIT, 0.1, GridSpec("uniform", 65))


class TestProfile:
    def test_constant_all_zero(self):
        f = builtin_catalog("constant", c=2.0)
        prof = modulus_profile(f, UNIT, np.array([0.0, 0.1, 0.5, 1.0]), XS)
        assert np.all(prof.values == 0.0)

    def test_identity_linear_profile(self):
        f = builtin_catalog("identity")
        prof = modulus_profile(f, UNIT, np.array([0.0, 0.5, 1.0]), XS)
        np.testing.assert_allclose(prof.values, [0.0, 0.5, 1.0], atol=1e-12)

    def test_values_capped_by_twice_sup(self):
        f = builtin_catalog("sine", freq=2.0)
        prof = modulus_profile(f, UNIT, default_delta_grid(33, 1.0), XS)
        assert np.all(prof.values <= 2.0 * f.sup_abs + 1e-12)

    def test_monotone_and_zero_at_origin(self):
        f = trial_function(0.3, 0.5)
        prof = modulus_profile(f, UNIT, default_delta_grid(33, 1.0), XS)
        assert prof.values[0] == 0.0
        assert np.all(np.diff(prof.values) >= 0.0)

    def test_subadditivity_with_slack(self):
        f = builtin_catalog("sine")
        deltas = np.concatenate([[0.0], np.geomspace(1e-3, 0.5, 16)])
        prof = modulus_profile(f, UNIT, deltas, XS)
        slack = prof.enclosure_slack
        for d in deltas[1:8]:
            w1 = modulus_at(f, UNIT, float(d), XS)
            w2 = modulus_at(f, UNIT, float(2 * d), XS)
            assert w2 <= 2 * w1 + 2 * slack + 1e-12

    def test_metadata_records_window(self):
        f = builtin_catalog("exp-decay")
        xs = np.linspace(0.0, 64.0, 129)
        prof = modulus_profile(f, poisson_family().sigma, np.array([0.0, 0.5, 1.0]), xs)
        assert prof.metadata["x_window"] == (0.0, 64.0)

    def test_type_invariants(self):
        with pytest.raises(ParameterError):
            ModulusProfile(np.array([0.0, 1.0]), np.array([0.5, 1.0]), 0.0)
        with pytest.raises(ParameterError):
            ModulusProfile(np.array([0.1, 1.0]), np.array([0.0, 1.0]), 0.0)
        with pytest.raises(ParameterError):
            ModulusProfile(np.array([0.0, 1.0]), np.array([0.0, 1.0]), -1.0)
        for deltas, values in (([0.0, 1.0], [0.0, 1.0, 2.0]), ([0.0], [0.0])):
            with pytest.raises(ParameterError, match="matching 1-d"):
                ModulusProfile(np.array(deltas), np.array(values), 0.0)

    @pytest.mark.parametrize("deltas", [[0.0], [0.1, 0.2], [0.0, 0.2, 0.1], [0.0, math.nan, 0.2], [0.0, math.inf]])
    def test_bad_delta_grid_rejected(self, deltas):
        with pytest.raises(ParameterError, match="delta grid"):
            modulus_profile(builtin_catalog("sine"), UNIT, deltas, XS)

    def test_lookup_brackets_value(self):
        prof = ModulusProfile(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.3, 0.4]), 0.0)
        assert prof.value_lower(0.7) == 0.3
        assert prof.value_upper(0.7) == 0.4
        assert prof.value_upper(2.0, f_sup=1.0) == 2.0
        with pytest.raises(InsufficientDataError):
            prof.value_upper(2.0)


class TestRawModulusBlocks:
    """At 257 x points the 65 h rows go in two blocks; neither a bit nor the memory bound may move."""

    def test_blocks_match_one_pass_bit_for_bit(self):
        f = trial_function(0.5, 0.5)
        sig = bernoulli_family().sigma(XS)
        base = f(XS)
        for delta in (1e-4, 0.03, 0.5, 1.0):
            hs = np.linspace(-delta, delta, 65)
            d = np.abs(f(XS[None, :] + hs[:, None] * sig[None, :]) - base[None, :])
            assert _raw_modulus(f, XS, base, sig, delta, 65) == (float(np.max(d)), float(np.max(d[::2, ::2])))

    def test_the_frame_and_the_evaluators_temporaries_set_the_peak(self):
        # the frame of at most FRAME floats and the cusp's two temporaries of its size
        # are about 3 frames, for the kernel and a profile alike, which also holds a
        # few arrays of x: 35 of 65 h rows on 257 x, and 2 of 129 on 4097 x, where one
        # frame of every row would take 4.2 MB
        f = trial_function(0.5, 0.5)
        fam = bernoulli_family()
        for xs, h_size in ((XS, 65), (np.linspace(0.0, 1.0, 4097), 129)):
            sig, base = fam.sigma(xs), f(xs)
            frame = min(h_size, FRAME // xs.size) * xs.size * 8
            for run in (lambda: _raw_modulus(f, xs, base, sig, 0.3, h_size),
                        lambda: modulus_profile(f, fam.sigma, default_delta_grid(17, 2.0), xs, h_size)):
                tracemalloc.start()
                try:
                    run()
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < 3.25 * frame + 3 * xs.nbytes

    @given(name=st.sampled_from(CATALOG_NAMES), family=st.sampled_from(["bernoulli", "poisson"]),
           x_size=st.integers(33, 513), h_size=st.integers(1, 32).map(lambda i: 4 * i + 1),
           small=st.floats(1e-4, 1.0), wide=st.floats(1.5, 4.0))
    @settings(max_examples=60, deadline=None)
    @example(name="power-cusp", family="bernoulli", x_size=513, h_size=129, small=1e-4, wide=4.0)
    @example(name="exp-decay", family="poisson", x_size=33, h_size=5, small=1.0, wide=1.5)
    def test_the_blocks_equal_the_two_pass_oracle(self, name, family, x_size, h_size, small, wide):
        # (fine, coarse) per delta, bit for bit the oracle's; the wide delta steps
        # past each finite end of f's interval, so the in-place clamp is read
        fam = bernoulli_family() if family == "bernoulli" else poisson_family()
        f = builtin_catalog(name)
        xs = np.linspace(0.0, 1.0 if family == "bernoulli" else 64.0, x_size)
        sig, deltas = fam.sigma(xs), [0.0, small, wide]
        reach = xs + np.array([[-wide], [wide]]) * sig
        assert reach.min() < f.interval.a and (reach.max() > f.interval.b or not f.interval.finite)
        fine, coarse, _, _ = two_pass_modulus(f, fam.sigma, deltas, xs, h_size)
        assert [_raw_modulus(f, xs, f(xs), sig, d, h_size) for d in deltas] == list(zip(fine, coarse))

    def test_a_non_finite_value_names_its_point(self):
        # f is NaN past 0.7: a block whose max is not finite is evaluated again
        # through eval_clamped, which names the first offending point of the grid
        f = TargetFunction(UNIT_INTERVAL, lambda x: np.where(np.asarray(x) > 0.7, np.nan, x), "gap", 1.0)
        xs = np.linspace(0.0, 0.6, 257)
        sig = bernoulli_family().sigma(xs)
        pts = np.clip(xs + np.linspace(-0.5, 0.5, 65)[:, None] * sig, 0.0, 1.0).ravel()
        with pytest.raises(DomainEvaluationError) as err:
            _raw_modulus(f, xs, f(xs), sig, 0.5, 65)
        assert err.value.x == pts[np.argmax(pts > 0.7)]


class TestOnePassSlack:
    """The slack comes from the fine pass's own even points, bit for bit what a second pass gave."""

    @given(name=st.sampled_from(CATALOG_NAMES), family=st.sampled_from(["bernoulli", "poisson"]),
           h_size=st.sampled_from([5, 9, 65]), x_size=st.sampled_from([2, 33, 64, 257, 1000, 4097]))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_two_pass_oracle(self, name, family, h_size, x_size):
        fam = bernoulli_family() if family == "bernoulli" else poisson_family()
        f = builtin_catalog(name)
        xs = np.linspace(0.0, 1.0 if family == "bernoulli" else 64.0, x_size)
        deltas = np.concatenate([[0.0], np.geomspace(1e-3, 2.0, 5)])
        fine, coarse, slack, values = two_pass_modulus(f, fam.sigma, deltas, xs, h_size)
        sig, base = fam.sigma(xs), f(xs)
        assert [_raw_modulus(f, xs, base, sig, float(d), h_size) for d in deltas] == list(zip(fine, coarse))
        prof = modulus_profile(f, fam.sigma, deltas, xs, h_size)
        assert prof.enclosure_slack == slack
        assert prof.values.tolist() == values.tolist()


class TestHolderSeminorm:
    def grid(self, interval):
        return default_delta_grid(33, interval.b - interval.a)

    def test_constant_annihilated(self):
        f = builtin_catalog("constant", c=5.0)
        prof = modulus_profile(f, UNIT, self.grid(f.interval), XS)
        assert holder_seminorm(f, UNIT, 0.5, prof).seminorm == 0.0

    def test_sqrt_cusp_unit_seminorm(self):
        f = trial_function(0.5, 0.5)
        prof = modulus_profile(f, UNIT, self.grid(f.interval), XS)
        h = holder_seminorm(f, UNIT, 0.5, prof)
        assert h.seminorm == pytest.approx(1.0, abs=5e-3)

    def test_identity_unit_seminorm(self):
        f = builtin_catalog("identity")
        prof = modulus_profile(f, UNIT, self.grid(f.interval), XS)
        assert holder_seminorm(f, UNIT, 1.0, prof).seminorm == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_scaling_property(self, c):
        f = builtin_catalog("identity")
        # delta floor 1e-2 keeps x+h rounding noise below the 1e-12 assertion
        deltas = np.concatenate([[0.0], np.geomspace(1e-2, 1.0, 16)])
        prof_f = modulus_profile(f, UNIT, deltas, XS)
        prof_cf = modulus_profile(scale_function(f, c), UNIT, deltas, XS)
        h_f = holder_seminorm(f, UNIT, 1.0, prof_f).seminorm
        h_cf = holder_seminorm(scale_function(f, c), UNIT, 1.0, prof_cf).seminorm
        assert h_cf == pytest.approx(abs(c) * h_f, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.5])
    def test_alpha_outside_the_unit_interval_rejected(self, alpha):
        f = builtin_catalog("identity")
        prof = modulus_profile(f, UNIT, self.grid(f.interval), XS)
        with pytest.raises(ParameterError, match="alpha"):
            holder_seminorm(f, UNIT, alpha, prof)

    def test_needs_eight_nonzero_deltas(self):
        f = builtin_catalog("identity")
        prof = modulus_profile(f, UNIT, np.array([0.0, 0.25, 0.5, 1.0]), XS)
        with pytest.raises(ParameterError):
            holder_seminorm(f, UNIT, 1.0, prof)


def test_family_sigma_weight_for_bernstein_case():
    # DT modulus of |x-1/2| with the Bernoulli sigma weight: steps h*sigma(x)
    w = bernoulli_family().sigma
    g = trial_function(0.5, 1.0)
    val = modulus_at(g, w, 0.2, XS)
    # the largest move from the cusp uses sigma(1/2) = 1/2
    assert val == pytest.approx(brute_modulus(g, w, 0.2), abs=1e-3)
    assert val <= 0.2 * 0.5 + 1e-12


def test_monotonicity_fix_beyond_slack_warns(monkeypatch):
    # force a discretization dip larger than the halved-grid slack estimate
    import bernapprox.modulus as mod

    f = builtin_catalog("sine")
    calls = {"i": 0}

    def fake_raw(f_, xs, base, sig, delta, h_size):
        calls["i"] += 1
        # fine and coarse maxima agree (slack 0) but values dip at delta 2
        value = {0.0: 0.0, 1.0: 0.5, 2.0: 0.3}[float(delta)]
        return value, value

    monkeypatch.setattr(mod, "_raw_modulus", fake_raw)
    with pytest.warns(mod.GridResolutionWarning):
        prof = mod.modulus_profile(f, UNIT, np.array([0.0, 1.0, 2.0]), XS)
    assert np.all(np.diff(prof.values) >= 0.0)
