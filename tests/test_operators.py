import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from bernapprox.errors import InsufficientDataError, ParameterError
from bernapprox.families import Family, bernoulli_family, poisson_family, spawn_rngs, szasz_window
from bernapprox.functions import (
    HALF_LINE,
    UNIT_INTERVAL,
    TargetFunction,
    builtin_catalog,
    eval_clamped,
    trial_function,
)
from bernapprox.operators import (
    OperatorValue,
    bernstein_exact,
    generic_mc,
    sup_error,
    sup_errors,
    szasz_exact,
)
from bernapprox.tails import poisson_conjugate
from conftest import scale_function, szasz_truncation_point, szasz_window_oracle


def brute_bernstein(f, n, x):
    """Independent oracle: exact integer binomials, no log-gamma."""
    total = 0.0
    for m in range(n + 1):
        total += math.comb(n, m) * x**m * (1 - x) ** (n - m) * eval_clamped(f, m / n)
    return total


def brute_szasz(f, n, x, terms=400):
    """Independent oracle: iterative Poisson weights, no log-gamma."""
    mu = n * x
    w = math.exp(-mu)
    total = 0.0
    for k in range(terms):
        total += w * eval_clamped(f, k / n)
        w *= mu / (k + 1)
    return total


class TestBernstein:
    def test_reproduces_identity(self):
        f = builtin_catalog("identity")
        v = bernstein_exact(f, 10, 0.3)
        assert v.value == pytest.approx(0.3, abs=1e-13)
        assert v.value == pytest.approx(brute_bernstein(f, 10, 0.3), abs=1e-13)
        assert v.error_radius == 0.0 and v.method == "exact-sum"

    def test_square_closed_form(self):
        f = builtin_catalog("square")
        v = bernstein_exact(f, 5, 0.5)
        assert v.value == pytest.approx(0.30, abs=1e-13)
        assert v.value == pytest.approx(brute_bernstein(f, 5, 0.5), abs=1e-13)

    def test_constant_normalization(self):
        f = builtin_catalog("constant", c=1.0)
        for n in (1, 7, 300):
            for x in (0.1, 0.5, 0.93):
                assert bernstein_exact(f, n, x).value == pytest.approx(1.0, abs=1e-12)

    def test_endpoints_exact(self):
        f = builtin_catalog("square")
        assert bernstein_exact(f, 9, 0.0).value == 0.0
        assert bernstein_exact(f, 9, 1.0).value == 1.0

    def test_matches_brute_force_on_random_inputs(self, rng):
        f = builtin_catalog("sine", freq=1.5)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            x = float(rng.uniform(0.01, 0.99))
            assert bernstein_exact(f, n, x).value == pytest.approx(
                brute_bernstein(f, n, x), abs=1e-12
            )

    def test_linearity(self, rng):
        f = builtin_catalog("square")
        g = builtin_catalog("sine")
        for _ in range(10):
            a, b = rng.uniform(-2, 2, 2)
            combo = TargetFunction(
                f.interval,
                lambda x, _a=a, _b=b: _a * f.evaluator(x) + _b * g.evaluator(x),
                name="combo",
            )
            x = float(rng.uniform(0, 1))
            lhs = bernstein_exact(combo, 8, x).value
            rhs = a * bernstein_exact(f, 8, x).value + b * bernstein_exact(g, 8, x).value
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_positivity(self, rng):
        g = trial_function(0.3, 0.5)
        for _ in range(25):
            n = int(rng.integers(1, 100))
            x = float(rng.uniform(0, 1))
            assert bernstein_exact(g, n, x).value >= -1e-14

    def test_n_validation(self):
        f = builtin_catalog("identity")
        with pytest.raises(ParameterError):
            bernstein_exact(f, 0, 0.5)
        with pytest.raises(ParameterError):
            bernstein_exact(f, 2**20 + 1, 0.5)
        with pytest.raises(ParameterError):
            bernstein_exact(f, 5, 1.2)


class TestSzasz:
    def test_constant_normalization(self):
        f = builtin_catalog("constant", c=1.0)
        v = szasz_exact(f, 7, 2.0, 1e-12)
        assert v.value == pytest.approx(1.0, abs=1e-12)
        assert v.error_radius <= 1e-12
        assert v.method == "truncated-sum"

    def test_exp_decay_mgf_identity(self):
        # E e^{-S_n} = exp(n x (e^{-1/n} - 1))
        f = builtin_catalog("exp-decay")
        v = szasz_exact(f, 4, 1.0, 1e-12)
        assert v.value == pytest.approx(math.exp(4 * (math.exp(-0.25) - 1)), abs=1e-8)
        assert v.value == pytest.approx(brute_szasz(f, 4, 1.0), abs=1e-10)

    def test_identity_mean_with_declared_bound(self):
        # Poisson(3) mean; the declared sup bound certifies the truncation
        f = TargetFunction(HALF_LINE, lambda t: np.asarray(t, dtype=float) + 0.0,
                           name="line", sup_abs=50.0)
        v = szasz_exact(f, 1, 3.0, 1e-9)
        assert v.value == pytest.approx(3.0, abs=1e-7)
        assert v.error_radius == pytest.approx(1e-9 * 50.0)

    def test_requires_sup_abs(self):
        f = TargetFunction(HALF_LINE, lambda t: np.asarray(t, dtype=float) + 0.0, name="line")
        with pytest.raises(InsufficientDataError):
            szasz_exact(f, 2, 1.0, 1e-10)

    def test_tail_tol_range_enforced(self):
        f = builtin_catalog("exp-decay")
        with pytest.raises(ParameterError):
            szasz_exact(f, 2, 1.0, 1e-3)

    def test_truncation_point_certifies_tail(self):
        # the dropped Poisson mass beyond the cut is below the tolerance
        mu, tol = 12.0, 1e-10
        cut = szasz_truncation_point(mu, tol)
        w = math.exp(-mu)
        mass = 0.0
        for k in range(cut + 1):
            mass += w
            w *= mu / (k + 1)
        assert 1.0 - mass <= tol

    def test_x_zero_degenerate(self):
        f = builtin_catalog("exp-decay")
        v = szasz_exact(f, 3, 0.0, 1e-9)
        assert v.value == 1.0 and v.error_radius == 0.0


class TestSzaszWindow:
    MUS = np.geomspace(1e-3, 1e7, 61)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_dropped_mass_is_certified(self, tol):
        for mu in self.MUS:
            lo, hi = szasz_window(float(mu), tol)
            assert poisson.cdf(lo - 1, mu) + poisson.sf(hi, mu) <= tol

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_width_grows_like_sqrt_mu(self, tol):
        for mu in self.MUS:
            lo, hi = szasz_window(float(mu), tol)
            assert 0 <= lo <= mu <= hi
            assert hi - lo <= 4.0 * math.sqrt(mu * math.log(1.0 / tol)) + 10.0

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_cuts_match_their_definition(self, tol):
        # lo: 1 + the largest j <= mu whose lower exponent reaches ln(2/tol)
        target = math.log(2.0 / tol)
        for mu in (0.5, 1.0, 28.0, 73.0, 74.0, 100.0, 1234.5, 54321.0):
            j = np.arange(math.floor(mu) + 1)  # scan every j, no bracket
            reach = np.flatnonzero(mu * poisson_conjugate((mu - j) / mu) >= target)
            lo = int(reach[-1]) + 1 if reach.size else 0
            assert szasz_window(mu, tol) == (lo, szasz_truncation_point(mu, tol / 2.0))

    @given(log_mu=st.floats(math.log(1e-4), math.log(1e8)),
           tol=st.sampled_from([1e-6, 1e-9, 1e-12, 1e-15]))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_bisection_oracle(self, log_mu, tol):
        # lo: 1 + the largest j <= mu whose lower exponent reaches ln(2/tol); by
        # h(s) >= s^2 / (2 + 2s/3) every j at least 12 sqrt(mu) + 60 below mu reaches it
        mu = math.exp(log_mu)
        target = math.log(2.0 / tol)
        j = np.arange(max(0, math.floor(mu - 12.0 * math.sqrt(mu) - 60.0)), math.floor(mu) + 1)
        reach = np.flatnonzero(mu * poisson_conjugate((mu - j) / mu) >= target)
        lo = int(j[reach[-1]]) + 1 if reach.size else 0
        assert szasz_window(mu, tol) == (lo, szasz_truncation_point(mu, tol / 2.0))

    def test_one_vector_conjugate_call_per_side(self, monkeypatch):
        import bernapprox.tails as tails

        calls = []

        def counted(u, _inner=tails.poisson_conjugate):
            calls.append(u)
            return _inner(u)

        monkeypatch.setattr(tails, "poisson_conjugate", counted)
        mus = (0.37, 12.0, 5e3, 7.5e7)
        for mu in mus:
            calls.clear()
            szasz_window(mu, 1e-12)
            assert len(calls) == 2  # one vector call per side, no bisection
        calls.clear()
        szasz_window(np.array(mus), 1e-12)
        assert len(calls) == 2  # and per array of mu, not per mu

    @given(log_mus=st.lists(st.floats(math.log(1e-4), math.log(1e8)), min_size=1, max_size=40),
           tol=st.sampled_from([1e-6, 1e-9, 1e-12, 1e-15]))
    @settings(max_examples=200, deadline=None)
    @example(log_mus=[math.log(0.3), math.log(0.999), 0.0, math.log(5e7)], tol=1e-15)
    def test_vector_windows_match_the_scalar_oracle(self, log_mus, tol):
        # mu < 1 has the single lower scan point j = 0
        mus = np.exp(log_mus)
        lo, hi = szasz_window(mus, tol)
        assert lo.dtype == hi.dtype == np.int64
        assert list(zip(lo.tolist(), hi.tolist())) == [szasz_window_oracle(float(mu), tol) for mu in mus]

    def test_nonpositive_means_get_the_empty_window(self):
        lo, hi = szasz_window(np.array([0.0, 3.0, -1.0]), 1e-12)
        assert (lo[0], hi[0]) == (lo[2], hi[2]) == (0, 0)
        assert (lo[1], hi[1]) == szasz_window(3.0, 1e-12) == szasz_window_oracle(3.0, 1e-12)

    @given(
        n=st.integers(1, 4096),
        log_x=st.floats(math.log(1e-3), math.log(64.0)),
        tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
        step=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    @example(n=3276, log_x=0.0, tol=1e-12, step=False)  # log-gamma weights: 1.34e-12 off
    def test_windowed_sum_within_radius_of_full_sum(self, n, log_x, tol, step):
        # closed-form oracles that share no code with either weight method
        x = math.exp(log_x)
        mu = n * x
        if step:  # all weight on the lower half, where the lower cut drops terms
            f = TargetFunction(HALF_LINE, lambda t: (np.asarray(t, dtype=float) <= x) * 1.0,
                               name="step", sup_abs=1.0)
            last = math.floor(mu)  # the last k with k / n <= x, as the step sees it
            while (last + 1) / n <= x:
                last += 1
            while last >= 0 and last / n > x:
                last -= 1
            full = float(poisson.cdf(last, mu))
        else:  # the Szasz-MGF identity E exp(-N/n) = exp(mu expm1(-1/n))
            f = builtin_catalog("exp-decay")
            full = math.exp(mu * math.expm1(-1.0 / n))
        v = szasz_exact(f, n, x, tol)
        assert abs(v.value - full) <= v.error_radius
        assert v.error_radius == tol * f.sup_abs

    def test_sup_error_at_large_n(self):
        # the Szasz-MGF identity E exp(-N/n) = exp(n x expm1(-1/n)); the weights'
        # rounding, about 1.4e-14, is 5.1e-9 of delta at this n
        n = 65536
        grid = np.linspace(1.0, 64.0, 33)
        se = sup_error(builtin_catalog("exp-decay"), poisson_family(), n, grid)
        expected = np.max(np.abs(np.exp(n * grid * np.expm1(-1.0 / n)) - np.exp(-grid)))
        assert se.delta == pytest.approx(expected, rel=2 * 5.1e-9, abs=0.0)
        assert se.error_radius == 1e-12

    @pytest.mark.parametrize("n", [2**18, 2**20])
    def test_mgf_identity_within_radius_at_huge_n(self, n):
        f = builtin_catalog("exp-decay")
        for x in np.linspace(1.0, 64.0, 9):
            v = szasz_exact(f, n, float(x))
            assert abs(v.value - math.exp(n * x * math.expm1(-1.0 / n))) <= v.error_radius


class TestGenericMc:
    def test_constant_zero_radius(self):
        f = builtin_catalog("constant", c=2.0)
        fam = bernoulli_family()
        v = generic_mc(f, fam, 5, 0.5, 500, np.random.default_rng(3))
        assert v.value == 2.0
        assert v.error_radius == 0.0
        assert v.method == "monte-carlo"

    def test_matches_bernstein_exact(self):
        f = builtin_catalog("square")
        fam = bernoulli_family()
        v = generic_mc(f, fam, 5, 0.5, 1_000_000, np.random.default_rng(11))
        assert abs(v.value - 0.30) <= v.error_radius

    def test_matches_szasz_exact(self):
        f = builtin_catalog("exp-decay")
        fam = poisson_family()
        v = generic_mc(f, fam, 4, 1.0, 1_000_000, np.random.default_rng(12))
        assert abs(v.value - math.exp(4 * (math.exp(-0.25) - 1))) <= v.error_radius

    def test_deterministic_given_seed(self):
        f = builtin_catalog("square")
        fam = bernoulli_family()
        a = generic_mc(f, fam, 3, 0.4, 1000, np.random.default_rng(9)).value
        b = generic_mc(f, fam, 3, 0.4, 1000, np.random.default_rng(9)).value
        assert a == b

    def test_minimum_trials(self):
        f = builtin_catalog("square")
        with pytest.raises(ParameterError):
            generic_mc(f, bernoulli_family(), 3, 0.4, 50, np.random.default_rng(1))

    def test_agreement_rate_over_random_configs(self, rng):
        # exact value inside the 3-sigma radius in at least 99% of 500 draws
        fams = [bernoulli_family(), poisson_family()]
        names = ["square", "sine", "exp-decay", "power-cusp"]
        hits = 0
        total = 500
        for i in range(total):
            fam = fams[int(rng.integers(0, 2))]
            if fam.kind == "bernoulli":
                f = builtin_catalog(names[int(rng.integers(0, 2))])
                x = float(rng.uniform(0.05, 0.95))
                exact = bernstein_exact(f, 8, x).value
            else:
                f = builtin_catalog("exp-decay")
                x = float(rng.uniform(1.0, 16.0))
                exact = szasz_exact(f, 8, x, 1e-12).value
            v = generic_mc(f, fam, 8, x, 2000, np.random.default_rng(1000 + i))
            if abs(v.value - exact) <= v.error_radius + 1e-12:
                hits += 1
        assert hits >= 0.99 * total


class TestSupError:
    def test_identity_reproduced(self):
        f = builtin_catalog("identity")
        fam = bernoulli_family()
        se = sup_error(f, fam, 25, np.linspace(0.001, 0.999, 257))
        assert se.delta <= 1e-12
        assert se.error_radius == 0.0

    @pytest.mark.parametrize("n", [4096, 65536])
    def test_square_matches_the_variance_identity(self, n):
        # B_n[x^2] = x^2 + x(1-x)/n; the sup sits at x = 1/2, where both sides
        # are dyadic, so the only error left is rounding near B_n = 1/4
        grid = np.linspace(0.001, 0.999, 257)
        se = sup_error(builtin_catalog("square"), bernoulli_family(), n, grid)
        expected = float(np.max(grid * (1.0 - grid))) / n
        assert abs(se.delta - expected) <= 4 * math.ulp(0.25)

    def test_square_closed_form_max(self):
        f = builtin_catalog("square")
        fam = bernoulli_family()
        se = sup_error(f, fam, 10, np.linspace(0.001, 0.999, 257))
        assert se.delta == pytest.approx(0.025, abs=1e-12)
        assert se.argmax_x == pytest.approx(0.5, abs=1e-12)

    def test_constant_zero(self):
        f = builtin_catalog("constant", c=4.0)
        for fam in (bernoulli_family(), poisson_family()):
            se = sup_error(f, fam, 3, np.linspace(*fam.x_domain, 65))
            assert se.delta <= 1e-12

    def test_bounded_by_twice_sup(self):
        f = builtin_catalog("sine", freq=3.0)
        fam = bernoulli_family()
        se = sup_error(f, fam, 2, np.linspace(0.001, 0.999, 65))
        assert se.delta <= 2.0 * f.sup_abs

    def test_grid_size_minimum(self):
        f = builtin_catalog("square")
        with pytest.raises(ParameterError):
            sup_error(f, bernoulli_family(), 4, np.linspace(0.1, 0.9, 20))

    def test_grid_must_stay_in_domain(self):
        f = builtin_catalog("square")
        with pytest.raises(ParameterError):
            sup_error(f, bernoulli_family(), 4, np.linspace(0.0, 1.0, 65))

    @pytest.mark.parametrize("name", ["constant", "identity", "square", "sine", "power-cusp"])
    def test_delta_shrinks_from_16_to_4096(self, name):
        f = builtin_catalog(name)
        fam = bernoulli_family()
        grid = np.linspace(0.001, 0.999, 65)
        d16 = sup_error(f, fam, 16, grid).delta
        d4096 = sup_error(f, fam, 4096, grid).delta
        # exactly reproduced functions sit at the float noise floor for both n
        assert d4096 < d16 or (d16 <= 1e-10 and d4096 <= 1e-10)

    def test_delta_shrinks_for_szasz(self):
        f = builtin_catalog("exp-decay")
        fam = poisson_family()
        grid = np.linspace(1.0, 64.0, 65)
        d16 = sup_error(f, fam, 16, grid).delta
        d1024 = sup_error(f, fam, 1024, grid).delta
        assert d1024 < d16

    def test_monte_carlo_mode_near_exact(self):
        f = builtin_catalog("square")
        fam = bernoulli_family()
        grid = np.linspace(0.05, 0.95, 33)
        exact = sup_error(f, fam, 10, grid).delta
        mc = sup_error(f, fam, 10, grid, mode="monte-carlo", trials=40_000, seed=5)
        assert abs(mc.delta - exact) <= mc.error_radius + 0.005

    def test_monte_carlo_mode_needs_a_seed(self):
        f = builtin_catalog("square")
        grid = np.linspace(0.05, 0.95, 33)
        with pytest.raises(ParameterError, match="seed"):
            sup_error(f, bernoulli_family(), 10, grid, mode="monte-carlo", trials=200)

    @pytest.mark.parametrize("path", ["bernoulli", "poisson", "monte-carlo"])
    def test_keeps_the_operator_values_it_maximizes(self, path):
        fam = poisson_family() if path == "poisson" else bernoulli_family()
        f = builtin_catalog("exp-decay" if path == "poisson" else "square")
        grid = np.linspace(*fam.x_domain, 33)
        if path == "monte-carlo":
            se = sup_error(f, fam, 10, grid, mode="monte-carlo", trials=200, seed=7)
            expected = [generic_mc(f, fam, 10, float(x), 200, rng=child)
                        for x, child in zip(grid, spawn_rngs(7, grid.size))]
        elif path == "poisson":  # the Szasz window changes from x to x
            se = sup_error(f, fam, 10, grid)
            expected = [szasz_exact(f, 10, float(x)) for x in grid]
        else:
            se = sup_error(f, fam, 10, grid)
            expected = [bernstein_exact(f, 10, float(x)) for x in grid]
        assert se.values == tuple(expected)
        d = [abs(ov.value - eval_clamped(f, float(x))) for ov, x in zip(se.values, grid)]
        assert se.delta == max(d) and se.argmax_x == float(grid[d.index(max(d))])
        assert se.error_radius == max(ov.error_radius for ov in expected)

    def test_unknown_mode_rejected(self):
        f = builtin_catalog("square")
        grid = np.linspace(0.05, 0.95, 33)
        with pytest.raises(ParameterError, match="bogus"):
            sup_error(f, bernoulli_family(), 10, grid, mode="bogus")

    def test_ties_go_to_the_first_grid_point(self):
        # every |A_n f - f| is 0 for a constant, so the first maximum wins
        grid = np.linspace(0.05, 0.95, 33)
        se = sup_error(builtin_catalog("constant", c=0.0), bernoulli_family(), 10, grid)
        assert se.delta == 0.0 and se.argmax_x == grid[0]


class TestSharedSweep:
    BERNOULLI = Family("bernoulli", UNIT_INTERVAL, (0.0, 1.0))
    POISSON = Family("poisson", HALF_LINE, (0.0, 64.0))

    @pytest.mark.parametrize("n", [1, 16, 1000, 2**13 + 5])
    def test_bernstein_pair_equals_separate_sweeps(self, n):
        # a grid with x = 0 and x = 1, and the trial cusp beside f
        grid = np.linspace(0.0, 1.0, 41)
        fs = (builtin_catalog("power-cusp", x0=0.3, alpha=0.5),
              trial_function(0.5, 0.5, UNIT_INTERVAL), builtin_catalog("square"))
        self.assert_shared_equals_separate(fs, self.BERNOULLI, n, grid)

    @pytest.mark.parametrize("n", [1, 16, 256, 4096, 65536])
    def test_szasz_pair_equals_separate_sweeps(self, n):
        # from x = 0 over lattice blocks of many windows down to one window per block
        grid = np.linspace(0.0, 64.0, 33)
        fs = (builtin_catalog("exp-decay"), scale_function(builtin_catalog("sine", freq=3.0), 2.5))
        self.assert_shared_equals_separate(fs, self.POISSON, n, grid)

    @staticmethod
    def assert_shared_equals_separate(fs, fam, n, grid):
        shared = sup_errors(fs, fam, n, grid)
        for f, se in zip(fs, shared):
            alone = sup_error(f, fam, n, grid)
            assert (se, se.values) == (alone, alone.values)
            # each x alone, a lattice block of its own window
            one = bernstein_exact if fam.kind == "bernoulli" else szasz_exact
            assert se.values == tuple(one(f, n, float(x)) for x in grid)
        if fam.kind == "poisson":
            assert [se.error_radius for se in shared] == [1e-12 * f.sup_abs for f in fs]

    def test_monte_carlo_pair_equals_separate_sweeps(self):
        grid = np.linspace(0.05, 0.95, 33)
        fs = (builtin_catalog("square"), trial_function(0.5, 0.5, UNIT_INTERVAL))
        kw = dict(mode="monte-carlo", trials=200, seed=3)
        shared = sup_errors(fs, bernoulli_family(0.05), 16, grid, **kw)
        for f, se in zip(fs, shared):
            alone = sup_error(f, bernoulli_family(0.05), 16, grid, **kw)
            assert (se, se.values) == (alone, alone.values)

    def test_lattice_blocks_stay_bounded(self):
        # at n = 65536 most Szasz windows are wider than a block, so a block is
        # one window of at most about 1.1e5 points (the sweep peaks near 1.7 MiB),
        # not the whole lattice [0, max hi] of 4.3e6 points, 34 MB per array of it
        import tracemalloc

        f = builtin_catalog("exp-decay")
        tracemalloc.start()
        try:
            sup_error(f, poisson_family(), 65536, np.linspace(1.0, 64.0, 257))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


def test_operator_value_invariants():
    with pytest.raises(ParameterError):
        OperatorValue(1.0, 0.1, "exact-sum")
    with pytest.raises(ParameterError):
        OperatorValue(1.0, -0.1, "monte-carlo")
    with pytest.raises(ParameterError):
        OperatorValue(1.0, 0.0, "magic")


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_nonfinite_x_is_a_parameter_error(x):
    # one finite check serves both families, before any window is built
    with pytest.raises(ParameterError, match="finite"):
        bernstein_exact(builtin_catalog("square"), 4, x)
    with pytest.raises(ParameterError, match="finite"):
        szasz_exact(builtin_catalog("exp-decay"), 4, x)
    for fam, f in ((bernoulli_family(), builtin_catalog("square")),
                   (poisson_family(), builtin_catalog("exp-decay"))):
        grid = np.linspace(*fam.x_domain, 65)
        grid[32] = x
        with pytest.raises(ParameterError):
            sup_errors((f,), fam, 4, grid)
