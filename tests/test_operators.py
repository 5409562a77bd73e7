import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom, poisson

from bernapprox.errors import InsufficientDataError, ParameterError
from bernapprox.families import (
    CHUNK, LATTICE_BLOCK, bernoulli_family, bernstein_window, frames, poisson_family, spawn_rngs,
)
from bernapprox.functions import (
    HALF_LINE,
    UNIT_INTERVAL,
    TargetFunction,
    builtin_catalog,
    eval_clamped,
    trial_function,
)
from bernapprox.modulus import modulus_profile
from bernapprox.operators import (
    MAX_BERNSTEIN_N, _exact_sums, generic_mc, sup_error, sup_errors,
)
from conftest import per_x_exact_sums, per_x_pmf_kernel, scale_function

BERN = bernoulli_family(0.01)
BERN_GRID = np.linspace(*BERN.x_domain, 33)  # holds x = 1/2
POIS = poisson_family(0.5, 4.0)
POIS_GRID = np.linspace(*POIS.x_domain, 36)  # steps of 0.1


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


def one_x_at_a_time(f, fam, n, grid):
    """(value, radius) at each x of the grid from _exact_sums on that x alone, a lattice
    block of its own window."""
    sums = [_exact_sums((f,), fam.kind, n, grid[i:i + 1]) for i in range(grid.size)]
    return [(float(v[0, 0]), r[0]) for v, r in sums]


def values(f, fam, n, grid, **kw):
    """A_n[f] on the grid, as sup_error returns it."""
    return sup_error(f, fam, n, grid, **kw).values


class TestBernstein:
    def test_reproduces_identity(self):
        f = builtin_catalog("identity")
        se = sup_error(f, BERN, 10, BERN_GRID)
        np.testing.assert_allclose(se.values, BERN_GRID, rtol=0, atol=1e-13)
        brute = [brute_bernstein(f, 10, float(x)) for x in BERN_GRID]
        np.testing.assert_allclose(se.values, brute, rtol=0, atol=1e-13)
        assert se.radii.tolist() == [1e-12 * f.sup_abs] * BERN_GRID.size

    def test_square_closed_form(self):
        # B_5[x^2](x) = x^2 + x(1-x)/5, 0.30 at x = 1/2
        f = builtin_catalog("square")
        got = values(f, BERN, 5, BERN_GRID)
        np.testing.assert_allclose(got, BERN_GRID**2 + BERN_GRID * (1 - BERN_GRID) / 5, rtol=0, atol=1e-13)
        assert got[16] == pytest.approx(0.30, abs=1e-13)
        brute = [brute_bernstein(f, 5, float(x)) for x in BERN_GRID]
        np.testing.assert_allclose(got, brute, rtol=0, atol=1e-13)

    def test_constant_normalization(self):
        f = builtin_catalog("constant", c=1.0)
        for n in (1, 7, 300):
            np.testing.assert_allclose(values(f, BERN, n, BERN_GRID), 1.0, rtol=0, atol=1e-12)

    def test_matches_brute_force_on_random_inputs(self, rng):
        f = builtin_catalog("sine", freq=1.5)
        for _ in range(5):
            n = int(rng.integers(1, 40))
            grid = np.sort(rng.uniform(0.01, 0.99, 33))
            brute = [brute_bernstein(f, n, float(x)) for x in grid]
            np.testing.assert_allclose(values(f, BERN, n, grid), brute, rtol=0, atol=1e-12)

    def test_linearity(self, rng):
        f = builtin_catalog("square")
        g = builtin_catalog("sine")
        for _ in range(10):
            a, b = rng.uniform(-2, 2, 2)
            combo = TargetFunction(
                f.interval,
                lambda x, _a=a, _b=b: _a * f.evaluator(x) + _b * g.evaluator(x),
                name="combo",
                sup_abs=abs(a) * f.sup_abs + abs(b) * g.sup_abs,
            )
            grid = np.sort(rng.uniform(0.01, 0.99, 33))
            lhs = values(combo, BERN, 8, grid)
            rhs = a * values(f, BERN, 8, grid) + b * values(g, BERN, 8, grid)
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_positivity(self, rng):
        g = trial_function(0.3, 0.5)
        for _ in range(25):
            n = int(rng.integers(1, 100))
            assert np.all(values(g, BERN, n, np.sort(rng.uniform(0.01, 0.99, 33))) >= -1e-14)

    def test_n_validation(self):
        f = builtin_catalog("identity")
        with pytest.raises(ParameterError):
            sup_error(f, BERN, 0, BERN_GRID)
        with pytest.raises(ParameterError):
            sup_error(f, BERN, MAX_BERNSTEIN_N + 1, BERN_GRID)
        with pytest.raises(ParameterError):
            sup_error(f, BERN, 5, np.linspace(0.5, 1.2, 33))


class TestSzasz:
    def test_constant_normalization(self):
        f = builtin_catalog("constant", c=1.0)
        se = sup_error(f, POIS, 7, POIS_GRID)
        np.testing.assert_allclose(se.values, 1.0, rtol=0, atol=1e-12)
        assert np.all(se.radii <= 1e-12)

    def test_exp_decay_mgf_identity(self):
        # E e^{-S_n} = exp(n x (e^{-1/n} - 1))
        f = builtin_catalog("exp-decay")
        got = values(f, POIS, 4, POIS_GRID)
        np.testing.assert_allclose(got, np.exp(4 * POIS_GRID * (math.exp(-0.25) - 1)), rtol=0, atol=1e-8)
        brute = [brute_szasz(f, 4, float(x)) for x in POIS_GRID]
        np.testing.assert_allclose(got, brute, rtol=0, atol=1e-10)

    def test_identity_mean_with_declared_bound(self):
        # Poisson(x) mean; the declared sup bound certifies the truncation
        f = TargetFunction(HALF_LINE, lambda t: np.asarray(t, dtype=float) + 0.0,
                           name="line", sup_abs=50.0)
        se = sup_error(f, POIS, 1, POIS_GRID, tail_tol=1e-9)
        np.testing.assert_allclose(se.values, POIS_GRID, rtol=0, atol=1e-7)
        assert se.radii.tolist() == [1e-9 * 50.0] * POIS_GRID.size

    def test_requires_sup_abs(self):
        f = TargetFunction(HALF_LINE, lambda t: np.asarray(t, dtype=float) + 0.0, name="line")
        with pytest.raises(InsufficientDataError):
            sup_error(f, POIS, 2, POIS_GRID, tail_tol=1e-10)

    def test_tail_tol_range_enforced(self):
        f = builtin_catalog("exp-decay")
        with pytest.raises(ParameterError):
            sup_error(f, POIS, 2, POIS_GRID, tail_tol=1e-3)

    def test_negative_x_rejected(self):
        # no family's x-domain holds x <= 0, so the grid check refuses it
        with pytest.raises(ParameterError, match="x-domain"):
            sup_error(builtin_catalog("exp-decay"), POIS, 2, np.linspace(-0.5, 4.0, 33))

    def test_truncation_point_certifies_tail(self):
        # the dropped Poisson mass beyond the window's upper end is below half the tolerance
        mu, tol = 12.0, 1e-10
        (cut,) = bernstein_window("poisson", 1, np.array([mu]), tol)[1]
        w = math.exp(-mu)
        mass = 0.0
        for k in range(cut + 1):
            mass += w
            w *= mu / (k + 1)
        assert 1.0 - mass <= tol / 2


class TestBernsteinWindow:
    @given(n=st.integers(1, 2**14), x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           tol=st.sampled_from([1e-6, 1e-12]))
    @settings(max_examples=300, deadline=None)
    @example(n=2**14, x=0.5, tol=1e-12)
    @example(n=1, x=5e-324, tol=1e-6)
    def test_each_side_drops_at_most_half_the_tolerance(self, n, x, tol):
        lo, hi = (int(v[0]) for v in bernstein_window("bernoulli", n, np.array([x]), tol))
        assert 0 <= lo <= n * x <= hi <= n
        assert binom.cdf(lo - 1, n, x) <= tol / 2
        assert binom.sf(hi, n, x) <= tol / 2

    def test_windows_are_a_tenth_of_the_row_at_4096(self):
        # the default grid at n = 4096 sums about 400 of the 4097 points per x
        xs = np.linspace(1e-3, 1.0 - 1e-3, 257)
        lo, hi = bernstein_window("bernoulli", 4096, xs, 1e-12)
        assert 350 <= np.mean(hi - lo + 1) <= 450

    @given(n=st.integers(1, 2**14), ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           size=st.integers(1, 60), spread=st.booleans(),
           which=st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True),
           tol=st.sampled_from([1e-6, 1e-12]), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    @example(n=2**14, ends=(0.0, 1.0), size=60, spread=False, which=[0, 2], tol=1e-12, seed=0)
    def test_windowed_sums_within_radius_of_full_rows(self, n, ends, size, spread, which, tol, seed):
        # the full-row oracle sums every Binomial row over all of [0, n]
        xs = batch_grid("bernoulli", ends, size, spread, seed)
        fs = [BATCH_FUNCTIONS["bernoulli"][i] for i in which]
        values, radii = _exact_sums(fs, "bernoulli", n, xs, tol)
        full = per_x_exact_sums(fs, "bernoulli", n, xs, tol, full=True)
        assert radii == [tol * f.sup_abs for f in fs]
        for v, r, fv in zip(values, radii, full):
            assert np.all(np.abs(v - fv) <= r + 1e-13)


class TestSzaszWindow:
    """bernstein_window on Poisson(mu), mu = n x, from 1e-4 up to the workload's largest, 2^22 * 64."""

    MUS = np.geomspace(1e-4, 2.0**22 * 64.0, 61)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12, 1e-15])
    @given(mu=st.floats(math.log(1e-4), math.log(2.0**22 * 64.0)).map(math.exp))
    @settings(max_examples=100, deadline=None)
    @example(mu=1e-4)
    @example(mu=2.0**22 * 64.0)
    def test_dropped_mass_is_certified(self, tol, mu):
        (lo,), (hi,) = bernstein_window("poisson", 1, np.array([mu]), tol)
        assert 0 <= lo <= mu <= hi
        assert poisson.cdf(lo - 1, mu) <= tol / 2
        assert poisson.sf(hi, mu) <= tol / 2

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_width_grows_like_sqrt_mu(self, tol):
        # hi - lo <= 2t + 4 with t = T/3 + sqrt(T^2/9 + 2 T mu) <= 2T/3 + sqrt(2 T mu)
        lo, hi = bernstein_window("poisson", 1, self.MUS, tol)
        target = math.log(2.0 / tol)
        assert np.all((0 <= lo) & (lo <= self.MUS) & (self.MUS <= hi))
        assert np.all(hi - lo <= 4.0 * target / 3.0 + 2.0 * np.sqrt(2.0 * target * self.MUS) + 4.0)

    @given(
        n=st.integers(1, 4096),
        log_x=st.floats(math.log(1e-3), math.log(64.0)),
        tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
        step=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    @example(n=3276, log_x=0.0, tol=1e-12, step=False)  # log-gamma weights: 1.34e-12 off
    def test_windowed_sum_within_radius_of_full_sum(self, n, log_x, tol, step):
        # closed-form oracles that share no code with either weight method, on a grid from x to 2x
        x = math.exp(log_x)
        grid = x * np.linspace(1.0, 2.0, 33)
        if step:  # all weight on the lower half, where the lower cut drops terms
            f = TargetFunction(HALF_LINE, lambda t: (np.asarray(t, dtype=float) <= x) * 1.0,
                               name="step", sup_abs=1.0)
            last = math.floor(n * x)  # the last k with k / n <= x, as the step sees it
            while (last + 1) / n <= x:
                last += 1
            while last >= 0 and last / n > x:
                last -= 1
            full = poisson.cdf(last, n * grid)
        else:  # the Szasz-MGF identity E exp(-N/n) = exp(mu expm1(-1/n))
            f = builtin_catalog("exp-decay")
            full = np.exp(n * grid * math.expm1(-1.0 / n))
        se = sup_error(f, poisson_family(x, 2.0 * x), n, grid, tail_tol=tol)
        assert np.all(np.abs(se.values - full) <= se.radii)
        assert se.radii.tolist() == [tol * f.sup_abs] * grid.size

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
        grid = np.linspace(1.0, 64.0, 33)
        se = sup_error(builtin_catalog("exp-decay"), poisson_family(), n, grid)
        assert np.all(np.abs(se.values - np.exp(n * grid * math.expm1(-1.0 / n))) <= se.radii)


class TestGenericMc:
    def test_constant_zero_radius(self):
        f = builtin_catalog("constant", c=2.0)
        fam = bernoulli_family()
        assert generic_mc(f, fam, 5, 0.5, 500, np.random.default_rng(3)) == (2.0, 0.0)

    def test_matches_bernstein_exact(self):
        f = builtin_catalog("square")
        fam = bernoulli_family()
        mean, radius = generic_mc(f, fam, 5, 0.5, 1_000_000, np.random.default_rng(11))
        assert abs(mean - 0.30) <= radius

    def test_matches_szasz_exact(self):
        f = builtin_catalog("exp-decay")
        fam = poisson_family()
        mean, radius = generic_mc(f, fam, 4, 1.0, 1_000_000, np.random.default_rng(12))
        assert abs(mean - math.exp(4 * (math.exp(-0.25) - 1))) <= radius

    def test_deterministic_given_seed(self):
        f = builtin_catalog("square")
        fam = bernoulli_family()
        a = generic_mc(f, fam, 3, 0.4, 1000, np.random.default_rng(9))
        b = generic_mc(f, fam, 3, 0.4, 1000, np.random.default_rng(9))
        assert a == b

    def test_minimum_trials(self):
        f = builtin_catalog("square")
        with pytest.raises(ParameterError):
            generic_mc(f, bernoulli_family(), 3, 0.4, 50, np.random.default_rng(1))

    def test_agreement_rate_over_random_configs(self, rng):
        # the brute-force value inside the 3-sigma radius in at least 99% of 500 draws
        fams = [bernoulli_family(), poisson_family()]
        names = ["square", "sine", "exp-decay", "power-cusp"]
        hits = 0
        total = 500
        for i in range(total):
            fam = fams[int(rng.integers(0, 2))]
            if fam.kind == "bernoulli":
                f = builtin_catalog(names[int(rng.integers(0, 2))])
                x = float(rng.uniform(0.05, 0.95))
                exact = brute_bernstein(f, 8, x)
            else:
                f = builtin_catalog("exp-decay")
                x = float(rng.uniform(1.0, 16.0))
                exact = brute_szasz(f, 8, x)
            mean, radius = generic_mc(f, fam, 8, x, 2000, np.random.default_rng(1000 + i))
            if abs(mean - exact) <= radius + 1e-12:
                hits += 1
        assert hits >= 0.99 * total


class TestSupError:
    def test_identity_reproduced(self):
        f = builtin_catalog("identity")
        fam = bernoulli_family()
        se = sup_error(f, fam, 25, np.linspace(0.001, 0.999, 257))
        assert se.delta <= 1e-12
        assert se.error_radius == 1e-12 * f.sup_abs

    @pytest.mark.parametrize("n", [4096, 65536, 2**22])
    def test_square_matches_the_variance_identity(self, n):
        # B_n[x^2] = x^2 + x(1-x)/n; the sup sits at x = 1/2, where both sides
        # are dyadic, so what is left is the window's dropped mass, inside the
        # radius, and rounding near B_n = 1/4 (measured 6.7e-16 at n = 4096,
        # 6.6e-15 at 65536 and 1.2e-14 at 2^22)
        grid = np.linspace(0.001, 0.999, 257)
        se = sup_error(builtin_catalog("square"), bernoulli_family(), n, grid)
        expected = float(np.max(grid * (1.0 - grid))) / n
        assert abs(se.delta - expected) <= se.error_radius + 4 * math.ulp(0.25)

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
        else:  # the window changes from x to x
            se = sup_error(f, fam, 10, grid)
            expected = one_x_at_a_time(f, fam, 10, grid)
        assert se.values.shape == se.radii.shape == grid.shape
        assert list(zip(se.values.tolist(), se.radii.tolist())) == expected
        d = [abs(v - eval_clamped(f, float(x))) for (v, _), x in zip(expected, grid)]
        assert se.delta == max(d) and se.argmax_x == float(grid[d.index(max(d))])
        assert se.error_radius == se.radii.max() == max(r for _, r in expected)

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    def test_monte_carlo_radii_are_three_standard_errors(self, kind):
        fam = bernoulli_family() if kind == "bernoulli" else POIS
        f = builtin_catalog("square" if kind == "bernoulli" else "exp-decay")
        grid, n, trials = np.linspace(*fam.x_domain, 33), 10, 200
        se = sup_error(f, fam, n, grid, mode="monte-carlo", trials=trials, seed=7)
        for x, child, v, r in zip(grid, spawn_rngs(7, grid.size), se.values, se.radii):
            draws = child.binomial(n, x, trials) if kind == "bernoulli" else child.poisson(n * x, trials)
            vals = eval_clamped(f, draws / n)
            assert v == np.mean(vals)
            assert r == 3.0 * np.std(vals, ddof=1) / math.sqrt(trials)

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
    BERNOULLI = bernoulli_family(1e-3)
    POISSON = poisson_family(1e-3, 64.0)

    @pytest.mark.parametrize("n", [1, 16, 1000, 2**13 + 5])
    def test_bernstein_pair_equals_separate_sweeps(self, n):
        # a grid from end to end of the x-domain, and the trial cusp beside f
        grid = np.linspace(*self.BERNOULLI.x_domain, 41)
        fs = (builtin_catalog("power-cusp", x0=0.3, alpha=0.5),
              trial_function(0.5, 0.5, UNIT_INTERVAL), builtin_catalog("square"))
        self.assert_shared_equals_separate(fs, self.BERNOULLI, n, grid)

    @pytest.mark.parametrize("n", [1, 16, 256, 4096, 65536])
    def test_szasz_pair_equals_separate_sweeps(self, n):
        # from mu = n / 1000 over lattice blocks of many windows down to one window per block
        grid = np.linspace(*self.POISSON.x_domain, 33)
        fs = (builtin_catalog("exp-decay"), scale_function(builtin_catalog("sine", freq=3.0), 2.5))
        self.assert_shared_equals_separate(fs, self.POISSON, n, grid)

    @staticmethod
    def assert_shared_equals_separate(fs, fam, n, grid):
        shared = sup_errors(fs, fam, n, grid)
        for f, se in zip(fs, shared):
            alone = sup_error(f, fam, n, grid)
            assert (se.delta, se.argmax_x, se.error_radius) == (alone.delta, alone.argmax_x, alone.error_radius)
            assert (se.values.tolist(), se.radii.tolist()) == (alone.values.tolist(), alone.radii.tolist())
            assert list(zip(se.values.tolist(), se.radii.tolist())) == one_x_at_a_time(f, fam, n, grid)
        assert [se.error_radius for se in shared] == [1e-12 * f.sup_abs for f in fs]

    def test_monte_carlo_pair_equals_separate_sweeps(self):
        grid = np.linspace(0.05, 0.95, 33)
        fs = (builtin_catalog("square"), trial_function(0.5, 0.5, UNIT_INTERVAL))
        kw = dict(mode="monte-carlo", trials=200, seed=3)
        shared = sup_errors(fs, bernoulli_family(0.05), 16, grid, **kw)
        for f, se in zip(fs, shared):
            alone = sup_error(f, bernoulli_family(0.05), 16, grid, **kw)
            assert (se.delta, se.argmax_x, se.error_radius) == (alone.delta, alone.argmax_x, alone.error_radius)
            assert (se.values.tolist(), se.radii.tolist()) == (alone.values.tolist(), alone.radii.tolist())

    def test_lattice_blocks_stay_bounded(self):
        # at n = 65536 most Szasz windows are wider than a block, so a block is
        # one window of at most about 3.1e4 points (the sweep peaks near 1.3 MiB),
        # not the whole lattice [0, max hi] of 4.3e6 points, 34 MB per array of it
        assert sweep_peak(builtin_catalog("exp-decay"), poisson_family(), 65536) <= 4 * 2**20

    def test_bernstein_sweep_stays_bounded(self):
        # every window is at most about 2000 of the 65537 points; the sweep peaks near
        # 0.44 MiB, where full rows of [0, n] peaked at 2.6 MiB
        assert sweep_peak(builtin_catalog("square"), bernoulli_family(), 65536) <= 3.5 * 2**20

    def test_bernstein_sweep_stays_bounded_at_the_largest_n(self):
        # at n = 2^22 no array spans [0, n], 32 MiB each: the base row L[k] is built per
        # lattice block, here one window of at most about 15,500 points; peaks near 0.8 MiB
        assert sweep_peak(builtin_catalog("square"), bernoulli_family(), MAX_BERNSTEIN_N) <= 4 * 2**20


def sweep_peak(f, fam, n: int) -> int:
    """tracemalloc's peak, in bytes, over sup_error of f at n on 257 x."""
    import tracemalloc

    grid = np.linspace(*fam.x_domain, 257)
    tracemalloc.start()
    try:
        sup_error(f, fam, n, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


WORKLOAD_ENDS = ((1.0 - 1e-3) / (64.0 - 1e-3), 1.0)  # batch_grid's fractions for x in [1, 64]
# batch_grid's fractions for x in [0.3, 0.3001] (Bernoulli) and [5.3, 5.30001] (Poisson): 40 such x
# share one mode at n = 16 and at n = 1000
ONE_MODE_ENDS = {"bernoulli": ((0.3 - 1e-3) / (1.0 - 2e-3), (0.3001 - 1e-3) / (1.0 - 2e-3)),
                 "poisson": ((5.3 - 1e-3) / (64.0 - 1e-3), (5.30001 - 1e-3) / (64.0 - 1e-3))}
# (kind, n, tail_tol): at 1e-12 the Szasz windows at n = 1000 are too wide to share a chunk
ONE_MODE_CASES = [("bernoulli", 16, 1e-12), ("bernoulli", 1000, 1e-12), ("poisson", 16, 1e-12),
                  ("poisson", 1000, 1e-6)]
BATCH_FUNCTIONS = {
    "bernoulli": [builtin_catalog("square"), builtin_catalog("sine", freq=3.0),
                  builtin_catalog("power-cusp", x0=0.3, alpha=0.5), trial_function(0.5, 0.5, UNIT_INTERVAL)],
    "poisson": [builtin_catalog("exp-decay"), scale_function(builtin_catalog("sine", freq=3.0), 2.5),
                builtin_catalog("constant", c=-1.5)],
}


class TestBatchedSweep:
    """_exact_sums' chunks of rows against the per-x oracle, bit for bit."""

    @given(kind=st.sampled_from(["bernoulli", "poisson"]), n=st.integers(1, 2**14),
           ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), size=st.integers(1, 300),
           spread=st.booleans(), which=st.lists(st.integers(0, 2), min_size=1, max_size=3),
           tol=st.sampled_from([1e-6, 1e-12]), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    @example(kind="poisson", n=2**14, ends=(0.15, 0.6), size=40, spread=False, which=[0], tol=1e-12, seed=0)
    @example(kind="bernoulli", n=CHUNK // 2 - 1, ends=(0.0, 1.0), size=2, spread=False, which=[3, 0],
             tol=1e-12, seed=0)
    @example(kind="bernoulli", n=CHUNK // 2, ends=(0.0, 1.0), size=2, spread=False, which=[2], tol=1e-12,
             seed=0)
    @example(kind="bernoulli", n=1, ends=(0.0, 1.0), size=300, spread=True, which=[0, 1, 2], tol=1e-12,
             seed=1)
    @example(kind="bernoulli", n=256, ends=(0.0, 1.0), size=300, spread=False, which=[2, 3], tol=1e-12,
             seed=0)
    @example(kind="poisson", n=1024, ends=WORKLOAD_ENDS, size=257, spread=False, which=[0, 1], tol=1e-12,
             seed=0)
    @example(kind="poisson", n=4096, ends=WORKLOAD_ENDS, size=257, spread=False, which=[0, 1], tol=1e-12,
             seed=0)
    @example(kind="poisson", n=4096, ends=WORKLOAD_ENDS, size=257, spread=False, which=[0, 1, 2], tol=1e-12,
             seed=0)
    @example(kind="bernoulli", n=CHUNK // 2, ends=(0.0, 1.0), size=2, spread=False, which=[3, 0, 1],
             tol=1e-12, seed=0)
    @example(kind="bernoulli", n=16, ends=ONE_MODE_ENDS["bernoulli"], size=40, spread=False, which=[0, 2],
             tol=1e-12, seed=0)
    @example(kind="bernoulli", n=1000, ends=ONE_MODE_ENDS["bernoulli"], size=40, spread=False, which=[0, 2],
             tol=1e-12, seed=0)
    @example(kind="poisson", n=16, ends=ONE_MODE_ENDS["poisson"], size=40, spread=False, which=[0, 1],
             tol=1e-12, seed=0)
    @example(kind="poisson", n=1000, ends=ONE_MODE_ENDS["poisson"], size=40, spread=False, which=[0, 1],
             tol=1e-6, seed=0)
    def test_chunks_equal_the_per_x_sums(self, kind, n, ends, size, spread, which, tol, seed):
        # a Bernoulli grid in [1e-3, 1 - 1e-3] and a Poisson grid in [1e-3, 64], spread at
        # random or evenly between two ends; the first example's Szasz windows are
        # wider than LATTICE_BLOCK, the next two put one row in a chunk, at n = 256
        # the CHUNK budget cuts the chunks, the next four put every row in a
        # chunk of its own: the Poisson/exp-decay workload's grid with two, two and
        # three functions, and the two ends of the Bernoulli x-domain with three,
        # and the last four make chunks of many rows with one mode (ONE_MODE_CASES)
        xs = batch_grid(kind, ends, size, spread, seed)
        fs = [BATCH_FUNCTIONS[kind][i % len(BATCH_FUNCTIONS[kind])] for i in which]
        values, _ = _exact_sums(fs, kind, n, xs, tol)
        assert values.tolist() == per_x_exact_sums(fs, kind, n, xs, tol).tolist()

    @given(kind=st.sampled_from(["bernoulli", "poisson"]), n=st.integers(1, 2**14),
           ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), size=st.integers(1, 60),
           spread=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    @example(kind="bernoulli", n=4096, ends=(0.0, 1.0), size=33, spread=False, seed=0)
    def test_chunk_weights_equal_the_per_x_weights(self, kind, n, ends, size, spread, seed):
        # every weight of a row's window, in the frames of a sweep with no function,
        # whose lattice holds only the base row L[k]; a one-row chunk's frame is 1-d
        xs = batch_grid(kind, ends, size, spread, seed)
        lo, hi = bernstein_window(kind, n, xs, 1e-12)
        oracle = per_x_pmf_kernel(kind, n)
        for s, e, a, w, p, _ in frames(kind, n, xs, lo, hi, ()):
            assert p.shape == (0,) + w.shape and w.ndim == (1 if e - s == 1 else 2)
            for i in range(s, e):
                got = w.reshape(e - s, -1)[i - s, lo[i] - a:hi[i] - a + 1]
                assert got.tolist() == oracle(float(xs[i]), int(lo[i]), int(hi[i])).tolist()

    @given(kind=st.sampled_from(["bernoulli", "poisson"]), n=st.integers(1, 2**14),
           ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), size=st.integers(1, 300),
           spread=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_the_chunks_tile_the_grid_within_the_budget(self, kind, n, ends, size, spread, seed):
        # the chunks cover the rows in order, each row's window inside its chunk's
        # k range, and a chunk of more rows than one holds 3 or more, modes close
        # to its first row's and a frame of at most CHUNK floats and CHUNK // 8 points
        xs = batch_grid(kind, ends, size, spread, seed)
        lo, hi = bernstein_window(kind, n, xs, 1e-12)
        modes = row_modes(kind, n, xs, lo, hi)
        chunks = chunk_frames(kind, n, xs)
        assert [s for s, *_ in chunks] + [xs.size] == [0] + [e for _, e, *_ in chunks]
        for s, e, a, b in chunks:
            assert s < e and a <= lo[s:e].min() and hi[s:e].max() <= b
            if e - s > 1:
                assert e - s >= 3 and np.abs(modes[s:e] - modes[s]).max() <= CHUNK // 32
                assert (e - s) * (b - a + 1) <= CHUNK and b - a + 1 <= CHUNK // 8

    def test_a_window_that_dips_between_neighbours_keeps_every_float(self):
        # on 33 x one ulp apart, rounding lowers hi by one point from one x to the
        # next, once; the chunk plan's running maxima still hold every window
        x0 = 0.8869934090606073
        xs = x0 + math.ulp(x0) * np.arange(-16, 17)
        lo, hi = bernstein_window("bernoulli", 9404, xs, 1e-12)
        assert np.count_nonzero(np.diff(hi) < 0) == 1 and np.all(np.diff(lo) >= 0)
        fs = BATCH_FUNCTIONS["bernoulli"]
        values = [r.values.tolist() for r in sup_errors(fs, bernoulli_family(), 9404, xs, tail_tol=1e-12)]
        assert values == per_x_exact_sums(fs, "bernoulli", 9404, xs, 1e-12).tolist()

    def test_the_examples_reach_the_block_and_the_budget(self):
        # the Szasz windows of the first example are wider than LATTICE_BLOCK, and
        # those of the workload's shape at n = 4096 straddle it, so the lattice
        # buffer fills a window in more than one piece; the 300 Binomial rows at
        # n = 256 share chunks whose frames the CHUNK budget cuts, each with a band
        # between its modes; the two rows at both ends of [0, n] and the Szasz rows
        # of the workload's shape are a chunk each
        lo, hi = bernstein_window("poisson", 2**14, batch_grid("poisson", (0.15, 0.6), 40, False, 0), 1e-12)
        assert LATTICE_BLOCK < np.min(hi - lo + 1)
        lo, hi = bernstein_window("poisson", 4096, workload_grid(), 1e-12)
        assert np.min(hi - lo + 1) < LATTICE_BLOCK < np.max(hi - lo + 1)
        xs = batch_grid("bernoulli", (0.0, 1.0), 300, False, 0)
        modes = row_modes("bernoulli", 256, xs, *bernstein_window("bernoulli", 256, xs, 1e-12))
        chunks = chunk_frames("bernoulli", 256, xs)
        assert len(chunks) > 1 and all(modes[s] < modes[e - 1] for s, e, _, _ in chunks)
        assert CHUNK // 2 < max((e - s) * (b - a + 1) for s, e, a, b in chunks) <= CHUNK
        ends = batch_grid("bernoulli", (0.0, 1.0), 2, False, 0)
        assert [(s, e) for s, e, *_ in chunk_frames("bernoulli", CHUNK // 2, ends)] == [(0, 1), (1, 2)]
        for n in (1024, 4096):
            rows = [(s, e) for s, e, *_ in chunk_frames("poisson", n, workload_grid())]
            assert rows == [(i, i + 1) for i in range(257)]

    @pytest.mark.parametrize("kind, n, tol", ONE_MODE_CASES)
    def test_the_one_mode_examples_make_multi_row_chunks(self, kind, n, tol):
        # 40 x inside one mode: every chunk holds more than one row, all anchored at
        # one mode, so the band between its smallest and largest mode is one column
        xs = batch_grid(kind, ONE_MODE_ENDS[kind], 40, False, 0)
        modes = row_modes(kind, n, xs, *bernstein_window(kind, n, xs, tol))
        chunks = chunk_frames(kind, n, xs, tol)
        assert xs.size == 40 and np.unique(modes).size == 1 and all(e - s > 1 for s, e, *_ in chunks)

    @pytest.mark.parametrize("kind, n", [("poisson", 4096), ("bernoulli", 4096), ("poisson", 2**14)])
    def test_f_is_read_once_per_lattice_point(self, kind, n):
        # the windows of neighbouring x overlap: on the workload grid at n = 4096
        # they hold 1,343,839 points in all, and their union 262,407
        if kind == "poisson":
            xs = workload_grid() if n == 4096 else batch_grid("poisson", (0.15, 0.6), 40, False, 0)
            fs = [builtin_catalog("exp-decay")]
        else:
            xs, fs = np.linspace(0.05, 0.95, 257), [builtin_catalog("power-cusp", alpha=0.5), trial_function(0.5, 0.5)]
        lo, hi = bernstein_window(kind, n, xs, 1e-12)
        counted = [counting(f) for f in fs]
        _exact_sums([f for f, _ in counted], kind, n, xs)
        union = np.unique(np.concatenate([np.arange(a, b + 1) for a, b in zip(lo, hi)]))
        for _, seen in counted:
            k = np.round(np.concatenate(seen) * n).astype(np.int64)
            assert np.unique(k).size == k.size  # no point twice
            assert lo.min() <= k.min() and k.max() <= hi.max() and np.all(np.isin(union, k))

    @pytest.mark.parametrize("kind, n", [("poisson", 64), ("poisson", 4096), ("bernoulli", 256)])
    def test_x_in_any_order_gives_the_same_floats(self, kind, n):
        # descending x move every window down, so the lattice buffer starts afresh
        # below what it holds at each chunk
        xs = workload_grid() if kind == "poisson" else np.linspace(0.01, 0.99, 101)
        fs = BATCH_FUNCTIONS[kind][:2]
        values, _ = _exact_sums(fs, kind, n, xs[::-1].copy())
        assert values[:, ::-1].tolist() == _exact_sums(fs, kind, n, xs)[0].tolist()


def counting(f: TargetFunction) -> tuple[TargetFunction, list]:
    """f with an evaluator that keeps a copy of every array of points it is given."""
    seen = []

    def evaluator(x, _inner=f.evaluator):
        seen.append(np.array(x, dtype=float))
        return _inner(x)

    return f._replace(evaluator=evaluator), seen


def chunk_frames(kind: str, n: int, xs: np.ndarray, tol: float = 1e-12) -> list[tuple[int, int, int, int]]:
    """(s, e, a, b) of every chunk that families.frames yields for the windows of xs
    at n and tail_tol tol: its rows s..e-1 and its k range [a, b]."""
    lo, hi = bernstein_window(kind, n, xs, tol)
    return [(s, e, a, a + w.shape[-1] - 1) for s, e, a, w, _, _ in frames(kind, n, xs, lo, hi, ())]


def row_modes(kind: str, n: int, xs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The mode each row anchors at, floor((n+1)x) or floor(nx), clipped into its window."""
    return np.clip(np.floor((n + 1) * xs if kind == "bernoulli" else n * xs), lo, hi).astype(np.int64)


def workload_grid() -> np.ndarray:
    """The 257 evenly spaced x over [1, 64] of the Poisson/exp-decay workload, through batch_grid."""
    xs = batch_grid("poisson", WORKLOAD_ENDS, 257, False, 0)
    assert xs.tolist() == np.linspace(1.0, 64.0, 257).tolist()
    return xs


def batch_grid(kind: str, ends, size: int, spread: bool, seed: int) -> np.ndarray:
    """Up to size x between two ends, as fractions of [1e-3, 1 - 1e-3] (Bernoulli)
    or [1e-3, 64] (Poisson): uniform at random with ``spread``, else evenly."""
    lo, hi = (1e-3, 1.0 - 1e-3) if kind == "bernoulli" else (1e-3, 64.0)
    a, b = sorted(lo + (hi - lo) * e for e in ends)
    rng = np.random.default_rng(seed)
    return np.unique(rng.uniform(a, b, size) if spread else np.linspace(a, b, size))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_nonfinite_x_is_a_parameter_error(x):
    # resolve_grid is the one finite check, for both families, both modes and the modulus
    for fam, f in ((bernoulli_family(), builtin_catalog("square")),
                   (poisson_family(), builtin_catalog("exp-decay"))):
        inside, at_end = np.linspace(*fam.x_domain, 65), np.linspace(*fam.x_domain, 65)
        inside[32], at_end[-1] = x, x
        for grid in (inside, at_end, np.array([x])):
            for kw in ({}, dict(mode="monte-carlo", trials=100, seed=1)):
                with pytest.raises(ParameterError, match="finite"):
                    sup_errors((f,), fam, 4, grid, **kw)
            with pytest.raises(ParameterError, match="finite"):
                modulus_profile(f, fam.sigma, [0.0, 0.1], grid)
