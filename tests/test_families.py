import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernapprox.errors import OverflowComputationError, ParameterError
from bernapprox.families import (
    NormalizedVariate,
    bernoulli_family,
    family_pmf,
    family_sample,
    family_sigma,
    family_support,
    normalized_sum_samples,
    poisson_family,
    sample_scaled_sum,
    _poisson_inversion,
    spawn_rngs,
    zeta_log_mgf,
)


def loop_poisson_inversion(mu, rng, size):
    """Oracle: inversion by sequential search, one Python loop per draw."""
    shape = () if size is None else (size if isinstance(size, tuple) else (size,))
    u = rng.random(size=shape)
    flat = np.atleast_1d(u).ravel()
    out = np.empty(flat.shape, dtype=np.int64)
    for i, ui in enumerate(flat):
        k = 0
        p = math.exp(-mu)
        cdf = p
        while ui > cdf:
            k += 1
            p *= mu / k
            cdf += p
            if p == 0.0:  # cdf saturated; ui was in the far tail
                break
        out[i] = k
    if size is None:
        return int(out[0])
    return out.reshape(shape)


class _FixedUniforms:
    """Stands in for a Generator whose next uniforms are given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size=None):
        return self.u.reshape(size).copy()


@pytest.fixture
def bern():
    return bernoulli_family()


@pytest.fixture
def pois():
    return poisson_family()


class TestSigma:
    def test_bernoulli_half(self, bern):
        assert family_sigma(bern, 0.5) == 0.5

    def test_poisson_four(self, pois):
        assert family_sigma(pois, 4.0) == 2.0

    def test_bernoulli_skewed(self, bern):
        assert family_sigma(bern, 0.09) == pytest.approx(math.sqrt(0.09 * 0.91), abs=1e-15)

    def test_domain_enforced(self, bern, pois):
        with pytest.raises(ParameterError):
            family_sigma(bern, 0.0)
        with pytest.raises(ParameterError):
            family_sigma(pois, 0.5)

    def test_bounded_family_sigma_capped_by_half_range(self, bern):
        # values confined to [0, 1] force sigma <= (b - a)/2
        xs = np.linspace(*bern.x_domain, 101)
        assert max(family_sigma(bern, float(x)) for x in xs) <= 0.5


class TestPmf:
    def test_poisson_at_zero(self, pois):
        assert family_pmf(pois, 1.0, 1, 0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_binomial_midpoint(self, bern):
        # brute force: C(2,1) 0.5^2 = 0.5
        assert family_pmf(bern, 0.5, 2, 1) == pytest.approx(0.5, abs=1e-12)

    def test_bernoulli_single_draw(self, bern):
        assert family_pmf(bern, 0.3, 1, 1) == pytest.approx(0.3, abs=1e-12)

    def test_out_of_support_exact_zero(self, bern, pois):
        assert family_pmf(bern, 0.5, 4, 5) == 0.0
        assert family_pmf(bern, 0.5, 4, -1) == 0.0
        assert family_pmf(pois, 2.0, 3, -2) == 0.0

    def test_matches_exact_binomial_small_n(self, bern):
        # independent integer-combinatorics oracle
        n, x = 9, 0.37
        for k in range(n + 1):
            exact = math.comb(n, k) * x**k * (1 - x) ** (n - k)
            assert family_pmf(bern, x, n, k) == pytest.approx(exact, rel=1e-12)

    def test_matches_exact_poisson_series(self, pois):
        # iterative-product oracle, no log-gamma involved
        n, x = 3, 2.5
        mu = n * x
        term = math.exp(-mu)
        for k in range(40):
            assert family_pmf(pois, x, n, k) == pytest.approx(term, rel=1e-10)
            term *= mu / (k + 1)

    @pytest.mark.parametrize("kind,x,n", [("bernoulli", 0.3, 50), ("bernoulli", 0.9, 17),
                                          ("poisson", 1.5, 8), ("poisson", 32.0, 12)])
    def test_sums_to_one(self, kind, x, n):
        fam = bernoulli_family() if kind == "bernoulli" else poisson_family()
        ks = family_support(fam, x, n)
        assert float(np.sum(family_pmf(fam, x, n, ks))) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_pmf_is_probability(self, k):
        fam = poisson_family()
        p = family_pmf(fam, 3.0, 4, k)
        assert 0.0 <= p <= 1.0


class TestMomentIdentities:
    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    def test_mean_and_variance(self, kind):
        fam = bernoulli_family() if kind == "bernoulli" else poisson_family()
        lo, hi = fam.x_domain
        for x in np.linspace(lo, hi, 7):
            ks = family_support(fam, float(x), 1).astype(float)
            p = family_pmf(fam, float(x), 1, ks)
            mean = float(np.sum(p * ks))
            var = float(np.sum(p * (ks - mean) ** 2))  # centered, no cancellation
            assert mean == pytest.approx(x, abs=1e-10)
            assert var == pytest.approx(family_sigma(fam, float(x)) ** 2, abs=1e-10)

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    def test_normalized_variate_standardized(self, kind):
        fam = bernoulli_family() if kind == "bernoulli" else poisson_family()
        z = NormalizedVariate(fam, 0.25 if kind == "bernoulli" else 2.0)
        mean, var = z.moments()
        assert mean == pytest.approx(0.0, abs=1e-10)
        assert var == pytest.approx(1.0, abs=1e-10)


class TestSampling:
    def test_bernoulli_support(self, bern):
        v = family_sample(bern, 0.3, 1, seed=1)
        assert v in (0.0, 1.0)

    def test_deterministic_given_seed(self, pois):
        a = family_sample(pois, 2.0, 5, seed=42)
        b = family_sample(pois, 2.0, 5, seed=42)
        assert a == b

    def test_requires_seed_or_rng(self, bern):
        with pytest.raises(ParameterError):
            family_sample(bern, 0.5, 1)

    def test_lln_bernoulli(self, bern, rng):
        means = [family_sample(bern, 0.5, 100_000, rng=rng) for _ in range(1000)]
        se = 0.5 / math.sqrt(100_000)
        assert abs(np.mean(means) - 0.5) <= 4 * se / math.sqrt(1000)

    def test_poisson_monte_carlo_mean(self, pois, rng):
        draws = sample_scaled_sum(pois, 2.0, 1, rng, size=100_000)
        assert abs(np.mean(draws) - 2.0) <= 4 * math.sqrt(2.0 / 100_000)

    def test_poisson_large_mean_path(self, pois, rng):
        # mean 160 exceeds the inversion cutoff; check the moments still match
        draws = sample_scaled_sum(pois, 32.0, 5, rng, size=50_000)
        assert abs(np.mean(draws) - 160.0) <= 4 * math.sqrt(160.0 / 50_000)

    def test_pmf_matches_monte_carlo(self, bern, rng):
        n, x, trials = 6, 0.4, 100_000
        draws = sample_scaled_sum(bern, x, n, rng, size=trials)
        for k in range(n + 1):
            freq = float(np.mean(draws == k))
            p = family_pmf(bern, x, n, k)
            se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
            assert abs(freq - p) <= 5 * se

    def test_normalized_sums_are_standardized(self, bern, rng):
        z = normalized_sum_samples(bern, 0.3, 50, 200_000, rng=rng)
        assert abs(np.mean(z)) <= 4 / math.sqrt(200_000) * 1.5
        assert np.var(z) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("mu", [0.5, 5.0, 29.9])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_poisson_inversion_matches_sequential_search(self, mu, seed):
        for size in (None, 1, 1000, (20, 3)):
            got = _poisson_inversion(mu, np.random.default_rng(seed), size)
            want = loop_poisson_inversion(mu, np.random.default_rng(seed), size)
            if size is None:
                assert type(got) is int and got == want
            else:
                assert got.dtype == np.int64 and np.array_equal(got, want)

    @pytest.mark.parametrize("mu", [0.5, 5.0, 29.9])
    def test_poisson_inversion_caps_uniforms_beyond_the_saturated_cdf(self, mu):
        # the cdf saturates at 1 or one ulp above, so only u past it reaches
        # the last table index, where p has underflowed to 0
        u = [0.0, 0.5, 1.0 - 2.0**-40, np.nextafter(1.0, 0.0), 1.0, 1.0 + 2.0**-52, 1.5, 2.0]
        got = _poisson_inversion(mu, _FixedUniforms(u), len(u))
        want = loop_poisson_inversion(mu, _FixedUniforms(u), len(u))
        assert np.array_equal(got, want)
        assert got[-1] == got[-2] > got[3]

    def test_spawned_streams_differ(self):
        r1, r2 = spawn_rngs(7, 2)
        assert r1.random() != r2.random()


class TestZetaLogMgf:
    @pytest.mark.parametrize("kind,x", [("bernoulli", 0.5), ("bernoulli", 0.02), ("poisson", 4.0)])
    def test_zero_at_zero(self, kind, x):
        fam = bernoulli_family(0.01) if kind == "bernoulli" else poisson_family()
        assert zeta_log_mgf(fam, x, 0.0) == 0.0

    def test_poisson_closed_form_value(self, pois):
        assert zeta_log_mgf(pois, 1.0, 1.0) == pytest.approx(math.e - 2.0, abs=1e-12)

    def test_poisson_against_truncated_series(self, pois):
        # E e^{lam zeta} summed directly over the Poisson support
        x, lam = 3.0, 0.7
        sig = math.sqrt(x)
        ks = family_support(pois, x, 1).astype(float)
        p = family_pmf(pois, x, 1, ks)
        direct = math.log(float(np.sum(p * np.exp(lam * (ks - x) / sig))))
        assert zeta_log_mgf(pois, x, lam) == pytest.approx(direct, abs=1e-10)

    def test_bernoulli_two_point_expectation(self, bern):
        # ln(0.5 e^{-1} + 0.5 e^{1}) = ln cosh 1
        assert zeta_log_mgf(bern, 0.5, 1.0) == pytest.approx(math.log(math.cosh(1.0)), abs=1e-12)

    def test_bernoulli_stable_near_edge(self):
        fam = bernoulli_family(1e-3)
        val = zeta_log_mgf(fam, 1e-3, 40.0)
        assert math.isfinite(val) and val > 0

    def test_overflow_raises_with_context(self):
        fam = poisson_family(0.01, 64.0)
        with pytest.raises(OverflowComputationError) as exc:
            zeta_log_mgf(fam, 0.01, 200.0)
        assert exc.value.x == 0.01
        assert exc.value.lam == 200.0

    @pytest.mark.parametrize("kind,x", [("bernoulli", 0.3), ("poisson", 2.0)])
    def test_convex_with_unit_curvature(self, kind, x):
        fam = bernoulli_family() if kind == "bernoulli" else poisson_family()
        h = 1e-3
        lams = np.linspace(-3.0, 3.0, 61)
        vals = zeta_log_mgf(fam, x, lams)
        second = np.diff(vals, 2) / ((lams[1] - lams[0]) ** 2)
        assert np.all(second >= -1e-8)
        curv0 = (zeta_log_mgf(fam, x, h) - 2 * zeta_log_mgf(fam, x, 0.0)
                 + zeta_log_mgf(fam, x, -h)) / h**2
        assert curv0 == pytest.approx(1.0, abs=1e-6)

    def test_poisson_nonincreasing_in_x_for_positive_lam(self, pois):
        xs = np.linspace(1.0, 64.0, 40)
        for lam in (0.5, 1.0, 2.0):
            vals = [zeta_log_mgf(pois, float(x), lam) for x in xs]
            assert np.all(np.diff(vals) <= 1e-12)
