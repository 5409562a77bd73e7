import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernapprox.errors import ParameterError
from bernapprox.families import (
    Family,
    _check_n,
    bernoulli_family,
    bernstein_window,
    frames,
    normalized_sum_samples,
    poisson_family,
    sample_scaled_sum,
    _mode_pmfs,
    spawn_rngs,
    zeta_bound,
    zeta_log_mgf,
)
from bernapprox.functions import HALF_LINE, UNIT_INTERVAL, builtin_catalog
from bernapprox.operators import generic_mc
from conftest import family_pmf, mode_pmf, poisson_log_mgf

POISSON_TAIL_MASS = 1e-16


def family_support(fam: Family, x: float, n: int, tail_mass: float = POISSON_TAIL_MASS) -> np.ndarray:
    """Integer support of n*S_n, Poisson tails truncated below tail_mass."""
    x = fam.check_x(x)
    _check_n(n)
    if fam.kind == "bernoulli":
        return np.arange(n + 1)
    return np.arange(bernstein_window("poisson", n, np.array([x]), tail_mass)[1][0] + 1)


def row_weights(kind: str, n: int, x: float, lo: int, hi: int) -> np.ndarray:
    """P(n*S_n = k) for k = lo..hi from families.frames, as the one row x with the window [lo, hi]."""
    _, _, _, w, _, _ = next(frames(kind, n, np.array([x]), np.array([lo]), np.array([hi]), ()))
    return w  # a one-row chunk's frame is its 1-d window


def family_sample(fam: Family, x: float, n: int, rng: np.random.Generator):
    """One realization of S_n = (n*S_n)/n; deterministic given the generator's seed."""
    return float(sample_scaled_sum(fam, x, n, rng)) / n


@dataclass(frozen=True)
class NormalizedVariate:
    """zeta(x) = (xi - x) / sigma(x): mean 0 and variance 1 by construction."""

    family: Family
    x: float

    def __post_init__(self):
        self.family.check_x(self.x)

    def moments(self, tail_mass: float = POISSON_TAIL_MASS) -> tuple[float, float]:
        """(mean, variance) by truncated exact summation over the support of xi."""
        ks = family_support(self.family, self.x, 1, tail_mass).astype(float)
        p = family_pmf(self.family, self.x, 1, ks)
        sig = float(self.family.sigma(self.x))
        z = (ks - self.x) / sig
        mean = float(np.sum(p * z))
        var = float(np.sum(p * z * z)) - mean * mean
        return mean, var


@pytest.fixture
def bern():
    return bernoulli_family()


@pytest.fixture
def pois():
    return poisson_family()


class TestSigma:
    def test_bernoulli_half(self, bern):
        assert bern.sigma(0.5) == 0.5

    def test_poisson_four(self, pois):
        assert pois.sigma(4.0) == 2.0

    def test_bernoulli_skewed(self, bern):
        assert bern.sigma(0.09) == pytest.approx(math.sqrt(0.09 * 0.91), abs=1e-15)

    def test_domain_enforced(self, bern, pois):
        # sigma must stay positive, so the x-domain excludes its zeros
        with pytest.raises(ParameterError):
            bern.check_x(0.0)
        with pytest.raises(ParameterError):
            pois.check_x(0.5)

    @pytest.mark.parametrize("build", [
        lambda: Family("binomial", UNIT_INTERVAL, (0.1, 0.9)),
        lambda: Family("bernoulli", UNIT_INTERVAL, (0.5, 0.5)),
        lambda: poisson_family(2.0, 1.0),
        lambda: poisson_family(0.0, 1.0),
        # an x-domain that reaches a zero of sigma, where n*S_n is a point mass
        lambda: Family("bernoulli", UNIT_INTERVAL, (0.0, 0.5)),
        lambda: Family("bernoulli", UNIT_INTERVAL, (0.5, 1.0)),
        lambda: Family("bernoulli", UNIT_INTERVAL, (math.nan, 0.5)),
        lambda: Family("poisson", HALF_LINE, (0.0, 64.0)),
        lambda: Family("poisson", HALF_LINE, (-1.0, 64.0)),
    ], ids=["unknown-kind", "empty-x-domain", "poisson-reversed", "poisson-zero-x-min", "bernoulli-at-0",
            "bernoulli-at-1", "bernoulli-nan", "poisson-at-0", "poisson-below-0"])
    def test_bad_descriptors_rejected(self, build):
        with pytest.raises(ParameterError):
            build()

    def test_trim_too_small_to_move_the_upper_end_rejected(self):
        # 1 - 1e-300 rounds to 1, which would put sigma's zero at the x-domain's upper end
        with pytest.raises(ParameterError, match="0 < lo < hi < 1"):
            bernoulli_family(1e-300)
        assert bernoulli_family(1e-16).x_domain[1] < 1.0

    def test_bounded_family_sigma_capped_by_half_range(self, bern):
        # values confined to [0, 1] force sigma <= (b - a)/2
        xs = np.linspace(*bern.x_domain, 101)
        assert np.max(bern.sigma(xs)) <= 0.5


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


def exact_binomial(n: int, x: float, ks) -> np.ndarray:
    """C(n,k) x^k (1-x)^(n-k) in integer arithmetic, rounded once to float.

    A float x is a / 2^e exactly, so each term is an integer over 2^(e n);
    its top 64 bits give the float to well within one ulp.
    """
    a, d = Fraction(x).numerator, Fraction(x).denominator
    shift = (d.bit_length() - 1) * n
    out = []
    for k in ks:
        k = int(k)
        num = math.comb(n, k) * a**k * (d - a) ** (n - k)
        e = max(num.bit_length() - 64, 0)
        out.append(math.ldexp(float(num >> e), e - shift))
    return np.array(out)


class TestScaledSumPmf:
    @pytest.mark.parametrize("x", [1e-3, 0.3, 0.5, 0.999])
    @pytest.mark.parametrize("n", [16, 4096])
    def test_binomial_weights_match_exact_rationals(self, n, x):
        # a few ulp at the mode, growing by at most 4 eps per ratio away from it
        w = row_weights("bernoulli", n, x, 0, n)
        m = math.floor((n + 1) * x)
        ks = np.array(sorted(set(range(0, n + 1, max(1, n // 64)))
                             | set(range(max(m - 4, 0), min(m + 5, n + 1)))))
        exact = exact_binomial(n, x, ks)
        normal = exact >= 1e-290
        eps = np.finfo(float).eps
        tol = (16.0 + 4.0 * np.abs(ks - n * x)) * eps * exact
        assert np.all(np.abs(w[ks] - exact)[normal] <= tol[normal])
        assert np.all(w[ks][~normal] <= 1e-280)

    @given(n=st.integers(1, 2**16), log_x=st.floats(math.log(1e-6), math.log(0.5)),
           mirror=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_binomial_weights_are_a_distribution(self, n, log_x, mirror):
        x = -math.expm1(log_x) if mirror else math.exp(log_x)
        w = row_weights("bernoulli", n, x, 0, n)
        assert np.all(np.isfinite(w)) and np.all((0.0 <= w) & (w <= 1.0))
        assert abs(float(np.sum(w)) - 1.0) <= 1e-13

    @given(log_mu=st.floats(math.log(1e-3), math.log(1e8)),
           tol=st.sampled_from([1e-6, 1e-12]))
    @settings(max_examples=60, deadline=None)
    def test_poisson_window_weights_are_a_distribution(self, log_mu, tol):
        # the window drops at most tol of Poisson mass
        mu = math.exp(log_mu)
        (lo,), (hi,) = bernstein_window("poisson", 1, np.array([mu]), tol)
        w = row_weights("poisson", 1, mu, lo, hi)
        assert np.all(np.isfinite(w)) and np.all((0.0 <= w) & (w <= 1.0))
        assert -tol - 1e-13 <= float(np.sum(w)) - 1.0 <= 1e-13

    @pytest.mark.parametrize("kind,x,n", [("bernoulli", 0.3, 50), ("bernoulli", 0.02, 9),
                                          ("poisson", 1.5, 8), ("poisson", 0.01, 3)])
    def test_matches_the_log_gamma_oracle_at_small_n(self, kind, x, n):
        fam = bernoulli_family(0.01) if kind == "bernoulli" else poisson_family(0.01, 64.0)
        ks = family_support(fam, x, n)
        w = row_weights(kind, n, x, 0, int(ks[-1]))
        assert w == pytest.approx(family_pmf(fam, x, n, ks), rel=1e-12, abs=1e-300)


class TestModePmfs:
    NS = (1, 2, 3, 7, 15, 16, 17, 30, 35, 36, 37, 70, 80, 81, 82, 150, 500, 501, 502, 1000, 4096, 65536, 2**20)
    XS = (1e-6, 1e-3, 0.01, 0.05, 0.15, 0.3, 0.5, 0.7, 0.95, 0.999, 1.0 - 1e-6)

    @staticmethod
    def cases(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(x, m) pairs: each x at its mode and the modes of Poisson means from 0 to
        n, and m = 0, 1, 15, 16, 36, 81, 501 and n and their mirrors, so that both
        families meet every Stirling branch on m and n - m and both bd0 branches."""
        xs, ms = [], []
        for x in TestModePmfs.XS + tuple(np.linspace(0.0, 1.0, 41)[1:-1]):
            mode = math.floor((n + 1) * x) if kind == "bernoulli" else math.floor(n * x)
            for m in {mode, mode - 1, mode + 1, 0, 1, 15, 16, 36, 81, 501, n, n - 1, n - 15, n - 501}:
                if 0 <= m <= n:
                    xs.append(x if kind == "bernoulli" else x * 4.0)
                    ms.append(m)
        return np.array(xs), np.array(ms)

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    def test_vector_form_equals_the_scalar_form_bit_for_bit(self, kind):
        total = 0
        for n in self.NS:
            xs, ms = self.cases(kind, n)
            got = _mode_pmfs(kind, n, xs, ms).tolist()
            assert got == [mode_pmf(kind, n, float(x), int(m)) for x, m in zip(xs, ms)]
            total += len(got)
        assert total > 5000

    # the pmf at the row modes of 64 x: Poisson n = 16 at m = 15 and 16 and Binomial
    # n = 31 at m = 16, n - m = 15 (the table's last k and the series' first), and
    # Poisson n = 1 at m = 1 and nx = 11/9 + i ulp, i = -32..31, where bd0 turns far
    @given(kind=st.sampled_from(["bernoulli", "poisson"]), n=st.integers(1, 2**22),
           fracs=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=64, max_size=64))
    @settings(max_examples=100, deadline=None)
    @example(kind="poisson", n=16, fracs=[15 / 16 / 64, 1 / 64] * 32)
    @example(kind="bernoulli", n=31, fracs=[0.5] * 64)
    @example(kind="poisson", n=1, fracs=((11 / 9 + math.ulp(11 / 9) * np.arange(-32, 32)) / 64).tolist())
    def test_random_rows_equal_the_scalar_form_bit_for_bit(self, kind, n, fracs):
        xs = np.array(fracs) * (1.0 if kind == "bernoulli" else 64.0)  # Poisson x in (0, 64], exactly
        lo, hi = bernstein_window(kind, n, xs, 1e-12)
        m = np.clip(np.floor((n + 1) * xs if kind == "bernoulli" else n * xs), lo, hi).astype(np.int64)
        got = _mode_pmfs(kind, n, xs, m).tolist()
        assert got == [mode_pmf(kind, n, float(x), int(k)) for x, k in zip(xs, m)]

    def test_the_cases_meet_every_branch(self):
        # stirlerr: lgamma up to 15, then the series cut at 35, 80 and 500; bd0: the
        # series where |k - np| < 0.1 (k + np), the closed form elsewhere
        stirling, bd0 = set(), set()
        for n in self.NS:
            xs, ms = self.cases("bernoulli", n)
            for x, m in zip(xs.tolist(), ms.tolist()):
                for k in (m, n - m):
                    stirling.add(sum(k > c for c in (15, 35, 80, 500)))
                for k, mean in ((m, n * x), (n - m, n * (1.0 - x))):
                    bd0.add(abs(k - mean) >= 0.1 * (k + mean))
        assert stirling == {0, 1, 2, 3, 4} and bd0 == {False, True}


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
            assert var == pytest.approx(float(fam.sigma(x)) ** 2, abs=1e-10)

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    def test_normalized_variate_standardized(self, kind):
        fam = bernoulli_family() if kind == "bernoulli" else poisson_family()
        z = NormalizedVariate(fam, 0.25 if kind == "bernoulli" else 2.0)
        mean, var = z.moments()
        assert mean == pytest.approx(0.0, abs=1e-10)
        assert var == pytest.approx(1.0, abs=1e-10)


class TestSampling:
    def test_bernoulli_support(self, bern):
        v = family_sample(bern, 0.3, 1, np.random.default_rng(1))
        assert v in (0.0, 1.0)

    def test_deterministic_given_seed(self, pois):
        a = family_sample(pois, 2.0, 5, np.random.default_rng(42))
        b = family_sample(pois, 2.0, 5, np.random.default_rng(42))
        assert a == b

    def test_requires_seed_or_rng(self, bern):
        # randomness is passed one way only, as a caller-owned Generator: no seed= alternative
        f = builtin_catalog("square")
        with pytest.raises(TypeError):
            normalized_sum_samples(bern, 0.5, 1, 10)
        with pytest.raises(TypeError):
            normalized_sum_samples(bern, 0.5, 1, 10, seed=1)
        with pytest.raises(TypeError):
            generic_mc(f, bern, 1, 0.5, 100)
        with pytest.raises(TypeError):
            generic_mc(f, bern, 1, 0.5, 100, seed=1)

    def test_lln_bernoulli(self, bern, rng):
        means = [family_sample(bern, 0.5, 100_000, rng) for _ in range(1000)]
        se = 0.5 / math.sqrt(100_000)
        assert abs(np.mean(means) - 0.5) <= 4 * se / math.sqrt(1000)

    def test_poisson_monte_carlo_mean(self, rng):
        # numpy multiplies uniforms below mean 10 and uses PTRS above it
        for mean in (0.5, 2.0, 16.0, 30.0):
            draws = sample_scaled_sum(poisson_family(x_min=0.5), mean, 1, rng, size=100_000)
            assert abs(np.mean(draws) - mean) <= 4 * math.sqrt(mean / 100_000), mean

    def test_poisson_large_mean_path(self, pois, rng):
        draws = sample_scaled_sum(pois, 32.0, 5, rng, size=50_000)
        assert abs(np.mean(draws) - 160.0) <= 4 * math.sqrt(160.0 / 50_000)

    def test_pmf_matches_monte_carlo(self, bern, pois, rng):
        # Binomial(6, 0.4) on its whole support, Poisson(2) up to k = 12
        trials = 100_000
        for fam, x, n, ks in ((bern, 0.4, 6, range(7)), (pois, 1.0, 2, range(13))):
            draws = sample_scaled_sum(fam, x, n, rng, size=trials)
            for k in ks:
                freq = float(np.mean(draws == k))
                p = family_pmf(fam, x, n, k)
                se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
                assert abs(freq - p) <= 5 * se, (fam.kind, k)

    def test_normalized_sums_are_standardized(self, bern, rng):
        z = normalized_sum_samples(bern, 0.3, 50, 200_000, rng)
        assert abs(np.mean(z)) <= 4 / math.sqrt(200_000) * 1.5
        assert np.var(z) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("n,trials", [(0, 10), (2.0, 10), (4, 0)])
    def test_bad_n_or_trials_rejected(self, bern, rng, n, trials):
        with pytest.raises(ParameterError):
            normalized_sum_samples(bern, 0.5, n, trials, rng)

    def test_spawned_streams_differ(self):
        r1, r2 = spawn_rngs(7, 2)
        assert r1.random() != r2.random()

    def test_spawning_needs_a_seed(self):
        with pytest.raises(ParameterError, match="seed"):
            spawn_rngs(None, 2)


def log_mgf(kind: str, x: float, lam) -> np.ndarray:
    """zeta_log_mgf for Bernoulli; conftest's oracle for Poisson, whose tail curve is closed form."""
    lam = np.asarray(lam, dtype=float)
    return zeta_log_mgf(bernoulli_family(0.01), x, lam) if kind == "bernoulli" else poisson_log_mgf(x, lam)


class TestZetaLogMgf:
    def test_poisson_zeta_has_no_bound(self, pois):
        with pytest.raises(ParameterError, match="unbounded"):
            zeta_bound(pois)

    def test_poisson_log_mgf_is_refused(self, pois):
        # family_nu refuses Poisson, so no program path tabulates its log-MGF
        with pytest.raises(ParameterError, match="poisson_curve"):
            zeta_log_mgf(pois, 1.0, np.array([1.0]))

    @pytest.mark.parametrize("kind,x", [("bernoulli", 0.5), ("bernoulli", 0.02), ("poisson", 4.0)])
    def test_zero_at_zero(self, kind, x):
        assert log_mgf(kind, x, [0.0]).tolist() == [0.0]

    def test_poisson_closed_form_value(self):
        assert poisson_log_mgf(1.0, 1.0) == pytest.approx(math.e - 2.0, abs=1e-12)

    def test_poisson_against_truncated_series(self, pois):
        # E e^{lam zeta} summed directly over the Poisson support
        x, lam = 3.0, 0.7
        sig = math.sqrt(x)
        ks = family_support(pois, x, 1).astype(float)
        p = family_pmf(pois, x, 1, ks)
        direct = math.log(float(np.sum(p * np.exp(lam * (ks - x) / sig))))
        assert poisson_log_mgf(x, lam) == pytest.approx(direct, abs=1e-10)

    def test_bernoulli_two_point_expectation(self, bern):
        # ln(0.5 e^{-1} + 0.5 e^{1}) = ln cosh 1
        assert zeta_log_mgf(bern, 0.5, np.array([1.0]))[0] == pytest.approx(math.log(math.cosh(1.0)), abs=1e-12)

    def test_bernoulli_stable_near_edge(self):
        # the largest lambda family_nu's table reaches, at the largest jump (1-x)/sigma
        fam = bernoulli_family(1e-3)
        vals = zeta_log_mgf(fam, 1e-3, np.array([40.0, 1600.0, -1600.0]))
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)

    @pytest.mark.parametrize("kind,x", [("bernoulli", 0.3), ("poisson", 2.0)])
    def test_convex_with_unit_curvature(self, kind, x):
        h = 1e-3
        lams = np.linspace(-3.0, 3.0, 61)
        vals = log_mgf(kind, x, lams)
        second = np.diff(vals, 2) / ((lams[1] - lams[0]) ** 2)
        assert np.all(second >= -1e-8)
        at_h, at_0, at_minus_h = log_mgf(kind, x, [h, 0.0, -h])
        assert (at_h - 2 * at_0 + at_minus_h) / h**2 == pytest.approx(1.0, abs=1e-6)

    def test_poisson_nonincreasing_in_x_for_positive_lam(self):
        # the endpoint lemma's Poisson case, on which poisson_curve's sup over x rests
        xs = np.linspace(1.0, 64.0, 40)
        for lam in (0.5, 1.0, 2.0):
            assert np.all(np.diff(poisson_log_mgf(xs, lam)) <= 1e-12)
