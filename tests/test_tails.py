import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    POISSON_PHI, brute_force_conjugate_curve, fenchel_conjugate, gaussian_curve, law_breakpoints, law_tail,
    poisson_log_mgf, poisson_nu, step_read,
)

from bernapprox import experiments, tails
from bernapprox.errors import BoundaryWarning, ParameterError
from bernapprox.experiments import ExperimentConfig, Study
from bernapprox.families import bernoulli_family, poisson_conjugate, poisson_family, zeta_log_mgf
from bernapprox.tails import (
    TailCurve,
    TabulatedPhi,
    conjugate_curve,
    exact_law_curve,
    family_nu,
    make_nu,
    phi_sup,
    poisson_curve,
    tail_z_max,
)

SUBGAUSS = lambda lam: np.asarray(lam, dtype=float) ** 2 / 2.0  # noqa: E731


@dataclass(frozen=True)
class NuValue:
    value: float
    maximizer_n: Optional[int]  # None when the n->infinity limit wins
    limit_value: float

    @property
    def limit_is_max(self) -> bool:
        return self.maximizer_n is None


def nu_envelope(phi: Callable, lam: float, n_max: int = 4096) -> NuValue:
    """Oracle for make_nu at one lambda: scan n in 1..n_max, compare with the
    Gaussian limit lam^2 phi''(0)/2 and report which one wins."""
    if n_max < 2**10:
        raise ParameterError(f"n_max must be at least 2^10, got {n_max}")
    p0 = float(phi(0.0))
    if abs(p0) > 1e-12:
        raise ParameterError(f"phi(0) must be 0, got {p0}")
    ns = np.arange(1, n_max + 1, dtype=float)
    vals = ns * np.asarray(phi(lam / np.sqrt(ns)), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = int(ns[~np.isfinite(vals)][0])
        raise ParameterError(f"phi non-finite at lambda/sqrt(n) for n={bad}, lambda={lam}")
    i = int(np.argmax(vals))
    scan_best = float(vals[i])
    h = 1e-4
    curvature = 2.0 * float(phi(h)) / (h * h)
    limit = 0.5 * lam * lam * curvature
    if limit > scan_best:
        return NuValue(value=limit, maximizer_n=None, limit_value=limit)
    return NuValue(value=scan_best, maximizer_n=i + 1, limit_value=limit)


def rounding_bound(fam, x, lam):
    """8 ulp of the magnitudes the log-MGF at x adds up, for +-lam: a bound
    on the rounding of zeta_log_mgf's logaddexp (Bernoulli) or expm1
    (Poisson) form.  Vectorized over x."""
    x = np.asarray(x, dtype=float)
    lam = abs(lam)
    if fam.kind == "bernoulli":
        mag = lam / np.sqrt(x * (1.0 - x)) + np.abs(np.log(x)) + np.abs(np.log1p(-x))
    else:
        rt = np.sqrt(x)
        mag = lam * rt + x * np.expm1(lam / rt)
    return 8.0 * np.finfo(float).eps * (1.0 + mag)


def dense_log_mgf(fam, xs, lam):
    """ln E exp(lam zeta(x)) on an x array, in zeta_log_mgf's form or the Poisson oracle's."""
    if fam.kind == "bernoulli":
        sig = np.sqrt(xs * (1.0 - xs))
        return np.logaddexp(-lam * xs / sig + np.log1p(-xs), lam * (1.0 - xs) / sig + np.log(xs))
    return poisson_log_mgf(xs, lam)


def endpoint_phi(fam, lam: float) -> float:
    """phi_sup at one lambda; for Poisson, the same max over sign and both ends of the
    x-domain, of the log-MGF oracle (the package tabulates only the Bernoulli one)."""
    if fam.kind == "bernoulli":
        return float(phi_sup(fam, np.array([lam]))[0])
    return max(0.0, *(float(poisson_log_mgf(x, s * lam)) for x in fam.x_domain for s in (1.0, -1.0)))


TABLE_CAP = tails.PHI_TABLE_END


class TestPhiSup:
    def test_zero_at_zero(self):
        fam = bernoulli_family()
        assert phi_sup(fam, np.array([0.0])).tolist() == [0.0]

    def test_poisson_attained_at_one(self):
        fam = poisson_family(1.0, 64.0)
        assert poisson_log_mgf(1.0, 1.0) == pytest.approx(math.e - 2.0, abs=1e-12)
        assert endpoint_phi(fam, 1.0) == pytest.approx(math.e - 2.0, abs=1e-12)

    def test_bernoulli_symmetric_point(self):
        fam = bernoulli_family()
        assert zeta_log_mgf(fam, 0.5, np.array([1.0]))[0] == pytest.approx(math.log(math.cosh(1.0)), abs=1e-12)

    def test_even_in_lambda(self):
        fam = bernoulli_family(0.1)
        lams = np.array([0.3, 1.2, 4.0])
        assert np.array_equal(phi_sup(fam, lams), phi_sup(fam, -lams))

    def test_tabulated_phi_dominates_exact(self):
        # linear interpolation of a convex function lies above it
        fam = bernoulli_family(0.05)
        tab = TabulatedPhi(fam, t_max=20.0, size=801)
        ts = np.linspace(0.01, 19.9, 57)
        assert np.all(tab(ts) >= phi_sup(fam, ts) - 1e-12)

    @pytest.mark.parametrize("fam", [
        bernoulli_family(), bernoulli_family(0.05), bernoulli_family(0.3),
        poisson_family(), poisson_family(0.25, 4.0),
    ], ids=["bern-1e-3", "bern-0.05", "bern-0.3", "pois-1-64", "pois-0.25-4"])
    def test_no_interior_x_beats_the_endpoints(self, fam):
        # the endpoint lemma: for lam > 0, phi_x(lam) is nonincreasing and
        # phi_x(-lam) nondecreasing in x, so no x of a dense grid beats
        # phi_sup by more than the rounding of the two evaluations
        lo, hi = fam.x_domain
        xs = np.linspace(lo, hi, 4097)
        cap = TABLE_CAP if fam.kind == "bernoulli" else 700.0 * math.sqrt(lo)  # expm1 overflow

        @given(st.floats(min_value=-6.0, max_value=math.log10(cap)), st.sampled_from([1.0, -1.0]))
        @settings(max_examples=60, deadline=None)
        def check(log_lam, sign):
            lam = 10.0**log_lam
            ends = max(rounding_bound(fam, lo, lam), rounding_bound(fam, hi, lam))
            excess = dense_log_mgf(fam, xs, sign * lam) - endpoint_phi(fam, lam)
            assert np.all(excess <= rounding_bound(fam, xs, lam) + ends)

        check()

    @pytest.mark.parametrize("eps", [1e-3, 0.05])
    def test_table_reaches_the_exact_endpoint_phi(self, eps):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        fam = bernoulli_family(eps)
        tab = TabulatedPhi(fam, t_max=TABLE_CAP)

        def exact(x, lam):
            x = mpmath.mpf(x)
            sig = mpmath.sqrt(x * (1 - x))
            return mpmath.log((1 - x) * mpmath.exp(-lam * x / sig) + x * mpmath.exp(lam * (1 - x) / sig))

        for t in (2e-6, 1e-4, 3e-3, 0.2, 1.0, 7.3, 50.0, 640.0):
            lo, hi = fam.x_domain
            ref = max(exact(lo, t), exact(hi, -t))
            slack = max(rounding_bound(fam, lo, t), rounding_bound(fam, hi, t))
            assert tab(np.array([t]))[0] >= float(ref) - slack

    def test_a_t_beyond_the_table_is_refused(self):
        # the interpolant ends at t_max; nu never reads past it (see TestLambdaGridStaysInTheTable)
        tab = TabulatedPhi(bernoulli_family(0.05), t_max=20.0, size=801)
        for ts in ([0.5, 25.0, -3.0], [-20.5], [np.nextafter(20.0, np.inf)]):
            with pytest.raises(ParameterError, match="past the phi table"):
                tab(np.array(ts))
        assert tab(np.array([-20.0, 20.0])).tolist() == [tab.values[-1]] * 2


class TestNuEnvelope:
    def test_subgaussian_constant_scan(self):
        for lam in (0.5, 1.0, 3.0):
            nv = nu_envelope(SUBGAUSS, lam)
            assert nv.value == pytest.approx(lam**2 / 2.0, rel=1e-6)

    def test_poisson_maximizer_at_one(self):
        nv = nu_envelope(POISSON_PHI, 2.0)
        assert nv.value == pytest.approx(math.e**2 - 3.0, abs=1e-12)
        assert nv.maximizer_n == 1
        assert not nv.limit_is_max

    def test_zero_at_zero(self):
        assert nu_envelope(POISSON_PHI, 0.0).value == 0.0

    def test_limit_flag_when_gaussian_part_wins(self):
        # ln cosh has decreasing ratio phi(t)/t^2, so the limit dominates
        phi = lambda t: np.log(np.cosh(np.asarray(t, dtype=float)))  # noqa: E731
        nv = nu_envelope(phi, 3.0)
        assert nv.limit_is_max
        assert nv.value == pytest.approx(4.5, rel=1e-3)

    def test_scan_against_brute_force(self):
        # independent brute scan over the same range
        lam = 1.7
        brute = max(n * float(POISSON_PHI(lam / math.sqrt(n))) for n in range(1, 1025))
        assert nu_envelope(POISSON_PHI, lam).value == pytest.approx(brute, rel=1e-12)

    def test_nmax_validated(self):
        with pytest.raises(ParameterError):
            nu_envelope(SUBGAUSS, 1.0, n_max=100)

    def test_make_nu_matches_envelope(self):
        # where the sup sits at n <= 256 the scan is the oracle's; past that nu only adds
        tab = TabulatedPhi(bernoulli_family(0.05), t_max=TABLE_CAP)
        lams = [0.2, 1.0, 2.5, 10.0, 40.0]
        vals = make_nu(tab)(np.array(lams))
        for lam, val in zip(lams[:-1], vals):
            env = nu_envelope(tab, lam)
            assert env.maximizer_n <= tails.DEFAULT_N_MAX
            assert val == pytest.approx(env.value, rel=1e-9)
        assert vals[-1] >= nu_envelope(tab, 40.0).value


class TestFenchelConjugate:
    def test_subgaussian_closed_form(self):
        # conjugate of u^2/2 is u^2/2
        for u in (0.5, 1.0, 2.0):
            assert fenchel_conjugate(SUBGAUSS, u) == pytest.approx(u * u / 2.0, abs=1e-10)

    def test_zero_at_zero(self):
        assert fenchel_conjugate(SUBGAUSS, 0.0) == 0.0
        assert fenchel_conjugate(POISSON_PHI, 0.0) == 0.0

    def test_poisson_at_e_minus_one(self):
        assert fenchel_conjugate(POISSON_PHI, math.e - 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_nondecreasing_and_convex_in_u(self):
        us = np.linspace(0.0, 6.0, 25)
        vals = np.array([fenchel_conjugate(POISSON_PHI, float(u)) for u in us])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(np.diff(vals, 2) >= -1e-8)

    def test_boundary_warning_on_explicit_grid(self):
        grid = np.linspace(0.0, 0.5, 11)  # maximizer for u=3 sits beyond 0.5
        with pytest.warns(BoundaryWarning):
            fenchel_conjugate(SUBGAUSS, 3.0, lambda_grid=grid)

    def test_cap_autoextension_avoids_warning(self):
        # maximizer at lambda = 60 > default cap 50; the cap 2u = 120 holds it
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryWarning)
            val = fenchel_conjugate(SUBGAUSS, 60.0)
        assert val == pytest.approx(1800.0, rel=1e-9)

    def test_g0_validated(self):
        with pytest.raises(ParameterError):
            fenchel_conjugate(lambda lam: np.asarray(lam) + 1.0, 1.0)

    def test_biconjugation_recovers_nu(self):
        # Fenchel-Moraux: conjugating the exact conjugate returns nu
        def nu_star(u):
            arr = np.atleast_1d(np.asarray(u, dtype=float))
            out = np.array([fenchel_conjugate(poisson_nu, float(v)) for v in arr])
            return float(out[0]) if np.isscalar(u) else out

        for lam in (0.1, 0.5, 1.0, 2.0, 3.0):
            # nu* grows like u ln u, below u^2/2, so its maximizer e^lam - 1 needs a grid of its own
            nn = fenchel_conjugate(nu_star, float(lam), lambda_grid=np.linspace(0.0, 40.0, 201))
            assert nn == pytest.approx(float(poisson_nu(lam)), rel=1e-6)


class TestPoissonConjugate:
    def test_zero_at_zero(self):
        assert poisson_conjugate(0.0) == 0.0

    def test_value_at_e_minus_one(self):
        assert poisson_conjugate(math.e - 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_value_at_one(self):
        assert poisson_conjugate(1.0) == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-12)

    def test_matches_numeric_conjugate_on_range(self):
        us = np.linspace(0.0, 20.0, 200)
        for u in us:
            num = fenchel_conjugate(POISSON_PHI, float(u))
            assert num == pytest.approx(poisson_conjugate(float(u)), abs=1e-8)

    def test_published_algebraic_form(self):
        # u ln(1+u) - u + ln(1+u) is the printed form of the same conjugate
        for u in (0.3, 1.0, 7.5, 200.0):
            printed = u * math.log1p(u) - u + math.log1p(u)
            assert poisson_conjugate(u) == pytest.approx(printed, rel=1e-12)

    def test_asymptotic_growth(self):
        # ratio to u ln(1+u) approaches 1 like 1/ln(u)
        u = 1e6
        ratio = poisson_conjugate(u) / (u * math.log1p(u))
        assert abs(ratio - 1.0) <= 2.0 / math.log(u)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            poisson_conjugate(-0.1)


@pytest.fixture(scope="module")
def pois_curve():
    return conjugate_curve(poisson_nu, 20.0)


class TestAtfUpperBound:
    def test_capped_at_one(self, pois_curve):
        assert pois_curve.at(0.0) == 1.0

    def test_subgaussian_value(self):
        exact = 2.0 * math.exp(-4.5)
        assert 2.0 * math.exp(-fenchel_conjugate(SUBGAUSS, 3.0)) == pytest.approx(exact, rel=1e-9)
        assert exact <= conjugate_curve(SUBGAUSS, 8.0).at(3.0) <= 1.02 * exact

    def test_poisson_value(self, pois_curve):
        exact = 2.0 * math.exp(-1.0)
        oracle = 2.0 * math.exp(-fenchel_conjugate(POISSON_PHI, math.e - 1.0))
        assert oracle == pytest.approx(exact, rel=1e-8)
        assert exact <= pois_curve.at(math.e - 1.0) <= 1.02 * exact

    def test_curve_nonincreasing_and_capped(self, pois_curve):
        curve = pois_curve
        us = np.linspace(0.0, 20.0, 41)
        vals = np.array([curve.at(float(u)) for u in us])
        assert np.all(vals <= 1.0)
        assert np.all(np.diff(vals) <= 1e-12)


def exact_poisson_tail(x: float, n: int, u: float) -> float:
    """P(|zeta_n(x)| > u) with n S_n ~ Poisson(nx) and zeta_n = (n S_n - nx)/sqrt(nx)."""
    mu = n * x
    above, below = mu + u * math.sqrt(mu), mu - u * math.sqrt(mu)
    return float(scipy.stats.poisson.sf(math.floor(above), mu) + scipy.stats.poisson.cdf(math.ceil(below) - 1, mu))


class TestPoissonCurve:
    @given(st.floats(min_value=0.01, max_value=8.0), st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=1, max_value=256), st.floats(min_value=0.0, max_value=40.0))
    @settings(max_examples=200, deadline=None)
    def test_dominates_the_exact_tail_on_the_x_domain(self, x_min, t, n, u):
        # the worst x is the x-domain's lower end; below x = 1 the tails are heavier
        x_max = 4.0 * x_min
        curve = Study(ExperimentConfig(family_kind="poisson", function_name="exp-decay",
                                       family_x_min=x_min, family_x_max=x_max)).curve
        x = x_min + t * (x_max - x_min)
        assert exact_poisson_tail(x, n, u) <= curve.at(u) * (1.0 + 1e-12)

    def test_the_x_min_one_curve_is_the_closed_conjugate(self):
        us = np.linspace(0.0, 40.0, 161)
        assert np.array_equal(poisson_curve(1.0).at(us), np.minimum(1.0, 2.0 * np.exp(-poisson_conjugate(us))))

    def test_a_smaller_x_min_raises_the_curve(self):
        us = np.linspace(4.0, 20.0, 33)  # where every curve is below its cap 1
        assert np.all(poisson_curve(0.1).at(us) > poisson_curve(1.0).at(us))
        assert np.all(poisson_curve(4.0).at(us) < poisson_curve(1.0).at(us))

    def test_family_nu_names_the_closed_form(self):
        with pytest.raises(ParameterError, match="poisson_curve"):
            family_nu(poisson_family(0.5, 8.0))


class TestTailCurveType:
    def test_tail_z_max_bisection(self):
        curve = gaussian_curve()
        z = tail_z_max(curve)
        assert curve.at(z) < 1e-12
        assert curve.at(z - 1e-3) >= 1e-12

    @pytest.mark.parametrize("u", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("source", ["conjugate", "poisson-conjugate", "exact-law"])
    def test_every_source_refuses_a_bad_u(self, source, u):
        # one contract in TailCurve.at: no curve reads a negative, NaN or infinite u
        curve = {
            "conjugate": lambda: conjugate_curve(SUBGAUSS, 4.0, grid_size=101),
            "poisson-conjugate": lambda: poisson_curve(1.0),
            "exact-law": lambda: exact_law_curve(bernoulli_family(), 0.5, [16, 64], 1e-12),
        }[source]()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy RuntimeWarning on the way
            for arg in (u, np.array([0.5, u, 2.0])):
                with pytest.raises(ParameterError, match="nonnegative and finite"):
                    curve.at(arg)

    @pytest.mark.parametrize("level,z_max", [(1e-13, 0.0), (1e-11, tails.Z_CAP)])
    def test_tail_z_max_ends(self, level, z_max):
        # below the floor from z = 0 on, or above it up to the cap
        curve = TailCurve(kind="flat", fn=lambda u: np.full_like(u, level))
        assert tail_z_max(curve) == z_max


class TestZMaxBisection:
    def test_a_read_past_the_last_line_warns_in_the_bisection(self):
        # five lines end at the cap 50, their last breakpoint at u = 25.68: the probe at the cap 64
        # reads Q = 0.0 there and stays silent, the first midpoint 32 reads Q > 0.0 there and warns,
        # and every later midpoint stays below it.  The one read warns with the curve's one message
        curve = conjugate_curve(SUBGAUSS, 4.0, grid_size=5)
        with warnings.catch_warnings(record=True) as warns:
            warnings.simplefilter("always")
            assert curve.at(64.0) == 0.0 and curve.at(32.0) > 0.0
            assert [str(w.message) for w in warns] == [CUT_WARNING]
            warns.clear()
            tail_z_max(curve)
        assert [str(w.message) for w in warns] == [CUT_WARNING]

    def test_one_scalar_read_per_step(self):
        reads = []
        curve = gaussian_curve()
        counted = TailCurve(kind="counted", fn=lambda u: reads.append(np.shape(u)) or curve.fn(u))
        z = tail_z_max(counted)
        # the two ends, then 26 steps to a bracket of 64 / 2^26 < 1e-6
        assert reads == [()] * 28
        assert curve.at(z) < tails.TAIL_FLOOR <= curve.at(z - 64.0 / 2**26)


# the one message of a five-line subgaussian curve: it names the cap and the last breakpoint, not a u
CUT_WARNING = "conjugate maximizer at the lambda grid boundary 50 for u past the last breakpoint 25.6786"


# a window tolerance so small that the exact law's curve is the law to within 1e-300 (dropped and added)
TINY_TOL = 1e-300
# the tolerance a default config gives the exact law: min(run.szasz_tail_tol, tail.floor / 2)
LAW_TOL = 5e-13


@pytest.fixture(scope="module")
def conjugate_curves():
    """The default config's Bernoulli curves at eps 1e-3 and 0.05, and its Poisson curve."""
    return {eps: Study(ExperimentConfig(family_eps=eps)).curve for eps in (1e-3, 0.05)} | {
        "poisson": Study(ExperimentConfig(family_kind="poisson", function_name="exp-decay")).curve}


class TestEmpiricalAtf:
    """The tail function of zeta_n at one x, from the exact law: ``exact_law_curve``."""

    def test_value_at_zero_near_one(self):
        # at x = 1/2 the n = 1 summand is +-1, so P(|zeta| > 0) = 1 exactly
        assert exact_law_curve(bernoulli_family(), 0.5, range(1, 65), TINY_TOL).at(0.0) == 1.0

    def test_reads_one_below_the_grid(self):
        # at x = 0.3 no lattice point of n = 4 sits at nx, so the curve reads the whole law, 1, below
        # its first breakpoint 0.2/sqrt(0.84); at x = 1/2 the first breakpoint is 0, at k = 2, and
        # P(|zeta_4| > 0) = 0.625 and P(|zeta_4| > 1) = 0.125, right-continuously, bit for bit
        curve = exact_law_curve(bernoulli_family(), 0.3, [4], TINY_TOL)
        first = 0.2 / math.sqrt(0.84)
        assert curve.at(np.array([0.0, first / 2.0])).tolist() == [1.0, 1.0]
        assert curve.at(first) < 1.0
        curve = exact_law_curve(bernoulli_family(), 0.5, [4], TINY_TOL)
        assert curve.at(np.array([0.0, 0.999, 1.0, 1.999])).tolist() == [0.625, 0.625, 0.125, 0.125]

    def test_two_point_distribution_at_half(self):
        curve = exact_law_curve(bernoulli_family(), 0.5, [1], TINY_TOL)
        assert curve.at(np.array([0.5, 1.0])).tolist() == [1.0, TINY_TOL]

    def test_hoeffding_dominance(self):
        # Rademacher sums: P(|zeta_n| > u) <= 2 exp(-u^2/2) exactly, here on the default n grid (the
        # acceptance suite takes n = 1..64), read on each step's right end, plus the 1e-300 the curve adds
        ns = ExperimentConfig().n_grid
        breaks = np.unique(np.concatenate([law_breakpoints(bernoulli_family(), 0.5, n, TINY_TOL) for n in ns]))
        us = np.nextafter(breaks[1:], 0.0)
        curve = exact_law_curve(bernoulli_family(), 0.5, ns, TINY_TOL)
        assert np.all(curve.at(us) <= np.minimum(1.0, 2.0 * np.exp(-us * us / 2.0)) + TINY_TOL)

    def test_clt_floor_at_large_n(self):
        # Berry-Esseen (constant 0.56, rho = 1 at x = 1/2) on both sides: within 1.12/sqrt(n) of the Gaussian tail
        us = np.array([0.5, 1.0, 1.5, 2.0])
        got = exact_law_curve(bernoulli_family(), 0.5, [4096], LAW_TOL).at(us)
        gauss = np.array([math.erfc(u / math.sqrt(2.0)) for u in us])
        assert np.all(got >= gauss - 1.12 / 64.0)

    @pytest.mark.parametrize("n_set,tol,match", [
        ([], LAW_TOL, "n_set"), ([0], LAW_TOL, "n_set"), ([4, 2.5], LAW_TOL, "n_set"),
        ([2**22 + 1], LAW_TOL, "n_set"), (["4"], LAW_TOL, "n_set"),
        ([4], 0.0, "tol"), ([4], -1e-3, "tol"), ([4], math.nan, "tol"), ([4], 1.0, "tol"), ([4], 2.0, "tol"),
    ], ids=["no-n", "n-0", "n-2.5", "n-past-max", "n-str", "tol-0", "tol-negative", "tol-nan", "tol-1",
            "tol-2"])
    def test_bad_n_set_or_u_grid_rejected(self, n_set, tol, match):
        # each n an integer in [1, 2^22], as the operator sweep takes it, and tol a mass in (0, 1)
        with pytest.raises(ParameterError, match=match):
            exact_law_curve(bernoulli_family(), 0.5, n_set, tol)

    def test_x_outside_the_domain_rejected(self):
        with pytest.raises(ParameterError, match="x-domain"):
            exact_law_curve(bernoulli_family(), 0.9995, [4], LAW_TOL)

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 2**12), frac=st.floats(0.0, 1.0), eps=st.sampled_from([1e-3, 0.05]))
    @example(n=4096, frac=0.5, eps=1e-3)
    @example(n=1, frac=0.0, eps=1e-3)
    def test_conjugate_bound_dominates_empirical(self, conjugate_curves, kind, n, frac, eps):
        # the uniform-in-n curve lies at or above the exact law of every (n, x), with no allowance,
        # wherever that law is at least 1e-9: on each step's right end, where the gap is least
        fam = bernoulli_family(eps) if kind == "bernoulli" else poisson_family()
        lo, hi = fam.x_domain
        x = min(lo + frac * (hi - lo), hi)
        breaks = np.unique(law_breakpoints(fam, x, n, LAW_TOL))
        us = np.concatenate([[0.0], np.nextafter(breaks[1:], 0.0)])
        law = exact_law_curve(fam, x, [n], LAW_TOL).at(us)
        bound = conjugate_curves[eps if kind == "bernoulli" else "poisson"].at(us)
        assert np.all((bound >= law) | (law < 1e-9))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["bernoulli", "poisson"]), n=st.integers(1, 2**12), frac=st.floats(0.0, 1.0),
           us=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=8), tol=st.sampled_from([LAW_TOL, 1e-9]))
    @example(kind="bernoulli", n=4, frac=0.5, us=[0.0, 1.0], tol=LAW_TOL)
    # scipy's binomial sf read 1.6e-14 below the law here, more than the allowance
    @example(kind="bernoulli", n=2617, frac=1.192092896e-07, us=[1.0], tol=LAW_TOL)
    def test_matches_the_scipy_law(self, kind, n, frac, us, tol):
        # at or above P(|K - nx| > u sigma sqrt(n)), the window's dropped mass being at most tol; at
        # most that plus tol plus the weights' rounding: the ulp rule of TestScaledSumPmf summed,
        # (16 + 4 E|K - nx|) eps <= (16 + 4 sqrt(v)) eps, and one eps per summed weight
        fam = bernoulli_family() if kind == "bernoulli" else poisson_family()
        lo, hi = fam.x_domain
        x = min(lo + frac * (hi - lo), hi)
        v = n * x * (1.0 - x) if kind == "bernoulli" else n * x
        width = law_breakpoints(fam, x, n, tol).size
        allowance = (16.0 + 4.0 * math.sqrt(v) + width) * np.finfo(float).eps
        got = exact_law_curve(fam, x, [n], tol).fn(np.array(us))
        want = np.array([law_tail(kind, n, x, u) for u in us])
        assert np.all(got >= want)
        assert np.all(got <= want + tol + allowance)

    @settings(max_examples=25, deadline=None)
    @given(n_set=st.lists(st.integers(1, 64), min_size=1, max_size=3), poisson=st.booleans(),
           frac=st.floats(0.0, 1.0))
    def test_step_read_matches_the_table_oracle(self, n_set, poisson, frac):
        # a right-continuous step curve over the breakpoints of every n, each step the max over n
        # of the one-n curves there, read alike from an array and from scalars
        fam = poisson_family() if poisson else bernoulli_family()
        lo, hi = fam.x_domain
        x = min(lo + frac * (hi - lo), hi)
        curve = exact_law_curve(fam, x, n_set, LAW_TOL)
        singles = [exact_law_curve(fam, x, [n], LAW_TOL) for n in n_set]
        breaks = np.unique(np.concatenate([law_breakpoints(fam, x, n, LAW_TOL) for n in n_set]))
        table = np.max([c.at(breaks) for c in singles], axis=0)
        below = max(min(1.0, float(c.fn(-1.0))) for c in singles)  # the step rule below every breakpoint
        # the breakpoints, the points between them, and points below and past them
        probes = np.concatenate([breaks, (breaks[:-1] + breaks[1:]) / 2.0,
                                 [breaks[0] / 2.0, breaks[-1] + 0.5, breaks[-1] + 100.0]])
        want = [step_read(breaks, table, u, below=below) for u in probes]
        assert curve.at(probes).tolist() == want
        assert [float(curve.at(float(u))) for u in probes] == want


class TestConjugatePairType:
    """nu and nu* as a conjugate pair, read through the tail curve."""

    def test_nu_star_zero_at_zero(self):
        curve = conjugate_curve(SUBGAUSS, 4.0)
        assert curve.fn(0.0) == 2.0  # 2 exp(-nu*(0)) with nu*(0) = 0 exactly


def frozen_grid(curve: TailCurve) -> np.ndarray:
    """The curve's lambdas: 0, then geometric from LAMBDA_MIN to the frozen cap."""
    size = curve.params["lambda_grid_size"]
    return np.concatenate([[0.0], np.geomspace(tails.LAMBDA_MIN, curve.params["lambda_cap"], size - 1)])


@pytest.fixture(scope="module")
def bern_nu():
    return family_nu(bernoulli_family(0.05), n_max=1024)


class TestNuScan:
    """nu from the endpoint phi table: the n-scan's blocking never moves a bit."""

    @pytest.fixture(scope="class")
    def lambdas(self):
        return np.concatenate([[0.0], np.geomspace(tails.LAMBDA_MIN, TABLE_CAP, 1000)])

    def test_blocking_is_bit_identical(self, monkeypatch, lambdas):
        phi = TabulatedPhi(bernoulli_family(0.05), t_max=TABLE_CAP)
        default = make_nu(phi)(lambdas)
        for budget in (1, 2**40):  # one lambda per block, all lambdas at once
            monkeypatch.setattr(tails, "NU_BLOCK_BYTES", budget)
            assert np.array_equal(make_nu(phi)(lambdas), default)

    def test_nu_memory_is_blocked(self, lambdas):
        # unblocked, 1001 lambdas against n_max = 256 would hold 2 MB per temporary
        fam = bernoulli_family(0.05)
        tracemalloc.start()
        try:
            family_nu(fam)(lambdas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * tails.NU_BLOCK_BYTES

    def test_building_the_curve_evaluates_the_log_mgf_four_times(self, monkeypatch):
        calls = []

        def counting(fam, x, lam):
            calls.append(x)
            return zeta_log_mgf(fam, x, lam)

        monkeypatch.setattr(tails, "zeta_log_mgf", counting)
        Study(ExperimentConfig()).curve
        assert len(calls) <= 4

    def test_building_the_curve_scans_the_table_at_most_lambda_size_times_n_max(self, monkeypatch):
        points = []
        call = TabulatedPhi.__call__

        def counting(tab, t):
            points.append(np.size(t))
            return call(tab, t)

        monkeypatch.setattr(TabulatedPhi, "__call__", counting)
        Study(ExperimentConfig()).curve
        assert 0 < sum(points) <= 1001 * 256  # the default tail.lambda_size x tail.n_max

    def test_q_does_not_depend_on_the_x_grid(self):
        def q(**grid):
            study = Study(ExperimentConfig(family_eps=0.05, **grid))
            return study.z_max, study.curve.at(study.z_grid)

        ref_z, ref_q = q()
        for size, kind in ((33, "uniform"), (257, "chebyshev"), (33, "chebyshev")):
            z, vals = q(x_grid_size=size, x_grid_kind=kind)
            assert z == ref_z
            assert np.array_equal(vals, ref_q)


def nu_over_all_n(fam, lam: float, n_top: int = 2**22, t_min: float = 1e-3) -> float:
    """Oracle: max of n phi_sup(lam/sqrt(n)) over n = 1..n_top with lam/sqrt(n) >= t_min,
    in blocks of n.  Below t_min phi_sup's logaddexp rounding exceeds 1e-9 relative."""
    best, n_hi = 0.0, min(n_top, int((lam / t_min) ** 2))
    for start in range(1, n_hi + 1, 2**18):
        ns = np.arange(start, min(start + 2**18, n_hi + 1), dtype=float)
        best = max(best, float(np.max(ns * phi_sup(fam, lam / np.sqrt(ns)))))
    return best


class TestNuEveryN:
    """nu is a sup over every n, not only over the scanned n <= tail.n_max."""

    @settings(max_examples=6, deadline=None)
    @given(eps=st.floats(min_value=1e-9, max_value=0.5, exclude_max=True), j=st.integers(1, 1000))
    def test_nu_dominates_the_sup_over_n_up_to_2_to_the_22(self, eps, j):
        fam = bernoulli_family(eps)
        lam = float(np.geomspace(tails.LAMBDA_MIN, TABLE_CAP, 1000)[j - 1])
        assert family_nu(fam)(np.array([lam]))[0] >= nu_over_all_n(fam, lam)

    def test_nu_at_50_reaches_the_sup_past_the_scan(self):
        # the old 4096-term scan gave 72,848; the sup over n <= 2^22 sits at n = 13,115
        fam = bernoulli_family()
        assert nu_over_all_n(fam, 50.0) >= 90_400.0
        assert family_nu(fam)(np.array([50.0]))[0] >= nu_over_all_n(fam, 50.0)

    @settings(max_examples=25, deadline=None)
    @given(eps=st.floats(min_value=1e-9, max_value=0.5, exclude_max=True), doublings=st.integers(0, 5))
    def test_breakpoints_are_nondecreasing_up_to_the_largest_cap(self, eps, doublings):
        grid = np.concatenate([[0.0], np.geomspace(tails.LAMBDA_MIN, tails.DEFAULT_LAMBDA_CAP * 2**doublings, 1000)])
        breaks = np.diff(family_nu(bernoulli_family(eps))(grid)) / np.diff(grid)
        assert np.all(np.diff(breaks) >= 0.0)

    @pytest.mark.parametrize("y", [0.25, 0.999, 1.0, 2.5, 30.0])
    def test_bennett_ratio_rounds_up_on_both_forms(self, y):
        # below y = 1 a series, from 1 on the closed form; y >= 1 needs a trim eps below about 1e-12
        series = math.fsum(y**k / math.factorial(k + 2) for k in range(150))
        assert series <= tails._bennett_ratio(y) <= series * (1.0 + 1e-14)

    def test_the_bound_past_the_scan_needs_the_table(self):
        # the scan reads phi at lambda itself (n = 1) and refuses a lambda past the table,
        # so the bound past the scan, at lambda / sqrt(n_max), stays inside it
        with pytest.raises(ParameterError, match="past the phi table"):
            make_nu(TabulatedPhi(bernoulli_family(0.05), t_max=20.0, size=801))(np.array([20.5]))

    def test_n_max_floor(self):
        with pytest.raises(ParameterError, match="2\\^8"):
            make_nu(TabulatedPhi(bernoulli_family(0.05), t_max=20.0, size=801), n_max=255)


class TestLambdaGridStaysInTheTable:
    """family_nu's table ends at max(PHI_TABLE_END, lambda_cap(u_hint)), the cap the
    conjugation reads for that u_hint, and np.geomspace returns that stop exactly."""

    @settings(max_examples=25, deadline=None)
    @given(eps=st.floats(min_value=1e-9, max_value=0.5, exclude_max=True),
           size=st.integers(3, 1001), log_z_cap=st.floats(-1.0, 4.0))
    @example(eps=0.05, size=3, log_z_cap=4.0)  # the cap 5000 extends the table: nu reads t_max itself
    def test_the_largest_lambda_nu_reads_is_within_the_table(self, eps, size, log_z_cap):
        cfg = ExperimentConfig(family_eps=eps, tail_lambda_size=size, tail_z_cap=10.0**log_z_cap)
        largest, tables = [], []
        build = experiments.family_nu

        def recorded(*args, **kwargs):
            nu = build(*args, **kwargs)
            tables.append(max(tails.PHI_TABLE_END, tails.lambda_cap(kwargs["u_hint"])))
            return lambda lam: largest.append(float(np.max(lam))) or nu(lam)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "family_nu", recorded)
            curve = Study(cfg).curve
        assert len(largest) == 1  # one nu call, on the one grid
        assert largest[0] == curve.params["lambda_cap"] == tails.lambda_cap(cfg.tail_z_cap / 4.0) <= tables[0]


class TestLambdaCapTheorem:
    """nu >= lambda^2/2 puts the maximizer of lambda u - nu(lambda), for every u up to
    u_hint, before the last line of the grid that ends at lambda_cap(u_hint)."""

    @settings(max_examples=40, deadline=None)
    @given(eps=st.floats(min_value=1e-12, max_value=0.5, exclude_max=True),
           u_hint=st.floats(min_value=0.0, max_value=64.0, exclude_min=True), size=st.integers(3, 1001))
    @example(eps=0.4999, u_hint=64.0, size=3)
    @example(eps=1e-12, u_hint=25.0, size=1001)  # the cap is 2 u_hint = 50 exactly
    def test_the_maximizer_lies_before_the_last_line(self, eps, u_hint, size):
        nu = family_nu(bernoulli_family(eps), u_hint=u_hint)
        curve = conjugate_curve(nu, u_hint, grid_size=size)
        grid = frozen_grid(curve)
        assert grid[-1] == max(50.0, 2.0 * u_hint)
        gv = nu(grid)
        # lines are increasing in u, so the last one, at most 0 = the line at lambda = 0 at u_hint,
        # is at most 0 at every smaller u too, and the first maximum is never the last line
        assert grid[-1] * u_hint - gv[-1] <= 0.0
        for u in np.linspace(0.0, u_hint, 17):
            assert int(np.argmax(grid * u - gv)) < size - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryWarning)
            curve.at(np.linspace(0.0, u_hint, 65))

    def test_a_nu_below_the_theorem_is_refused(self):
        # lambda u - lambda^2/4 peaks at lambda = 2u, for u = u_hint = 40 at the cap 80 itself:
        # a maximizer on the last line means nu is the envelope of no variance-1 zeta
        with pytest.raises(ParameterError, match="below lambda\\^2/2"):
            conjugate_curve(lambda lam: np.asarray(lam) ** 2 / 4.0, 40.0)


class TestConjugateCurve:
    @pytest.mark.parametrize("which", ["subgauss", "poisson", "bernoulli"])
    def test_dominates_fenchel_conjugate(self, which, bern_nu):
        # the lines under-estimate nu*, so Q sits on or above the refined
        # oracle, and at the default grid size at most 2% above it
        nu = {"subgauss": SUBGAUSS, "poisson": POISSON_PHI, "bernoulli": bern_nu}[which]
        curve = conjugate_curve(nu, 16.0)

        @given(st.floats(min_value=0.0, max_value=16.0))
        @settings(max_examples=40, deadline=None)
        def check(u):
            oracle = min(1.0, 2.0 * math.exp(-fenchel_conjugate(nu, u)))
            q = curve.at(u)
            assert q >= oracle
            if q > 1e-12:
                assert q <= 1.02 * oracle

        check()

    def test_dominates_the_poisson_conjugate(self, pois_curve):
        # nu* is only ever under-estimated, and the exponent is rounded down
        # before exp, so Q lies on or above 2 exp(-h(u)) bit for bit
        for u in np.linspace(0.0, 20.0, 201):
            exact = 2.0 * math.exp(-poisson_conjugate(float(u)))
            if exact < 1.0:
                assert pois_curve.at(float(u)) >= exact

    def test_dominates_at_every_tangency_point(self, pois_curve):
        # at u = e^lambda_j - 1 the line lambda_j u - nu(lambda_j) touches h(u)
        # exactly, so only the downward rounding keeps Q above the closed form
        us = np.expm1(frozen_grid(pois_curve))
        us = us[us <= 20.0]
        assert us.size > 500
        for u in us:
            assert pois_curve.at(float(u)) >= min(1.0, 2.0 * math.exp(-poisson_conjugate(float(u))))

    def test_params_record_the_frozen_grid(self):
        # u_hint 120 sets the cap 2 * 120; one below 25 keeps the least cap 50
        curve = conjugate_curve(SUBGAUSS, 120.0, grid_size=101)
        assert curve.params == {"lambda_cap": 240.0, "lambda_grid_size": 101}
        assert conjugate_curve(SUBGAUSS, 4.0, grid_size=101).params["lambda_cap"] == 50.0

    def test_negative_u_rejected(self):
        with pytest.raises(ParameterError):
            conjugate_curve(SUBGAUSS, 4.0).at(-1.0)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_nonfinite_u_rejected(self, u):
        curve = conjugate_curve(SUBGAUSS, 4.0)
        with pytest.raises(ParameterError, match="nonnegative and finite"):
            curve.at(u)
        with pytest.raises(ParameterError, match="nonnegative and finite"):
            curve.at(np.array([0.5, u, 2.0]))

    def test_one_boundary_warning_per_read_past_the_last_line(self):
        # the message names the cap and the last breakpoint, not the u, so it is
        # the same for every read of one curve, and Python's default filter shows it
        # once; on five lines to the cap 50, Q stays above 0.0 up to u near 39.9
        curve = conjugate_curve(SUBGAUSS, 4.0, grid_size=5)
        last_break = np.max(np.diff(SUBGAUSS(frozen_grid(curve))) / np.diff(frozen_grid(curve)))
        message = f"conjugate maximizer at the lambda grid boundary 50 for u past the last breakpoint {last_break:g}"
        assert message == CUT_WARNING
        with pytest.warns(BoundaryWarning) as record:
            curve.at(np.array([3.0, 30.0, 35.0]))
            curve.at(np.array([39.0]))
        assert [str(w.message) for w in record] == [message] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryWarning)
            curve.at(np.array([0.0, 3.0, 0.99 * last_break]))

    def test_no_boundary_warning_where_q_is_zero(self):
        # past the last breakpoint of 101 lines to the cap 50, 2 exp(-nu*(u)) underflows
        # to 0.0, which a larger cap cannot lower: such a read does not warn
        curve = conjugate_curve(SUBGAUSS, 4.0, grid_size=101)
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryWarning)
            assert curve.at(np.array([3.0, 3000.0, 4000.0])).tolist()[1:] == [0.0, 0.0]
        with pytest.warns(BoundaryWarning):  # one u with Q > 0.0 on the last line warns
            conjugate_curve(SUBGAUSS, 4.0, grid_size=5).at(np.array([3000.0, 30.0]))

    def test_reading_the_curve_calls_nu_zero_times(self, bern_nu):
        calls = []

        def counting(lam):
            calls.append(np.size(lam))
            return bern_nu(lam)

        curve = conjugate_curve(counting, 16.0)
        assert len(calls) == 1  # one nu call on the frozen grid
        calls.clear()
        curve.at(2.0)
        curve.at(np.linspace(0.0, 16.0, 257))
        tail_z_max(curve)
        assert calls == []

    def test_scalar_and_array_reads_agree_bit_for_bit(self, monkeypatch):
        # every row's Stieltjes sum reads Q on the z grid with one array read;
        # each value must be the bits of a single read at that node
        study = Study(ExperimentConfig(
            function_name="power-cusp", function_alpha=0.5, family_eps=0.05,
            x_grid_size=65, z_grid_size=65, tail_lambda_size=301,
        ))
        reads = []
        stieltjes = experiments.stieltjes_bound

        def recorded(profile, q, n, z_grid, f_sup):
            reads.append((q, z_grid))
            return stieltjes(profile, q, n, z_grid, f_sup)

        monkeypatch.setattr(experiments, "stieltjes_bound", recorded)
        for n in study.cfg.n_grid:
            study.stieltjes(n)
        assert len(reads) == len(study.cfg.n_grid)
        assert all(q is study.curve and z is study.z_grid for q, z in reads)
        singles = np.array([study.curve.at(float(z)) for z in study.z_grid])
        assert np.array_equal(study.curve.at(study.z_grid), singles)
        us = np.random.default_rng(7).uniform(0.0, study.cfg.tail_z_cap, 12_000)
        block = np.asarray(study.curve.at(us))
        assert np.array_equal(block[::97], [study.curve.at(float(u)) for u in us[::97]])

    def test_read_memory_is_linear_in_u(self, bern_nu):
        # every line at every u would be a 160 MB matrix for 20000 u against 1001 lines
        curve = conjugate_curve(bern_nu, 16.0)
        us = np.linspace(0.0, 16.0, 20_000)
        tracemalloc.start()
        try:
            curve.at(us)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_smoke_run_never_imports_scipy_optimize(self, tmp_path):
        code = (
            "import sys\n"
            "from bernapprox.cli import main\n"
            "try:\n"
            "    main(['run', '--set', 'grids.x_size=33', '--set', 'grids.z_size=33',\n"
            "          '--set', 'tail.lambda_size=101', '--set', 'run.n_grid=16,64',\n"
            "          '--set', 'function.name=power-cusp', '--set', 'function.alpha=0.5',\n"
            f"          '--out', {str(tmp_path)!r}])\n"
            "except SystemExit as e:\n"
            "    assert e.code == 0, e.code\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(tails.__file__).parents[1]))
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert res.stdout.strip().splitlines()[-1] == "False"


READ_NUS = ["subgauss", "poisson", "bernoulli-0.001", "bernoulli-0.05", "bernoulli-0.3"]


@pytest.fixture(scope="module")
def read_nus():
    nus = {"subgauss": SUBGAUSS, "poisson": poisson_nu}
    for eps in (0.001, 0.05, 0.3):
        nus[f"bernoulli-{eps}"] = family_nu(bernoulli_family(eps))
    return nus


def frozen_lines(nu, size):
    """The lines conjugate_curve freezes for the CLI's u_hint, and their breakpoints."""
    grid = np.concatenate([[0.0], np.geomspace(tails.LAMBDA_MIN, tails.lambda_cap(tails.Z_CAP / 4.0), size - 1)])
    gv = nu(grid)
    return grid, gv, np.diff(gv) / np.diff(grid)


class TestBreakpointSearch:
    """A read searches the breakpoints of the frozen lines; it must pick the
    line a scan over all of them picks, bit for bit, warnings included."""

    @pytest.mark.parametrize("size", [101, 301, 1001])
    @pytest.mark.parametrize("which", READ_NUS)
    def test_breakpoints_are_nondecreasing(self, read_nus, which, size):
        # nu is convex, so the secant slopes between consecutive lambdas increase
        _, _, breaks = frozen_lines(read_nus[which], size)
        assert np.all(np.diff(breaks) >= 0.0)

    @pytest.mark.parametrize("size", [101, 301, 1001])
    @pytest.mark.parametrize("which", READ_NUS)
    def test_search_read_equals_the_brute_force_oracle(self, read_nus, which, size):
        nu = read_nus[which]
        curve = conjugate_curve(nu, tails.Z_CAP / 4.0, grid_size=size)
        oracle = brute_force_conjugate_curve(nu, tails.Z_CAP / 4.0, grid_size=size)
        u_max = 2.0 * tails.Z_CAP

        def same(us):
            with warnings.catch_warnings(record=True) as got_warned:
                warnings.simplefilter("always")
                got = curve.fn(us)
            with warnings.catch_warnings(record=True) as ref_warned:
                warnings.simplefilter("always")
                ref = oracle.fn(us)
            assert got.tobytes() == ref.tobytes()
            assert [(w.category, str(w.message)) for w in got_warned] == \
                [(w.category, str(w.message)) for w in ref_warned]

        _, _, breaks = frozen_lines(nu, size)
        edges = np.concatenate([breaks, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf)])
        same(np.concatenate([[0.0, u_max], edges[(edges >= 0.0) & (edges <= u_max)]]))

        @given(st.lists(st.floats(min_value=0.0, max_value=u_max), min_size=1, max_size=64))
        @settings(max_examples=30, deadline=None)
        def check(us):
            same(np.array(us))

        check()

    @pytest.mark.parametrize("which", ["bernoulli-0.001", "bernoulli-0.05"])
    def test_inverted_breakpoints_only_raise_the_curve(self, read_nus, which):
        # at 20001 lines the phi table's rounding inverts thousands of secant slopes, so the search
        # over their running max may miss the line a full scan keeps; every line still lies below
        # nu*, so a miss may only raise Q.  Each read of one call, ascending or descending, is at
        # or above the full scan, and equals the same u read alone.
        nu = read_nus[which]
        grid, gv, breaks = frozen_lines(nu, 20001)
        assert np.count_nonzero(np.diff(breaks) < 0.0) > 1000
        u_max = 2.0 * tails.Z_CAP
        edges = np.concatenate([breaks, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf)])
        us = np.sort(np.concatenate([np.linspace(0.0, u_max, 1001), edges[(edges >= 0.0) & (edges <= u_max)]]))
        ref = full_scan_read(grid, gv, us)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryWarning)
            oracle = brute_force_conjugate_curve(nu, tails.Z_CAP / 4.0, grid_size=20001)
            assert np.array_equal(ref[::64], oracle.at(us[::64]))
            curve = conjugate_curve(nu, tails.Z_CAP / 4.0, grid_size=20001)
            assert np.all(curve.at(us) >= ref)
            assert np.all(curve.at(us[::-1]) >= ref[::-1])
            # a read depends on u alone, not on the other u of the same call
            some = us[::7]
            assert curve.at(some).tobytes() == np.array([curve.at(float(u)) for u in some]).tobytes()


def full_scan_read(grid, gv, us, block: int = 256) -> np.ndarray:
    """Q at the ascending us as ``brute_force_conjugate_curve`` reads it, first maximum over
    every line, 4-ulp rounding and all.  fl(u lambda_j - g_j) is nondecreasing in u, so over a
    block of us from ua to ub a line can be a maximizer only if its value at ub reaches the best
    value at ua; the others are skipped, which keeps the same first maximum."""
    eps = np.finfo(float).eps
    out = np.empty(us.size)
    for s in range(0, us.size, block):
        b = us[s:s + block]
        keep = np.flatnonzero(b[-1] * grid - gv >= np.max(b[0] * grid - gv))
        lines = b[:, None] * grid[keep] - gv[keep]
        j = keep[np.argmax(lines, axis=1)]
        best = lines.max(axis=1) - 4.0 * eps * (np.abs(b * grid[j]) + np.abs(gv[j]))
        out[s:s + block] = np.minimum(1.0, 2.0 * np.exp(-np.maximum(best, 0.0)))
    return out
