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
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_conjugate_curve, empirical_table, fenchel_conjugate, gaussian_curve, step_read,
)

from bernapprox import experiments, tails
from bernapprox.errors import BoundaryWarning, ParameterError
from bernapprox.experiments import ExperimentConfig, Study
from bernapprox.families import bernoulli_family, poisson_family, zeta_log_mgf
from bernapprox.tails import (
    POISSON_PHI,
    PowerTailSpec,
    TailCurve,
    TabulatedPhi,
    conjugate_curve,
    empirical_atf,
    empirical_half_width,
    family_nu,
    make_nu,
    phi_sup,
    poisson_conjugate,
    power_tail_curve,
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
    """ln E exp(lam zeta(x)) on an x array, in zeta_log_mgf's form."""
    if fam.kind == "bernoulli":
        sig = np.sqrt(xs * (1.0 - xs))
        return np.logaddexp(-lam * xs / sig + np.log1p(-xs), lam * (1.0 - xs) / sig + np.log(xs))
    rt = np.sqrt(xs)
    return -lam * rt + xs * np.expm1(lam / rt)


TABLE_CAP = tails.DEFAULT_LAMBDA_CAP * 2**tails.MAX_CAP_DOUBLINGS


class TestPhiSup:
    def test_zero_at_zero(self):
        fam = bernoulli_family()
        assert phi_sup(fam, 0.0) == 0.0

    def test_poisson_attained_at_one(self):
        fam = poisson_family(1.0, 64.0)
        assert zeta_log_mgf(fam, 1.0, 1.0) == pytest.approx(math.e - 2.0, abs=1e-12)
        assert phi_sup(fam, 1.0) == pytest.approx(math.e - 2.0, abs=1e-12)

    def test_bernoulli_symmetric_point(self):
        fam = bernoulli_family()
        assert zeta_log_mgf(fam, 0.5, 1.0) == pytest.approx(math.log(math.cosh(1.0)), abs=1e-12)

    def test_even_in_lambda(self):
        fam = bernoulli_family(0.1)
        for lam in (0.3, 1.2, 4.0):
            assert phi_sup(fam, lam) == phi_sup(fam, -lam)

    def test_tabulated_phi_dominates_exact(self):
        # linear interpolation of a convex function lies above it
        fam = bernoulli_family(0.05)
        tab = TabulatedPhi(fam, t_max=20.0, size=801)
        for t in np.linspace(0.01, 19.9, 57):
            assert tab(float(t)) >= phi_sup(fam, float(t)) - 1e-12

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
            excess = dense_log_mgf(fam, xs, sign * lam) - phi_sup(fam, lam)
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
            assert tab(t) >= float(ref) - slack

    def test_fallback_evaluates_only_beyond_the_table(self, monkeypatch):
        fam = bernoulli_family(0.05)
        tab = TabulatedPhi(fam, t_max=20.0, size=801)
        ts = np.array([0.5, 25.0, -3.0, 19.9, -40.0, 21.0])
        beyond = np.abs(ts) > 20.0
        sizes = []

        def counting(f, lam):
            sizes.append(np.size(lam))
            return phi_sup(f, lam)

        monkeypatch.setattr(tails, "phi_sup", counting)
        out = tab(ts)
        assert sizes == [int(beyond.sum())]
        assert np.array_equal(out[beyond], phi_sup(fam, ts[beyond]))
        assert np.array_equal(out[~beyond], tab(ts[~beyond]))
        assert tab(25.0) == phi_sup(fam, 25.0)


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
        nu = make_nu(tab)
        for lam in (0.2, 1.0, 2.5, 10.0):
            env = nu_envelope(tab, lam)
            assert env.maximizer_n <= tails.DEFAULT_N_MAX
            assert nu(lam) == pytest.approx(env.value, rel=1e-9)
        assert nu(40.0) >= nu_envelope(tab, 40.0).value


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
        # maximizer at lambda = 60 > default cap 50; doubling must absorb it
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundaryWarning)
            val = fenchel_conjugate(SUBGAUSS, 60.0)
        assert val == pytest.approx(1800.0, rel=1e-9)

    def test_g0_validated(self):
        with pytest.raises(ParameterError):
            fenchel_conjugate(lambda lam: np.asarray(lam) + 1.0, 1.0)

    def test_biconjugation_recovers_nu(self):
        # Fenchel-Moraux: conjugating the exact conjugate returns nu
        nu = lambda lam: POISSON_PHI(np.abs(np.asarray(lam, dtype=float)))  # noqa: E731

        def nu_star(u):
            arr = np.atleast_1d(np.asarray(u, dtype=float))
            out = np.array([fenchel_conjugate(nu, float(v)) for v in arr])
            return float(out[0]) if np.isscalar(u) else out

        for lam in (0.1, 0.5, 1.0, 2.0, 3.0):
            nn = fenchel_conjugate(nu_star, float(lam), lambda_cap=40.0, grid_size=201)
            assert nn == pytest.approx(float(nu(lam)), rel=1e-6)


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
    return conjugate_curve(family_nu(poisson_family()), 20.0)


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


class TestPowerTail:
    def test_q_is_clipped_at_two(self):
        assert PowerTailSpec(p=4.0, K=1.0).q == 2.0
        assert PowerTailSpec(p=1.5, K=1.0).q == 1.5

    def test_k_required_positive(self):
        with pytest.raises(ParameterError):
            PowerTailSpec(p=2.0, K=0.0)

    def test_value_at_zero(self):
        assert power_tail_curve(PowerTailSpec(p=2.0, K=0.5)).at(0.0) == 1.0

    def test_bernstein_case_value(self):
        # p = q = 2, K = 1/2 is the classical Bernstein configuration
        assert power_tail_curve(PowerTailSpec(p=2.0, K=0.5)).at(2.0) == pytest.approx(
            math.exp(-2.0), abs=1e-12
        )

    def test_exponent_uses_q_not_p(self):
        curve = power_tail_curve(PowerTailSpec(p=4.0, K=1.0))
        assert curve.at(1.5) == pytest.approx(math.exp(-1.5**2), abs=1e-12)

    def test_curve_reaches_floor(self):
        curve = power_tail_curve(PowerTailSpec(p=2.0, K=0.5))
        assert curve.at(tail_z_max(curve) + 1e-3) < 1e-12


class TestTailCurveType:
    def test_tail_z_max_bisection(self):
        curve = gaussian_curve()
        z = tail_z_max(curve)
        assert curve.at(z) < 1e-12
        assert curve.at(z - 1e-3) >= 1e-12


BERN_US = np.arange(0.0, 4.01, 0.5)


@pytest.fixture(scope="module")
def bern_curve():
    return empirical_atf(bernoulli_family(), 0.5, BERN_US, [1, 2, 4, 8, 16, 32, 64], 100_000, seed=20240809)


class TestEmpiricalAtf:
    def test_value_at_zero_near_one(self, bern_curve):
        # at x = 1/2 the n = 1 summand is +-1, so P(|zeta| > 0) = 1 exactly
        assert bern_curve.at(0.0) == 1.0

    def test_reads_one_below_the_grid(self):
        # P(|zeta_4| > 0) = 0.625 at x = 1/2; the first grid value, P(|zeta_4| > 1), would be 0.125
        curve = empirical_atf(bernoulli_family(), 0.5, [1.0, 2.0], [4], 10_000, seed=5)
        assert curve.at(0.0) == 1.0
        assert curve.at(np.array([0.0, 0.999, 1.0])).tolist() == [1.0, 1.0, curve.at(1.0)]
        assert curve.at(1.0) < 0.2
        assert empirical_half_width(curve, 0.5) == 0.0

    def test_two_point_distribution_at_half(self):
        curve = empirical_atf(bernoulli_family(), 0.5, np.array([0.5]), [1], 10_000, seed=3)
        assert curve.at(0.5) == 1.0

    def test_hoeffding_dominance(self, bern_curve):
        for u, v, hw in zip(BERN_US, bern_curve.at(BERN_US), empirical_half_width(bern_curve, BERN_US)):
            assert v <= min(1.0, 2.0 * math.exp(-u * u / 2.0)) + 3.0 * hw

    def test_deterministic_given_seed(self):
        a = empirical_atf(bernoulli_family(), 0.5, np.array([1.0]), [4], 10_000, seed=5)
        b = empirical_atf(bernoulli_family(), 0.5, np.array([1.0]), [4], 10_000, seed=5)
        assert a.at(1.0) == b.at(1.0)

    def test_trials_minimum(self):
        with pytest.raises(ParameterError):
            empirical_atf(bernoulli_family(), 0.5, np.array([1.0]), [1], 100, seed=1)

    def test_needs_a_seed(self):
        # SeedSequence(None) would draw OS entropy
        with pytest.raises(ParameterError, match="seed"):
            empirical_atf(bernoulli_family(), 0.5, np.array([1.0]), [1], 10_000, seed=None)

    def test_clt_floor_at_large_n(self):
        # the tail cannot drop below half the Gaussian tail for moderate u
        us = np.array([0.5, 1.0, 1.5, 2.0])
        curve = empirical_atf(bernoulli_family(), 0.5, us, [4096], 100_000, seed=99)
        for u, v, hw in zip(us, curve.at(us), empirical_half_width(curve, us)):
            gauss = math.erfc(u / math.sqrt(2.0))
            assert v >= 0.5 * gauss - 3.0 * hw

    @pytest.mark.parametrize("kind", ["bernoulli", "poisson"])
    def test_conjugate_bound_dominates_empirical(self, kind):
        if kind == "bernoulli":
            fam, x = bernoulli_family(), 0.5
        else:
            fam, x = poisson_family(), 1.0
        us = np.arange(0.0, 4.01, 0.5)
        curve = conjugate_curve(family_nu(fam), 8.0)
        emp = empirical_atf(fam, x, us, [1, 4, 16, 64], 50_000, seed=11)
        for u, v, hw in zip(us, emp.at(us), empirical_half_width(emp, us)):
            assert v <= curve.at(float(u)) + 3.0 * hw

    @settings(max_examples=25, deadline=None)
    @given(
        grid=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=12, unique=True),
        n_set=st.lists(st.integers(1, 64), min_size=1, max_size=3),
        poisson=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_step_read_matches_the_table_oracle(self, grid, n_set, poisson, seed):
        fam, x = (poisson_family(), 1.5) if poisson else (bernoulli_family(), 0.3)
        us = np.sort(np.asarray(grid))
        curve = empirical_atf(fam, x, us, n_set, 10_000, seed)
        table, half_widths = empirical_table(fam, x, us, n_set, 10_000, seed)
        # the grid points, the points between them, and points below and past the grid
        probes = np.concatenate([us, (us[:-1] + us[1:]) / 2.0, [us[0] / 2.0, us[-1] + 0.5, us[-1] + 100.0]])
        want = [step_read(us, table, u, below=1.0) for u in probes]
        want_hw = [step_read(us, half_widths, u, below=0.0) for u in probes]
        assert curve.at(probes).tolist() == want
        assert [curve.at(float(u)) for u in probes] == want
        assert empirical_half_width(curve, probes).tolist() == want_hw


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
        assert family_nu(fam)(lam) >= nu_over_all_n(fam, lam)

    def test_nu_at_50_reaches_the_sup_past_the_scan(self):
        # the old 4096-term scan gave 72,848; the sup over n <= 2^22 sits at n = 13,115
        fam = bernoulli_family()
        assert nu_over_all_n(fam, 50.0) >= 90_400.0
        assert family_nu(fam)(50.0) >= nu_over_all_n(fam, 50.0)

    @settings(max_examples=25, deadline=None)
    @given(eps=st.floats(min_value=1e-9, max_value=0.5, exclude_max=True), doublings=st.integers(0, 5))
    def test_breakpoints_are_nondecreasing_up_to_the_largest_cap(self, eps, doublings):
        grid = np.concatenate([[0.0], np.geomspace(tails.LAMBDA_MIN, tails.DEFAULT_LAMBDA_CAP * 2**doublings, 1000)])
        breaks = np.diff(family_nu(bernoulli_family(eps))(grid)) / np.diff(grid)
        assert np.all(np.diff(breaks) >= 0.0)

    def test_the_bound_past_the_scan_needs_the_table(self):
        with pytest.raises(ParameterError, match="past the phi table"):
            make_nu(TabulatedPhi(bernoulli_family(0.05), t_max=20.0, size=801))(20.0 * 17)

    def test_n_max_floor(self):
        with pytest.raises(ParameterError, match="2\\^8"):
            make_nu(TabulatedPhi(bernoulli_family(0.05), t_max=20.0, size=801), n_max=255)


class TestConjugateCurve:
    @pytest.mark.parametrize("which", ["subgauss", "poisson", "bernoulli"])
    def test_dominates_fenchel_conjugate(self, which, bern_nu):
        # the lines under-estimate nu*, so Q sits on or above the refined
        # oracle, and at the default grid size at most 2% above it
        nu = {"subgauss": SUBGAUSS, "poisson": POISSON_PHI, "bernoulli": bern_nu}[which]
        curve = conjugate_curve(nu, 16.0)
        cap = curve.params["lambda_cap"]

        @given(st.floats(min_value=0.0, max_value=16.0))
        @settings(max_examples=40, deadline=None)
        def check(u):
            oracle = min(1.0, 2.0 * math.exp(-fenchel_conjugate(nu, u, lambda_cap=cap)))
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
        # maximizer of lambda u - lambda^2/2 is lambda = u: 120 needs 50 -> 100 -> 200
        curve = conjugate_curve(SUBGAUSS, 120.0, grid_size=101)
        assert curve.params == {"lambda_cap": 200.0, "lambda_grid_size": 101}

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

    def test_boundary_warning_per_u_beyond_the_last_line(self):
        curve = conjugate_curve(SUBGAUSS, 4.0, grid_size=101)
        with pytest.warns(BoundaryWarning) as record:
            curve.at(np.array([3.0, 3000.0, 4000.0]))
        assert len(record) == 2

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

        def recorded(profile, q, n, z_grid, f_sup=None):
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
    nus = {"subgauss": SUBGAUSS, "poisson": family_nu(poisson_family())}
    for eps in (0.001, 0.05, 0.3):
        nus[f"bernoulli-{eps}"] = family_nu(bernoulli_family(eps))
    return nus


def frozen_lines(nu, size):
    """The lines conjugate_curve freezes for the CLI's u_hint, and their breakpoints."""
    grid, gv = tails._lambda_grid(nu, tails.Z_CAP / 4.0, tails.DEFAULT_LAMBDA_CAP, size)
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
