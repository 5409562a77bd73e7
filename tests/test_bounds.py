import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gaussian_curve, hdt_bound_exp, simpson

from bernapprox.bounds import (
    HDT_Z_SIZE,
    BoundReport,
    hdt_bound,
    lower_bound_constant,
    poisson_curve,
    stieltjes_bound,
)
from bernapprox.errors import DivergenceWarning, InsufficientDataError, ParameterError
from bernapprox.experiments import ExperimentConfig, Study
from bernapprox.families import bernoulli_family
from bernapprox.functions import HolderSpec, builtin_catalog, trial_function
from bernapprox.modulus import ModulusProfile, modulus_profile
from bernapprox.operators import sup_error
from bernapprox.tails import PowerTailSpec, TailCurve, power_tail_curve, tail_z_max


def linear_profile(delta_max: float, size: int = 2001) -> ModulusProfile:
    d = np.linspace(0.0, delta_max, size)
    return ModulusProfile(deltas=d, values=d.copy(), enclosure_slack=0.0)


class TestStieltjesBound:
    def test_identity_profile_gaussian_curve(self):
        # integral z |dQ| with Q = exp(-z^2/2) equals sqrt(pi/2); oracle by
        # Simpson on the integrated-by-parts form  integral Q(z) dz
        q = TailCurve(kind="g", fn=lambda z: np.exp(-0.5 * np.asarray(z, dtype=float) ** 2))
        prof = linear_profile(12.0)
        rep = stieltjes_bound(prof, q, 1, z_grid=np.linspace(0.0, 10.0, 2001), f_sup=6.0)
        oracle = simpson(lambda z: math.exp(-0.5 * z * z), 0.0, 10.0, panels=4000)
        assert math.isclose(oracle, math.sqrt(math.pi / 2.0), rel_tol=1e-9)
        assert rep.enclosure[0] <= oracle <= rep.enclosure[1]
        assert rep.enclosure[1] - rep.enclosure[0] <= 0.02

    def test_near_constant_profile_capped_by_plateau(self):
        c = 0.8
        d = np.array([0.0, 1e-9, 5.0])
        prof = ModulusProfile(deltas=d, values=np.array([0.0, c, c]), enclosure_slack=0.0)
        q = gaussian_curve()
        rep = stieltjes_bound(prof, q, 1, z_grid=np.linspace(0.0, 9.0, 501), f_sup=c / 2)
        assert rep.enclosure[1] <= c + 1e-12
        assert rep.enclosure[0] >= c * (q.at(1e-6) - q.at(9.0)) - 1e-9

    def test_point_mass_step_curve(self):
        # Q drops 1 -> 0 at z0: the integral is exactly omega(z0/sqrt(n))
        z0 = 2.0
        q = TailCurve(kind="step", fn=lambda u: np.where(u < z0, 1.0, 0.0))
        prof = linear_profile(4.0)
        n = 4
        rep = stieltjes_bound(prof, q, n, z_grid=np.array([0.0, z0, 3.0]), f_sup=2.0)
        assert rep.enclosure[1] == pytest.approx(z0 / math.sqrt(n), abs=1e-12)
        assert rep.enclosure[0] <= z0 / math.sqrt(n) <= rep.enclosure[1]

    def test_monotone_in_n(self):
        q = gaussian_curve()
        prof = linear_profile(16.0)
        zs = np.linspace(0.0, tail_z_max(q), 257)
        vals = [stieltjes_bound(prof, q, n, zs, f_sup=8.0).enclosure[1] for n in (4, 16, 64, 256)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_profile_too_short_without_sup(self):
        prof = linear_profile(0.5)
        q = gaussian_curve()
        with pytest.raises(InsufficientDataError):
            stieltjes_bound(prof, q, 1, np.linspace(0.0, tail_z_max(q), 257))

    def test_bad_z_grid(self):
        prof = linear_profile(8.0)
        with pytest.raises(ParameterError):
            stieltjes_bound(prof, gaussian_curve(), 1, z_grid=np.array([1.0, 2.0]))

    def test_bound_report_invariants(self):
        with pytest.raises(ParameterError):
            BoundReport(n=1, upper_stieltjes=2.0, enclosure=(0.0, 1.0))


class TestHdtBound:
    def test_zero_seminorm(self):
        res = hdt_bound(HolderSpec(1.0, 0.0), gaussian_curve(), 5)
        assert res.value == 0.0

    def test_unit_exponential_curve(self):
        # integral z^0 e^{-z} dz = 1; for alpha = 1 the left sum overshoots by
        # at most one cell width
        q = TailCurve(kind="exp", fn=lambda z: np.exp(-np.asarray(z, dtype=float)))
        res = hdt_bound(HolderSpec(1.0, 1.0), q, 1, z_max=40.0)
        assert 1.0 <= res.value <= 1.0 + 40.0 / (HDT_Z_SIZE - 1)
        assert not res.diverging

    @given(
        alpha=st.floats(min_value=0.25, max_value=1.0),
        p=st.floats(min_value=1.0, max_value=3.0),
        K=st.floats(min_value=0.1, max_value=4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_power_tail_upper_sum_is_certified_and_tight(self, alpha, p, K):
        # integral alpha z^{alpha-1} exp(-K z^q) dz = (alpha/q) K^{-alpha/q} Gamma(alpha/q)
        spec = PowerTailSpec(p=p, K=K)
        s = alpha / spec.q
        analytic = s * K ** (-s) * math.gamma(s)
        res = hdt_bound(HolderSpec(alpha, 1.0), power_tail_curve(spec), 1)
        assert analytic <= res.constant <= 1.01 * analytic

    @pytest.mark.parametrize("z_max", [0.0, -1.0])
    def test_nonpositive_z_max_rejected(self, z_max):
        with pytest.raises(ParameterError):
            hdt_bound(HolderSpec(1.0, 1.0), gaussian_curve(), 1, z_max=z_max)

    def test_root_n_scaling(self):
        q = TailCurve(kind="exp", fn=lambda z: np.exp(-np.asarray(z, dtype=float)))
        v1 = hdt_bound(HolderSpec(1.0, 1.0), q, 1, z_max=40.0).value
        v4 = hdt_bound(HolderSpec(1.0, 1.0), q, 4, z_max=40.0).value
        assert v4 == pytest.approx(v1 / 2.0, rel=1e-12)

    def test_matches_stieltjes_for_exact_holder_profile(self):
        # omega(delta) = H delta^alpha: closed form sits inside the enclosure
        alpha, H = 0.5, 1.3
        d = np.linspace(0.0, 20.0, 4001)
        prof = ModulusProfile(deltas=d, values=H * d**alpha, enclosure_slack=0.0)
        q = gaussian_curve()
        n = 4
        hdt = hdt_bound(HolderSpec(alpha, H), q, n)
        rep = stieltjes_bound(prof, q, n, z_grid=np.linspace(0.0, 12.0, 4001), f_sup=10.0)
        assert rep.enclosure[0] - 1e-6 <= hdt.value <= rep.enclosure[1] + 1e-6

    def test_divergence_flag_for_flat_tail(self):
        flat = TailCurve(kind="flat", fn=lambda z: 0.5 * np.ones_like(np.asarray(z, dtype=float)))
        with pytest.warns(DivergenceWarning):
            res = hdt_bound(HolderSpec(1.0, 1.0), flat, 1, z_max=10.0)
        assert res.diverging


class TestHdtBoundExp:
    def test_alpha_q_one_agreement(self):
        res = hdt_bound_exp(HolderSpec(1.0, 1.0), PowerTailSpec(p=1.0, K=1.0), 1)
        assert res.direct == pytest.approx(1.0, rel=1e-8)
        assert res.printed_formula == pytest.approx(1.0, rel=1e-12)
        assert res.ratio == pytest.approx(1.0, rel=1e-8)

    def test_bernstein_configuration_discrepancy(self):
        res = hdt_bound_exp(HolderSpec(1.0, 1.0), PowerTailSpec(p=2.0, K=0.5), 1)
        assert res.direct == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-6)
        assert res.printed_formula == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-6)
        assert res.ratio == pytest.approx(2.0, rel=1e-6)

    def test_direct_matches_simpson_oracle(self):
        alpha, p, K = 0.5, 2.0, 0.7
        res = hdt_bound_exp(HolderSpec(alpha, 2.0), PowerTailSpec(p=p, K=K), 9)
        # oracle: substitute z = t^2 to remove the origin singularity
        integrand = lambda t: 2.0 * t ** (2 * alpha - 1) * math.exp(-K * t ** (2 * p))  # noqa: E731
        oracle = simpson(integrand, 1e-9, 6.0, panels=40000)
        expected = 2.0 * 9 ** (-alpha / 2.0) * alpha * oracle
        assert res.direct == pytest.approx(expected, rel=1e-6)
        assert res.direct == pytest.approx(res.closed_form, rel=1e-6)

    def test_quarter_n_halves_alpha_one(self):
        spec = PowerTailSpec(p=2.0, K=0.5)
        r1 = hdt_bound_exp(HolderSpec(1.0, 1.0), spec, 1)
        r4 = hdt_bound_exp(HolderSpec(1.0, 1.0), spec, 4)
        assert r4.direct == pytest.approx(r1.direct / 2.0, rel=1e-12)
        assert r4.printed_formula == pytest.approx(r1.printed_formula / 2.0, rel=1e-12)


class TestPoissonBound:
    PINNED_C_P = 2.276690941685826  # alpha = 1 quadrature constant, frozen

    def test_pinned_constant(self):
        # the certified upper sum sits at or above the true integral
        res = hdt_bound(HolderSpec(1.0, 1.0), poisson_curve(), 1)
        assert self.PINNED_C_P <= res.constant <= 1.005 * self.PINNED_C_P

    def test_constant_against_simpson_oracle(self):
        def qp(z):
            return min(1.0, 2.0 * math.exp(-((1.0 + z) * math.log1p(z) - z)))

        oracle = simpson(qp, 0.0, 60.0, panels=600000)
        assert self.PINNED_C_P == pytest.approx(oracle, abs=1e-6)

    def test_constant_function_contributes_zero(self):
        f = builtin_catalog("constant", c=2.0)
        prof = modulus_profile(
            f, np.ones_like, np.concatenate([[0.0], np.geomspace(1e-3, 8.0, 24)]),
            np.linspace(0.0, 64.0, 129),
        )
        q = poisson_curve()
        rep = stieltjes_bound(prof, q, 16, np.linspace(0.0, tail_z_max(q), 257), f_sup=2.0)
        # only the certified tail cap 2 sup|f| Q(z_max) ~ 4e-12 remains
        assert rep.enclosure[0] == 0.0
        assert rep.enclosure[1] <= 2.0 * 2.0 * 1.5e-12

    def test_closed_form_scaling_and_metadata(self):
        h = HolderSpec(1.0, 1.0)
        r16 = hdt_bound(h, poisson_curve(), 16)
        r64 = hdt_bound(h, poisson_curve(), 64)
        assert self.PINNED_C_P / 4.0 <= r16.value <= 1.005 * self.PINNED_C_P / 4.0
        assert r64.value == pytest.approx(r16.value / 2.0, rel=1e-9)
        assert self.PINNED_C_P <= r16.constant <= 1.005 * self.PINNED_C_P


class TestLowerBoundConstant:
    def test_alpha_one_closed_form(self):
        assert lower_bound_constant(1.0) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-15)

    def test_alpha_half_value(self):
        assert lower_bound_constant(0.5) == pytest.approx(0.8221789586624584, abs=1e-12)

    def test_continuity_at_zero(self):
        assert lower_bound_constant(1e-6) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    def test_matches_monte_carlo_moment(self, alpha, rng):
        draws = np.abs(rng.standard_normal(1_000_000)) ** alpha
        mc = float(np.mean(draws))
        se = float(np.std(draws, ddof=1)) / 1000.0
        assert abs(lower_bound_constant(alpha) - mc) <= 4.0 * se

    def test_domain_validated(self):
        with pytest.raises(ParameterError):
            lower_bound_constant(0.0)
        with pytest.raises(ParameterError):
            lower_bound_constant(1.5)


def exact_binomial_mad(n: int) -> float:
    """E|Bin(n, 1/2)/n - 1/2| with exact integer arithmetic."""
    total = 0
    c = 1
    for k in range(n + 1):
        total += c * abs(2 * k - n)
        c = c * (n - k) // (k + 1)
    return float(Fraction(total, 2 * n) / Fraction(2) ** n)


@pytest.fixture(scope="class")
def linear_trial_rows():
    """Run rows at n = 1024, 4096 with the trial cusp |x - 1/2| on the default family."""
    ns = (1024, 4096)
    study = Study(ExperimentConfig(trial_x0=0.5, trial_alpha=1.0, n_grid=ns))
    return [study.row(n, trial=True) for n in ns]


class TestLowerBoundRatio:
    def test_linear_trial_approaches_half_g1(self, linear_trial_rows):
        g = trial_function(0.5, 1.0)
        fam = bernoulli_family()
        target = 0.5 * lower_bound_constant(1.0)
        r4096 = linear_trial_rows[-1].lower_ratio
        assert abs(r4096 - target) <= 0.02 * target
        # exact integer oracle for the n = 4096 sup error at the cusp
        delta = sup_error(g, fam, 4096, np.linspace(*fam.x_domain, 257)).delta
        assert delta == pytest.approx(exact_binomial_mad(4096), rel=1e-10)
        assert r4096 == delta * 4096 ** 0.5 / g.holder.seminorm

    def test_ratios_stabilize(self, linear_trial_rows):
        r1024, r4096 = (r.lower_ratio for r in linear_trial_rows)
        assert abs(r4096 - r1024) < 0.05 * r4096
