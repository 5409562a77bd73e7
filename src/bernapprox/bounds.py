"""Non-asymptotic error bounds: Stieltjes enclosure, Holder closed forms,
and the Gaussian lower-bound constant with trial-function ratio tables.

The central inequality bounds the sup error by the Stieltjes integral of
the weighted modulus against the absolute-tail-function measure,
integral over z of omega(z/sqrt(n)) |dQ(z)|.  Both the modulus and the tail
curve are monotone, so the integral is enclosed between the two Riemann-
Stieltjes endpoint sums; the upper bracket stays a certified bound in
floating point, which is what the inequality needs.

The Holder closed form alpha H n^{-alpha/2} integral z^{alpha-1} Q(z) dz is
the same kind of upper sum: on a fixed grid of HDT_Z_SIZE nodes over
[0, z_max] each cell integrates z^{alpha-1} exactly against the left value
of Q, so the closed form also sits on the safe side.  Only the check on the
published exponential-tail formula integrates numerically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DivergenceWarning, InsufficientDataError, ParameterError
from .families import Family
from .functions import HolderSpec, TargetFunction
from .modulus import ModulusProfile
from .operators import sup_error
from .tails import TailCurve, PowerTailSpec, poisson_conjugate, tail_z_max

DIVERGENCE_FRACTION = 0.01
HDT_Z_SIZE = 2049  # uniform nodes of the hdt_bound cell sum on [0, z_max]


@dataclass(frozen=True)
class BoundReport:
    """Per-n record pairing the enclosed Stieltjes bound with companions."""

    n: int
    upper_stieltjes: float
    enclosure: tuple[float, float]
    empirical_delta: Optional[float] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        lo, hi = self.enclosure
        if not (lo <= self.upper_stieltjes <= hi):
            raise ParameterError(
                f"enclosure ({lo}, {hi}) must bracket the Stieltjes value "
                f"{self.upper_stieltjes}"
            )
        if self.empirical_delta is not None:
            radius = float(self.metadata.get("error_radius", 0.0))
            if self.empirical_delta > hi + radius:
                raise ParameterError(
                    f"empirical delta {self.empirical_delta} exceeds the upper "
                    f"bracket {hi} plus operator radius {radius}"
                )


def stieltjes_bound(
    profile: ModulusProfile,
    q: TailCurve,
    n: int,
    z_grid=None,
    f_sup: Optional[float] = None,
    z_size: int = 257,
) -> BoundReport:
    """Two-sided enclosure of integral omega(z/sqrt(n)) |dQ(z)|.

    On each cell the measure mass is Q(z_i) - Q(z_{i+1}); the nondecreasing
    integrand is bounded below by its left and above by its right endpoint
    value.  Mass beyond the last grid point contributes 2 sup|f| Q(z_max)
    to the upper bracket, and the profile's own grid slack is added once
    against the total mass.
    """
    if n < 1:
        raise ParameterError("n must be positive")
    if z_grid is None:
        zmax = tail_z_max(q)
        zs = np.linspace(0.0, max(zmax, 1e-6), z_size)
    else:
        zs = np.asarray(z_grid, dtype=float)
        if zs.ndim != 1 or zs.size < 2 or zs[0] != 0.0 or np.any(np.diff(zs) <= 0):
            raise ParameterError("z grid must start at 0 and increase strictly")
    qv = np.asarray(q.at(zs), dtype=float)
    masses = np.clip(qv[:-1] - qv[1:], 0.0, None)
    root_n = math.sqrt(n)
    d_lo = zs[:-1] / root_n
    d_hi = zs[1:] / root_n

    if d_hi[-1] > profile.delta_max and f_sup is None:
        raise InsufficientDataError(
            f"profile covers deltas up to {profile.delta_max:g} but the bound needs "
            f"{d_hi[-1]:g}; supply sup|f| or extend the profile"
        )
    lower = float(np.sum(profile.value_lower(d_lo) * masses))
    upper_core = float(np.sum(profile.value_upper(d_hi, f_sup) * masses))

    tail_q = float(qv[-1])
    if tail_q > 0.0:
        if f_sup is None:
            raise InsufficientDataError(
                "tail mass beyond z-max is positive; sup|f| is required to cap it"
            )
        tail_term = 2.0 * f_sup * tail_q
    else:
        tail_term = 0.0

    nominal = upper_core + tail_term
    total_mass = float(qv[0] - qv[-1])
    upper = nominal + profile.enclosure_slack * total_mass
    return BoundReport(
        n=n,
        upper_stieltjes=nominal,
        enclosure=(lower, upper),
        metadata={
            "z_max": float(zs[-1]),
            "z_grid_size": int(zs.size),
            "tail_term": tail_term,
            "profile_slack": profile.enclosure_slack,
            "curve": q.kind,
        },
    )


@dataclass(frozen=True)
class HdtBoundResult:
    """alpha H n^{-alpha/2} integral z^{alpha-1} Q(z) dz, with diagnostics.

    ``constant`` is the certified upper sum for alpha times the integral,
    the n-free prefactor of the rate; ``diverging`` flags a tail remainder
    above 1% of the partial integral.
    """

    value: float
    constant: float
    tail_remainder: float
    diverging: bool

    def __float__(self):
        return self.value


def _tail_remainder(q: TailCurve, alpha: float, z_max: float) -> float:
    """Certified remainder of integral_{z_max}^inf z^{alpha-1} Q(z) dz.

    Power-tail curves get the exact incomplete-gamma tail, the only scipy
    call on the CLI path.  Otherwise a convex-exponent geometric bound is
    used: any backward difference of -ln Q under-estimates the forward decay
    rate, so Q(z) <= Q(z_max) e^{-r (z - z_max)} beyond the cut.
    """
    qz = float(q.at(z_max))
    if qz <= 0.0:
        return 0.0
    if q.kind == "power-tail":
        from scipy.special import gammaincc

        p_exp = q.params["q"]
        K = q.params["K"]
        s = alpha / p_exp
        return (1.0 / p_exp) * K ** (-s) * math.gamma(s) * float(gammaincc(s, K * z_max**p_exp))
    h = max(1e-3 * z_max, 1e-6)
    q_before = float(q.at(z_max - h))
    if q_before <= qz or qz <= 0:
        return math.inf
    r = (math.log(q_before) - math.log(qz)) / h
    if r <= 0:
        return math.inf
    return z_max ** (alpha - 1.0) * qz / r if alpha <= 1.0 else math.inf


def hdt_bound(h: HolderSpec, q: TailCurve, n: int, z_max: Optional[float] = None) -> HdtBoundResult:
    """Rate bound for omega(delta) <= H delta^alpha against the curve Q.

    On HDT_Z_SIZE uniform nodes of [0, z_max] the cell sum
    sum_i Q(z_i) (z_{i+1}^alpha - z_i^alpha) integrates alpha z^{alpha-1}
    exactly on each cell against the left-endpoint value of the
    nonincreasing Q, so it bounds alpha * integral_0^{z_max} z^{alpha-1} Q(z)
    dz from above, origin singularity and cap release included.  The
    certified tail remainder covers the rest.  The grid depends on z_max
    only.
    """
    if n < 1:
        raise ParameterError("n must be positive")
    alpha = h.alpha
    if h.seminorm == 0.0:
        return HdtBoundResult(0.0, 0.0, 0.0, False)
    if z_max is None:
        z_max = tail_z_max(q)
    if not z_max > 0.0:
        raise ParameterError(f"z_max must be positive, got {z_max}")
    zs = np.linspace(0.0, z_max, HDT_Z_SIZE)
    qv = np.asarray(q.at(zs), dtype=float)
    cells = float(np.sum(qv[:-1] * np.diff(zs**alpha)))
    remainder = _tail_remainder(q, alpha, z_max)
    diverging = not math.isfinite(remainder) or alpha * remainder > DIVERGENCE_FRACTION * cells
    if diverging:
        warnings.warn(
            f"tail remainder {remainder:g} exceeds {DIVERGENCE_FRACTION:.0%} of the "
            f"partial integral {cells / alpha:g}",
            DivergenceWarning,
        )
    constant = cells + alpha * remainder
    value = h.seminorm * n ** (-alpha / 2.0) * constant
    return HdtBoundResult(value, constant, remainder, diverging)


@dataclass(frozen=True)
class HdtExpBound:
    """Both readings of the exponential-tail closed form.

    ``direct`` integrates alpha H n^{-alpha/2} z^{alpha-1} exp(-K z^q)
    numerically (analytically H n^{-alpha/2} (alpha/q) K^{-alpha/q}
    Gamma(alpha/q)); ``printed_formula`` is the published variant without
    the 1/q factor.  ``ratio`` exposes the discrepancy (equal to q when the
    numerical integral is exact).
    """

    direct: float
    printed_formula: float
    closed_form: float
    ratio: float


def hdt_bound_exp(h: HolderSpec, spec: PowerTailSpec, n: int) -> HdtExpBound:
    from scipy.integrate import quad

    if n < 1:
        raise ParameterError("n must be positive")
    alpha, H = h.alpha, h.seminorm
    q_exp, K = spec.q, spec.K
    scale = H * n ** (-alpha / 2.0)

    # integral z^{alpha-1} exp(-K z^q) dz over (0, inf); substitute z = t^(1/alpha)
    # on (0,1) to absorb the origin singularity.
    head, _ = quad(lambda t: math.exp(-K * t ** (q_exp / alpha)), 0.0, 1.0, limit=200)
    head /= alpha
    body, _ = quad(lambda z: z ** (alpha - 1.0) * math.exp(-K * z**q_exp), 1.0, np.inf, limit=200)
    direct = scale * alpha * (head + body)

    closed = scale * (alpha / q_exp) * K ** (-alpha / q_exp) * math.gamma(alpha / q_exp)
    printed = scale * alpha * K ** (-alpha / q_exp) * math.gamma(alpha / q_exp)
    return HdtExpBound(
        direct=direct,
        printed_formula=printed,
        closed_form=closed,
        ratio=printed / direct if direct > 0 else math.inf,
    )


def poisson_curve() -> TailCurve:
    """min(1, 2 exp(-(1+z)ln(1+z)+z)), the exact-conjugate Poisson tail."""
    fn = lambda z: 2.0 * np.exp(-poisson_conjugate(np.abs(np.asarray(z, dtype=float))))  # noqa: E731
    return TailCurve(kind="poisson-conjugate", fn=fn)


def lower_bound_constant(alpha: float) -> float:
    """G(alpha) = 2^{alpha/2} pi^{-1/2} Gamma((alpha+1)/2) = E|N(0,1)|^alpha."""
    if not (0.0 < alpha <= 1.0):
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    return 2.0 ** (alpha / 2.0) / math.sqrt(math.pi) * math.gamma((alpha + 1.0) / 2.0)


@dataclass(frozen=True)
class LowerBoundRow:
    n: int
    delta: float
    ratio: float


@dataclass(frozen=True)
class LowerBoundTable:
    """Trial-function ratios Delta_n n^{alpha/2} / H next to both reference
    normalizations G(alpha) and G(alpha) sigma_bar^alpha; no pass/fail
    judgment is embedded."""

    rows: tuple[LowerBoundRow, ...]
    g_alpha: float
    g_alpha_scaled: float
    alpha: float
    x0: float
    sigma_bar: float


def lower_bound_row(
    g: TargetFunction, fam: Family, h: HolderSpec, n: int, x_grid, tail_tol: float = 1e-12
) -> LowerBoundRow:
    """Delta_n[g] and the ratio Delta_n[g] n^{alpha/2} / H, via the exact operator path."""
    se = sup_error(g, fam, n, x_grid, mode="exact", tail_tol=tail_tol)
    return LowerBoundRow(n=n, delta=se.delta, ratio=se.delta * n ** (h.alpha / 2.0) / h.seminorm)


def lower_bound_ratio(
    g: TargetFunction,
    fam: Family,
    h: HolderSpec,
    n_set: Sequence[int],
    x0: float,
    sigma_bar: float,
    x_grid=None,
    tail_tol: float = 1e-12,
) -> LowerBoundTable:
    """Ratios Delta_n[g] n^{alpha/2} / H over n, via the exact operator path."""
    if sigma_bar <= 0:
        raise ParameterError("sigma_bar must be positive")
    if h.seminorm <= 0:
        raise ParameterError("the trial seminorm must be positive")
    lo, hi = fam.x_domain
    if not (lo <= x0 <= hi):
        raise ParameterError(f"x0={x0} outside the family x-domain [{lo}, {hi}]")
    if x_grid is None:
        x_grid = np.linspace(lo, hi, 257)
    ns = sorted(set(int(v) for v in n_set))
    rows = tuple(lower_bound_row(g, fam, h, n, x_grid, tail_tol) for n in ns)
    g_alpha = lower_bound_constant(h.alpha)
    return LowerBoundTable(
        rows=rows,
        g_alpha=g_alpha,
        g_alpha_scaled=g_alpha * sigma_bar**h.alpha,
        alpha=h.alpha,
        x0=x0,
        sigma_bar=sigma_bar,
    )
