"""Non-asymptotic error bounds: Stieltjes enclosure, Holder closed forms,
and the Gaussian lower-bound constant.

The central inequality bounds the sup error by the Stieltjes integral of
the weighted modulus against the absolute-tail-function measure,
integral over z of omega(z/sqrt(n)) |dQ(z)|.  Both the modulus and the tail
curve are monotone, so the integral is enclosed between the two Riemann-
Stieltjes endpoint sums; the upper bracket stays a certified bound in
floating point, which is what the inequality needs.

The Holder closed form alpha H n^{-alpha/2} integral z^{alpha-1} Q(z) dz is
the same kind of upper sum: on a fixed grid of HDT_Z_SIZE nodes over
[0, z_max] each cell integrates z^{alpha-1} exactly against the left value
of Q, so the closed form also sits on the safe side.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DivergenceWarning, InsufficientDataError, ParameterError
from .functions import HolderSpec
from .modulus import ModulusProfile
from .tails import TailCurve, poisson_conjugate, tail_z_max

DIVERGENCE_FRACTION = 0.01
HDT_Z_SIZE = 2049  # uniform nodes of the hdt_bound cell sum on [0, z_max]


@dataclass(frozen=True)
class BoundReport:
    """Per-n record pairing the enclosed Stieltjes bound with companions."""

    n: int
    upper_stieltjes: float
    enclosure: tuple[float, float]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        lo, hi = self.enclosure
        if not (lo <= self.upper_stieltjes <= hi):
            raise ParameterError(
                f"enclosure ({lo}, {hi}) must bracket the Stieltjes value "
                f"{self.upper_stieltjes}"
            )


def stieltjes_bound(
    profile: ModulusProfile,
    q: TailCurve,
    n: int,
    z_grid,
    f_sup: Optional[float] = None,
) -> BoundReport:
    """Two-sided enclosure of integral omega(z/sqrt(n)) |dQ(z)| on z_grid.

    z_grid starts at 0 and increases strictly.  On each cell the measure
    mass is Q(z_i) - Q(z_{i+1}); the nondecreasing integrand is bounded
    below by its left and above by its right endpoint value.  Mass beyond
    the last grid point contributes 2 sup|f| Q(z_max) to the upper bracket,
    and the profile's own grid slack is added once against the total mass.
    """
    if n < 1:
        raise ParameterError("n must be positive")
    zs = np.asarray(z_grid, dtype=float)
    if zs.ndim != 1 or zs.size < 2 or zs[0] != 0.0 or np.any(np.diff(zs) <= 0):
        raise ParameterError("z grid must start at 0 and increase strictly")
    qv = np.asarray(q.at(zs), dtype=float)
    masses = np.clip(qv[:-1] - qv[1:], 0.0, None)
    root_n = math.sqrt(n)
    d_lo = zs[:-1] / root_n
    d_hi = zs[1:] / root_n

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
    if q_before <= qz:
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


def poisson_curve() -> TailCurve:
    """min(1, 2 exp(-(1+z)ln(1+z)+z)), the exact-conjugate Poisson tail."""
    fn = lambda z: 2.0 * np.exp(-poisson_conjugate(np.abs(np.asarray(z, dtype=float))))  # noqa: E731
    return TailCurve(kind="poisson-conjugate", fn=fn)


def lower_bound_constant(alpha: float) -> float:
    """G(alpha) = 2^{alpha/2} pi^{-1/2} Gamma((alpha+1)/2) = E|N(0,1)|^alpha."""
    if not (0.0 < alpha <= 1.0):
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    return 2.0 ** (alpha / 2.0) / math.sqrt(math.pi) * math.gamma((alpha + 1.0) / 2.0)
