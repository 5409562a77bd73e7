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
of Q, and past z_max the Chebyshev envelope min(Q(z_max), 1/z^2) is
integrated exactly.  So the closed form certifies
alpha integral z^{alpha-1} P(|zeta| > z) dz for any zeta with E zeta^2 <= 1
whose tail Q dominates on [0, z_max]; zeta_n(x) is one, for every n and x.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Optional

import numpy as np

from .errors import DivergenceWarning, ParameterError
from .functions import Checked, HolderSpec
from .modulus import ModulusProfile
from .tails import TailCurve, tail_z_max

DIVERGENCE_FRACTION = 0.01
HDT_Z_SIZE = 2049  # uniform nodes of the hdt_bound cell sum on [0, z_max]


class _BoundReport(NamedTuple):
    upper_stieltjes: float
    enclosure: tuple[float, float]


class BoundReport(Checked, _BoundReport):
    """The Stieltjes bound at one n and the enclosure that brackets it."""

    __slots__ = ()

    def __new__(cls, upper_stieltjes: float, enclosure: tuple[float, float]):
        lo, hi = enclosure
        if not (lo <= upper_stieltjes <= hi):
            raise ParameterError(
                f"enclosure ({lo}, {hi}) must bracket the Stieltjes value "
                f"{upper_stieltjes}"
            )
        return super().__new__(cls, upper_stieltjes, enclosure)


def stieltjes_bound(
    profile: ModulusProfile,
    q: TailCurve,
    n: int,
    z_grid,
    f_sup: float,
) -> BoundReport:
    """Two-sided enclosure of integral omega(z/sqrt(n)) |dQ(z)| on z_grid.

    z_grid starts at 0 and increases strictly.  On each cell the measure
    mass is Q(z_i) - Q(z_{i+1}); the nondecreasing integrand is bounded
    below by its left and above by its right endpoint value.  Mass beyond
    the last grid point contributes 2 sup|f| Q(z_max) to the upper bracket,
    and the profile's own grid slack is added once against the total mass.
    The bracket is capped at 2 sup|f|, a bound on |A_n f - f| whatever the
    sums give.
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

    nominal = upper_core + 2.0 * f_sup * float(qv[-1])
    total_mass = float(qv[0] - qv[-1])
    upper = nominal + profile.enclosure_slack * total_mass
    # the lower bracket is at most 2 sup|f| already, up to rounding, which the cap keeps in order
    lower, nominal, upper = (min(v, 2.0 * f_sup) for v in (lower, nominal, upper))
    return BoundReport(upper_stieltjes=nominal, enclosure=(lower, upper))


class HdtBoundResult(NamedTuple):
    """alpha H n^{-alpha/2} integral z^{alpha-1} Q(z) dz, with its n-free prefactor.

    ``constant`` is the certified upper sum for alpha times the integral.
    """

    value: float
    constant: float


def _tail_remainder(q: TailCurve, alpha: float, z_max: float) -> float:
    """integral_{z_max}^inf z^{alpha-1} min(Q(z_max), 1/z^2) dz, from one read of Q.

    Past z_max the tail of any zeta with E zeta^2 <= 1 whose tail Q dominates
    at z_max is at most Q(z_max) and, by Chebyshev, at most 1/z^2; zeta_n(x)
    has variance 1 for every n and x of both families, whatever the curve
    Q.  The envelope crosses over at u = max(z_max, Q(z_max)^{-1/2}).
    """
    qz = float(q.at(np.array([z_max]))[0])
    if qz <= 0.0:
        return 0.0
    u = max(z_max, qz**-0.5)
    return qz * (u**alpha - z_max**alpha) / alpha + u ** (alpha - 2.0) / (2.0 - alpha)


def hdt_bound(h: HolderSpec, q: TailCurve, n: int, z_max: Optional[float] = None) -> HdtBoundResult:
    """Rate bound for omega(delta) <= H delta^alpha against the curve Q.

    On HDT_Z_SIZE uniform nodes of [0, z_max] the cell sum
    sum_i Q(z_i) (z_{i+1}^alpha - z_i^alpha) integrates alpha z^{alpha-1}
    exactly on each cell against the left-endpoint value of the
    nonincreasing Q, so it bounds alpha * integral_0^{z_max} z^{alpha-1} Q(z)
    dz from above, origin singularity and cap release included.  The
    exact integral of the Chebyshev envelope covers the rest, so
    ``constant`` is at least alpha integral z^{alpha-1} P(|zeta| > z) dz for
    any zeta with E zeta^2 <= 1 whose tail Q dominates on [0, z_max].  The
    grid depends on z_max only.
    """
    if n < 1:
        raise ParameterError("n must be positive")
    alpha = h.alpha
    if h.seminorm == 0.0:
        return HdtBoundResult(0.0, 0.0)
    if z_max is None:
        z_max = tail_z_max(q)
    if not z_max > 0.0:
        raise ParameterError(f"z_max must be positive, got {z_max}")
    zs = np.linspace(0.0, z_max, HDT_Z_SIZE)
    qv = np.asarray(q.at(zs), dtype=float)
    cells = float(np.sum(qv[:-1] * np.diff(zs**alpha)))
    remainder = _tail_remainder(q, alpha, z_max)
    if alpha * remainder > DIVERGENCE_FRACTION * cells:
        warnings.warn(
            f"tail remainder {remainder:g} exceeds {DIVERGENCE_FRACTION:.0%} of the "
            f"partial integral {cells / alpha:g}",
            DivergenceWarning,
        )
    constant = cells + alpha * remainder
    value = h.seminorm * n ** (-alpha / 2.0) * constant
    return HdtBoundResult(value, constant)


def lower_bound_constant(alpha: float) -> float:
    """G(alpha) = 2^{alpha/2} pi^{-1/2} Gamma((alpha+1)/2) = E|N(0,1)|^alpha."""
    if not (0.0 < alpha <= 1.0):
        raise ParameterError(f"alpha must be in (0, 1], got {alpha}")
    return 2.0 ** (alpha / 2.0) / math.sqrt(math.pi) * math.gamma((alpha + 1.0) / 2.0)
