"""Tail-function calculus: log-MGF envelopes, conjugates, and tail curves.

The chain is: phi(lambda) = max over sign and parameter x of the normalized
log-MGF, attained at the two ends of the x-domain (so no x grid; proof in
phi_sup); nu(lambda) = sup_n n phi(lambda/sqrt(n)); nu*(u) the Young-Fenchel
conjugate; and the uniform-in-n tail bound Q(u) <= min(1, 2 exp(-nu*(u))).
The sup over n is an exact scan of n <= ``tail.n_max`` and, for every
larger n, a bound from phi's chords and Bennett's inequality (``make_nu``).

Conjugation is a discrete Legendre transform over supporting lines.  nu is
evaluated once, on lambda = 0 plus ``tail.lambda_size - 1`` geometric points
up to a cap that doubles while the maximizer sits on its end; each point
lambda_j gives the line lambda_j u - nu(lambda_j), and nu*(u) is bounded
below by the largest line at u, rounded down by a few ulp.  Nothing is
refined: a read of the curve is one binary search over the lines'
breakpoints and calls nu zero times.  Against the exact conjugate the
curve dominates everywhere and, at the default grid sizes, is at most
about 2% looser where Q > 1e-12.  The point beyond which Q is negligible
comes only from ``tail_z_max``.

Numerical conjugation only ever evaluates feasible lambdas, so it can only
under-estimate nu*; the resulting curve therefore still dominates the true
tail, which is the direction every bound here needs.  Likewise the linear
interpolation used for tabulated phi over-estimates a convex function, which
again errs on the dominating side.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BoundaryWarning, ParameterError
from .families import Family, normalized_sum_samples, spawn_rngs, zeta_bound, zeta_log_mgf

DEFAULT_LAMBDA_CAP = 50.0
DEFAULT_LAMBDA_GRID_SIZE = 1001
MAX_CAP_DOUBLINGS = 5
LAMBDA_MIN = 1e-3  # smallest positive lambda of the conjugation grid
# one n-scan temporary of make_nu.  A block holds about three at once, which
# fit in the 128 KiB that glibc malloc keeps free above the heap, so no block
# grows or trims the heap; at 2^17 each block page-faulted anew or not,
# depending on the heap's state before the scan
NU_BLOCK_BYTES = 2**16
DEFAULT_N_MAX = 256
# 8 ulp up: more than the rounding of a chord's sup of phi/t^2 (about 5 ulp) and of lam^2 times it
ROUND_UP = 1.0 + 8.0 * np.finfo(float).eps
TAIL_FLOOR = 1e-12
Z_CAP = 64.0


# ---------------------------------------------------------------------------
# Tail curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailCurve:
    """Nonincreasing curve u -> Q(u) with Q(0) <= 1, read through ``fn``.

    ``at`` caps ``fn`` at 1.  Each builder owns its curve's form: a closed
    form, the supporting lines of a conjugate, or an empirical step rule.
    """

    kind: str
    fn: Callable
    params: dict = field(default_factory=dict)

    def at(self, u):
        out = np.minimum(1.0, np.asarray(self.fn(np.asarray(u, dtype=float)), dtype=float))
        if np.isscalar(u):
            return float(out)
        return out


def tail_z_max(curve: TailCurve, floor: float = TAIL_FLOOR, cap: float = Z_CAP) -> float:
    """Where Q drops below floor: bisects [0, cap] to a bracket of width <= 1e-6 and
    returns its end with Q(z) < floor; 0 if Q(0) < floor, cap if Q(cap) >= floor."""
    if curve.at(0.0) < floor:
        return 0.0
    if curve.at(cap) >= floor:
        return cap
    lo, hi = 0.0, cap
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if curve.at(mid) < floor:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Log-MGF envelope
# ---------------------------------------------------------------------------

def phi_sup(fam: Family, lam):
    """max over sign and x in the x-domain [lo, hi] of ln E exp(+- lam zeta(x)).

    Endpoint lemma: for lam > 0, phi_x(lam) = ln E exp(lam zeta(x)) is
    nonincreasing and phi_x(-lam) nondecreasing in x, for both families, so
    the sup is max(phi_lo(|lam|), phi_hi(-|lam|)) exactly; for Bernoulli the
    two agree by phi_x(-lam) = phi_{1-x}(lam).
    - Bernoulli: with r = sqrt((1-x)/x), (1 + r^2) M = r^2 e^{-lam/r} + e^{lam r};
      dM/dr >= 0 reduces to e^{2s} <= (1+s)/(1-s) for s = lam (r + 1/r)/2 < 1,
      which is s <= artanh(s), and is immediate for s >= 1.
    - Poisson: phi_x(+-lam) = lam^2 g(+-lam/sqrt(x)), g(y) = (e^y - 1 - y)/y^2 increasing.
    Both signs are taken at both ends, so phi is even in lam; 0 at lam = 0.
    """
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    best = np.zeros(lam_arr.shape)  # lambda = 0 contributes exactly 0
    for x in fam.x_domain:
        for sign in (1.0, -1.0):
            best = np.maximum(best, zeta_log_mgf(fam, x, sign * lam_arr))
    if np.isscalar(lam):
        return float(best[0])
    return best


class TabulatedPhi:
    """Dense tabulation of phi_sup with linear interpolation.

    phi is convex, so the interpolant dominates it pointwise; evaluations
    beyond the table fall back to the exact supremum.
    """

    def __init__(self, fam: Family, t_max: float = DEFAULT_LAMBDA_CAP, size: int = 4001):
        self.fam = fam
        self.t_max = float(t_max)
        self.t_grid = np.concatenate([[0.0], np.geomspace(1e-6, self.t_max, size - 1)])
        self.values = phi_sup(fam, self.t_grid)

    def __call__(self, t):
        arr = np.abs(np.asarray(t, dtype=float))
        out = np.asarray(np.interp(arr, self.t_grid, self.values))
        beyond = arr > self.t_max
        if np.any(beyond):
            out[beyond] = phi_sup(self.fam, arr[beyond])
        if np.isscalar(t):
            return float(out)
        return out


# ---------------------------------------------------------------------------
# nu(lambda) = sup_n n phi(lambda / sqrt(n))
# ---------------------------------------------------------------------------

def _bennett_ratio(y: float) -> float:
    """(e^y - 1 - y) / y^2 for y > 0, rounded up: a series of positive terms
    below 1, where the closed form cancels, and the closed form above."""
    if y < 1.0:
        val = math.fsum(y**k / math.factorial(k + 2) for k in range(24))  # tail < y^24 / 25!
    else:
        val = (math.expm1(y) - y) / (y * y)
    return val * ROUND_UP


def make_nu(phi: TabulatedPhi, n_max: int = DEFAULT_N_MAX) -> Callable:
    """Vectorized nu(lambda) = sup over every n >= 1 of n phi(lambda/sqrt(n)):
    an exact scan of the table over n = 1..n_max, and the bound G below for
    every larger n.

    G(lam) = lam^2 R(lam/sqrt(n_max)), with R(s) = sup_{0<t<=s} phi_up(t)/t^2.
    - G is the sup over real n >= n_max of n phi_up(lam/sqrt(n)): put
      t = lam/sqrt(n), so n phi_up(t) = lam^2 phi_up(t)/t^2 and t runs over
      (0, lam/sqrt(n_max)].
    - phi_up >= phi, so G >= n phi(lam/sqrt(n)) for every n >= n_max.
    - phi_up is c0 t^2 on the Bennett cell [0, t_1], t_1 the table's first
      positive node, then the chords of the table's nodes, the first chord
      starting at c0 t_1^2.  On the cell, every zeta(x) of the x-domain has
      mean 0, variance 1 and |zeta| <= M, so Bennett (JASA 57, 1962) gives
      phi(t) <= (e^{tM} - 1 - tM)/M^2 = t^2 g(tM) <= t^2 g(t_1 M) = c0 t^2,
      g(y) = (e^y - 1 - y)/y^2 being increasing.  Past t_1 a chord of convex
      phi lies above phi, the first one too since it starts above phi(t_1).
    - phi_up is convex: c0 t^2 is, the chords' slopes increase with phi's,
      and the first chord's slope, about t_1 ((1 + rho)/2 + M t_1/2) for the
      node ratio rho = t_2/t_1 (1.0053 in family_nu's table), exceeds the
      cell's end slope 2 c0 t_1, about t_1 (1 + M t_1/3).  Each
      n phi_up(lam/sqrt(n)) is then convex in lam, and so are G, a sup of
      them, and nu = max(scan, G), which the breakpoint read of
      ``conjugate_curve`` needs.  All of this holds up to the rounding of the
      table's values, which near t_1 is 1e-4 relative and can tilt a chord.
    - On a chord a + b t, a <= 0 < b, the ratio (a + b t)/t^2 rises until
      t = -2a/b and falls after it.  So each full chord's sup is read at that
      point clipped to the chord, once; a running max of them gives R at the
      nodes, and a lambda adds only its own partial chord.  The sups and c0
      are rounded up by ROUND_UP.  G includes the n -> infinity limit
      lam^2/2 <= c0 lam^2.
    """
    if n_max < 2**8:
        raise ParameterError(f"n_max must be at least 2^8, got {n_max}")
    # n descending, so that each lambda's row of arguments lambda/sqrt(n) ascends
    ns = np.arange(n_max, 0, -1, dtype=float)
    inv_sqrt = 1.0 / np.sqrt(ns)
    rows = max(1, NU_BLOCK_BYTES // (8 * n_max))

    t, v = phi.t_grid[1:], phi.values[1:].copy()
    c0 = _bennett_ratio(t[0] * zeta_bound(phi.fam))
    v[0] = c0 * t[0] * t[0]
    slope = np.diff(v) / np.diff(t)

    def ratio(k, s):
        """sup of chord k's phi_up(t)/t^2 over t in [t_k, s], rounded up."""
        peak = np.clip(2.0 * (t[k] - v[k] / slope[k]), t[k], s)
        return (v[k] + slope[k] * (peak - t[k])) / (peak * peak) * ROUND_UP

    at_nodes = np.maximum.accumulate(np.concatenate([[c0], ratio(np.arange(slope.size), t[1:])]))

    def beyond_scan(lam):
        s = np.maximum(lam / math.sqrt(n_max) * ROUND_UP, t[0])  # s rounded up: R is nondecreasing
        if np.any(s > t[-1]):
            raise ParameterError(f"lambda {lam.max():g} reaches past the phi table at n = {n_max}")
        k = np.maximum(np.searchsorted(t, s) - 1, 0)
        return lam * lam * np.maximum(at_nodes[k], ratio(k, s))

    def nu(lam):
        lam_arr = np.abs(np.atleast_1d(np.asarray(lam, dtype=float)))
        best = np.empty(lam_arr.shape)
        for start in range(0, lam_arr.size, rows):
            block = lam_arr[start:start + rows]
            vals = ns[None, :] * np.asarray(phi(block[:, None] * inv_sqrt[None, :]), dtype=float)
            best[start:start + rows] = np.max(vals, axis=1)
        best = np.maximum(best, beyond_scan(lam_arr))
        if np.isscalar(lam):
            return float(best[0])
        return best

    return nu


POISSON_PHI = lambda z: np.expm1(np.asarray(z, dtype=float)) - np.asarray(z, dtype=float)  # noqa: E731


def family_nu(fam: Family, n_max: int = DEFAULT_N_MAX, lambda_cap: float = DEFAULT_LAMBDA_CAP) -> Callable:
    """The family's nu: exact for Poisson, from a tabulated phi for Bernoulli.

    The phi table reaches the largest cap the conjugation may double to.
    """
    if fam.kind == "poisson":
        # n phi_P(lam/sqrt(n)) decreases in n, so nu = phi_P exactly.
        return lambda lam: POISSON_PHI(np.abs(np.asarray(lam, dtype=float)))
    return make_nu(TabulatedPhi(fam, t_max=lambda_cap * 2**MAX_CAP_DOUBLINGS), n_max)


# ---------------------------------------------------------------------------
# Young-Fenchel conjugation
# ---------------------------------------------------------------------------

def _lambda_grid(g: Callable, u: float, cap: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """0 plus size - 1 geometric points from LAMBDA_MIN to cap, and g on them,
    the cap doubled (at most MAX_CAP_DOUBLINGS times) while lambda u -
    g(lambda) peaks at its end."""
    for attempt in range(MAX_CAP_DOUBLINGS + 1):
        grid = np.concatenate([[0.0], np.geomspace(min(LAMBDA_MIN, cap), cap, size - 1)])
        gv = np.asarray(g(grid), dtype=float)
        if int(np.argmax(grid * u - gv)) < size - 1 or attempt == MAX_CAP_DOUBLINGS:
            return grid, gv
        cap *= 2.0


def poisson_conjugate(u) -> float:
    """Conjugate of e^z - 1 - z: (1+u) ln(1+u) - u, the Poisson tail exponent."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0):
        raise ParameterError("u must be nonnegative")
    out = (1.0 + arr) * np.log1p(arr) - arr
    if np.isscalar(u):
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Upper-bound curves
# ---------------------------------------------------------------------------

def conjugate_curve(
    nu: Callable,
    u_hint: float,
    lambda_cap: float = DEFAULT_LAMBDA_CAP,
    grid_size: int = DEFAULT_LAMBDA_GRID_SIZE,
) -> TailCurve:
    """min(1, 2 exp(-nu*(u))), the uniform-in-n tail bound, from supporting lines.

    nu is evaluated once, on the lambda grid whose cap doubles until the
    maximizer for ``u_hint`` lies inside.  Each lambda_j gives the affine
    minorant lambda_j u - nu(lambda_j) of nu*; their maximum, less 4 ulp of
    its two terms for the rounding, is a lower bound on nu* at every u.
    A read finds the maximum by binary search over the lines' breakpoints
    (Lucet's linear-time Legendre transform, Numer. Algorithms 16, 1997) and
    keeps the line a scan over all of them keeps; a u whose maximum falls on
    the last line warns.
    """
    grid, gv = _lambda_grid(nu, u_hint, lambda_cap, grid_size)
    # nu is convex, so line j + 1 overtakes line j at their secant slope and these breakpoints
    # increase; the found line or a neighbour (rounding, ties) is the first maximum of a scan
    slopes = np.diff(gv) / np.diff(grid)
    eps = np.finfo(float).eps

    def fn(u):
        flat = np.ravel(np.asarray(u, dtype=float))
        bad = ~((flat >= 0) & (flat < np.inf))  # NaN fails both
        if bad.any():
            raise ParameterError(f"u must be nonnegative and finite, got {flat[bad][0]}")
        cand = np.minimum(np.maximum(np.searchsorted(slopes, flat)[:, None] + [-1, 0, 1], 0), grid.size - 1)
        lines = flat[:, None] * grid[cand] - gv[cand]
        j = cand[np.arange(flat.size), np.argmax(lines, axis=1)]
        best = lines.max(axis=1) - 4.0 * eps * (np.abs(flat * grid[j]) + np.abs(gv[j]))
        for v in flat[j == grid.size - 1]:
            warnings.warn(f"conjugate maximizer at the lambda grid boundary {grid[-1]:g} for u={v:g}",
                          BoundaryWarning)
        return (2.0 * np.exp(-np.maximum(best, 0.0))).reshape(np.shape(u))

    return TailCurve(
        kind="conjugate", fn=fn,
        params={"lambda_cap": float(grid[-1]), "lambda_grid_size": int(grid.size)},
    )


@dataclass(frozen=True)
class PowerTailSpec:
    """Power-tail transfer: single-draw exponent p gives sum exponent min(p, 2).

    The constant K is never implied by the theory here; callers must supply it.
    """

    p: float
    K: float

    def __post_init__(self):
        if self.p <= 0:
            raise ParameterError("p must be positive")
        if self.K <= 0:
            raise ParameterError("K must be positive (no default exists)")

    @property
    def q(self) -> float:
        return min(self.p, 2.0)


def power_tail_curve(spec: PowerTailSpec) -> TailCurve:
    """min(1, exp(-K u^q)) with q = min(p, 2)."""
    fn = lambda u: np.exp(-spec.K * np.asarray(u, dtype=float) ** spec.q)  # noqa: E731
    return TailCurve(kind="power-tail", fn=fn, params={"p": spec.p, "q": spec.q, "K": spec.K})


# ---------------------------------------------------------------------------
# Empirical ATF
# ---------------------------------------------------------------------------

def empirical_atf(
    fam: Family,
    x: float,
    us,
    n_set: Sequence[int],
    trials: int,
    seed,
) -> TailCurve:
    """Empirical sup over n of P(|zeta_n| > u), strict inequality as in the
    tail definition; each n gets its own child generator split from the
    root seed via SeedSequence.spawn.

    The frequencies on the grid ``us`` are made nonincreasing and capped at 1,
    and the curve reads them by the right-continuous step rule: at u it is
    the value of the largest grid point <= u, and the last one past the
    grid.  Below the grid it is 1, the only value that dominates every tail
    there.  ``empirical_half_width`` gives one binomial standard error of
    that value.
    """
    ns = sorted(set(int(n) for n in n_set))
    if not ns:
        raise ParameterError("n_set must be nonempty")
    if trials < 10_000:
        raise ParameterError(f"trials must be >= 10^4, got {trials}")
    us = np.asarray(us, dtype=float)
    if us.ndim != 1 or us.size < 1 or np.any(np.diff(us) <= 0) or np.any(us < 0):
        raise ParameterError("u grid must be 1-d, nonnegative, strictly increasing")
    rngs = spawn_rngs(seed, len(ns))
    freqs = np.zeros((len(ns), us.size))
    for row, (n, rng) in enumerate(zip(ns, rngs)):
        z = np.abs(normalized_sum_samples(fam, x, n, trials, rng))
        freqs[row] = np.mean(z[None, :] > us[:, None], axis=1)
    vals = np.minimum(1.0, np.maximum.accumulate(freqs.max(axis=0)[::-1])[::-1])  # enforce nonincreasing
    steps = np.concatenate([[1.0], vals])  # steps[i] holds from us[i - 1] on

    def fn(u):
        return steps[np.searchsorted(us, u, side="right")]

    return TailCurve(
        kind="empirical",
        fn=fn,
        params={
            "x": x,
            "n_set": ns,
            "trials": trials,
            "seed": seed,
            "rng": "pcg64",
            "splitting": "seedsequence-spawn",
        },
    )


def empirical_half_width(curve: TailCurve, u) -> np.ndarray:
    """One binomial standard error sqrt(Q (1 - Q) / trials) of an empirical curve at u."""
    q = curve.at(u)
    return np.sqrt(q * (1.0 - q) / curve.params["trials"])
