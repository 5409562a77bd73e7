"""Tail-function calculus: log-MGF envelopes, conjugates, and tail curves.

The Bernoulli chain is: phi(lambda) = max over sign and parameter x of the
normalized log-MGF, attained at the two ends of the x-domain (so no x grid;
proof in phi_sup) and tabulated up to the largest lambda the conjugation can
reach; nu(lambda) = sup_n n phi(lambda/sqrt(n)); nu*(u) the Young-Fenchel
conjugate; and the uniform-in-n tail bound Q(u) <= min(1, 2 exp(-nu*(u))).
The sup over n is an exact scan of n <= ``tail.n_max`` and, for every
larger n, a bound from phi's chords and Bennett's inequality (``make_nu``).
The Poisson conjugate is a closed form (``poisson_curve``).  Every function
of the chain, and every curve read ``TailCurve.at``, takes an array.

``exact_law_curve`` is not a bound but the law itself at one x: the exact
sup over a set of n of P(|zeta_n(x)| > u), from the operator sweep's own
weights, plus the mass their windows drop.  It holds for that x and those
n only, not over the x-domain.

Conjugation is a discrete Legendre transform over supporting lines.  nu is
evaluated once, on lambda = 0 plus ``tail.lambda_size - 1`` geometric points
up to the cap ``lambda_cap(u_hint)``, past which no line beats the one at 0
for a u up to u_hint, since every nu here is at least lambda^2/2; each point
lambda_j gives the line lambda_j u - nu(lambda_j), and nu*(u) is bounded
below by the largest line at u, rounded down by a few ulp.  Nothing is
refined: a read of the curve is one binary search over the lines'
breakpoints and calls nu zero times.  A read with a u past the last
breakpoint and a Q above 0.0 warns once, with one message per curve.
Against the exact conjugate the curve dominates everywhere and, at the
default grid sizes, is at most about 2% looser where Q > 1e-12.  The point beyond which Q is
negligible comes only from ``tail_z_max``.

Numerical conjugation only ever evaluates feasible lambdas, so it can only
under-estimate nu*; the resulting curve therefore still dominates the true
tail, which is the direction every bound here needs.  Likewise the linear
interpolation used for tabulated phi over-estimates a convex function, which
again errs on the dominating side.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import BoundaryWarning, ParameterError
from .families import Family, bernstein_window, frames, poisson_conjugate, zeta_bound, zeta_log_mgf
from .functions import Checked
from .operators import MAX_BERNSTEIN_N

DEFAULT_LAMBDA_CAP = 50.0  # the least lambda cap, whatever the u_hint
DEFAULT_LAMBDA_GRID_SIZE = 1001
PHI_TABLE_END = 1600.0  # the least end of family_nu's phi table
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

class _TailCurve(NamedTuple):
    kind: str
    fn: Callable
    params: dict


class TailCurve(Checked, _TailCurve):
    """Nonincreasing curve u -> Q(u) with Q(0) <= 1, read through ``fn``.

    ``at`` caps ``fn`` at 1 over an array of u, and refuses a u that is
    negative, NaN or infinite, so no ``fn`` sees one.  Each builder owns its
    curve's form: the Poisson closed form and the Bernoulli conjugate's
    supporting lines, the two bounds over every n and the x-domain that a
    study reads, or the step rule of the exact law at one x, which is the
    sup over a set of n of that law plus its dropped mass and not a bound.
    """

    __slots__ = ()

    def __new__(cls, kind: str, fn: Callable, params: Optional[dict] = None):
        return super().__new__(cls, kind, fn, {} if params is None else params)

    def at(self, u) -> np.ndarray:
        arr = np.asarray(u, dtype=float)
        bad = ~((arr >= 0) & (arr < np.inf))  # NaN fails both
        if bad.any():
            raise ParameterError(f"u must be nonnegative and finite, got {arr[bad][0]}")
        return np.minimum(1.0, np.asarray(self.fn(arr), dtype=float))


def tail_z_max(curve: TailCurve, floor: float = TAIL_FLOOR, cap: float = Z_CAP) -> float:
    """Where Q drops below floor: bisects [0, cap] to a bracket of width <= 1e-6,
    one read of Q per step, and returns its end with Q(z) < floor; 0 if
    Q(0) < floor, cap if Q(cap) >= floor."""
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

def phi_sup(fam: Family, lam: np.ndarray) -> np.ndarray:
    """max over sign and x in the Bernoulli x-domain [lo, hi] of ln E exp(+- lam zeta(x)).

    Endpoint lemma: for lam > 0, phi_x(lam) = ln E exp(lam zeta(x)) is
    nonincreasing and phi_x(-lam) nondecreasing in x, so the sup is
    max(phi_lo(|lam|), phi_hi(-|lam|)) exactly; the two agree by
    phi_x(-lam) = phi_{1-x}(lam).  With r = sqrt((1-x)/x),
    (1 + r^2) M = r^2 e^{-lam/r} + e^{lam r}; dM/dr >= 0 reduces to
    e^{2s} <= (1+s)/(1-s) for s = lam (r + 1/r)/2 < 1, which is s <= artanh(s),
    and is immediate for s >= 1.  Both signs are taken at both ends, so phi
    is even in lam; 0 at lam = 0.
    """
    lam_arr = np.asarray(lam, dtype=float)
    best = np.zeros(lam_arr.shape)  # lambda = 0 contributes exactly 0
    for x in fam.x_domain:
        for sign in (1.0, -1.0):
            best = np.maximum(best, zeta_log_mgf(fam, x, sign * lam_arr))
    return best


class TabulatedPhi:
    """Dense tabulation of phi_sup on [0, t_max] with linear interpolation.

    phi is convex, so the interpolant dominates it pointwise.  A |t| beyond
    the table is refused: family_nu's table reaches the largest lambda the
    conjugation can ask for.
    """

    def __init__(self, fam: Family, t_max: float = DEFAULT_LAMBDA_CAP, size: int = 4001):
        self.fam = fam
        self.t_max = float(t_max)
        self.t_grid = np.concatenate([[0.0], np.geomspace(1e-6, self.t_max, size - 1)])
        self.values = phi_sup(fam, self.t_grid)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        arr = np.abs(np.asarray(t, dtype=float))
        if np.any(arr > self.t_max):
            raise ParameterError(f"|t| {arr.max():g} reaches past the phi table's end {self.t_max:g}")
        return np.interp(arr, self.t_grid, self.values)


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
    """nu(lambda) = sup over every n >= 1 of n phi(lambda/sqrt(n)), over a 1-d
    array of lambda: an exact scan of the table over n = 1..n_max, and the
    bound G below for every larger n.

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
        # s rounded up, as R is nondecreasing; the scan's n = 1 read has refused a lambda past the table
        s = np.maximum(lam / math.sqrt(n_max) * ROUND_UP, t[0])
        k = np.maximum(np.searchsorted(t, s) - 1, 0)
        return lam * lam * np.maximum(at_nodes[k], ratio(k, s))

    def nu(lam: np.ndarray) -> np.ndarray:
        lam_arr = np.abs(np.asarray(lam, dtype=float))
        best = np.empty(lam_arr.shape)
        for start in range(0, lam_arr.size, rows):
            block = lam_arr[start:start + rows]
            vals = ns[None, :] * phi(block[:, None] * inv_sqrt[None, :])
            best[start:start + rows] = np.max(vals, axis=1)
        return np.maximum(best, beyond_scan(lam_arr))

    return nu


def family_nu(fam: Family, n_max: int = DEFAULT_N_MAX, u_hint: float = Z_CAP / 4.0) -> Callable:
    """The Bernoulli family's nu, from a tabulated phi whose table reaches
    ``lambda_cap(u_hint)``, the largest lambda ``conjugate_curve`` reads for
    that u_hint.  The Poisson nu has a closed conjugate, so its curve is
    ``poisson_curve``."""
    if fam.kind == "poisson":
        raise ParameterError("the Poisson family's tail curve is the closed form poisson_curve(x_min)")
    return make_nu(TabulatedPhi(fam, t_max=max(PHI_TABLE_END, lambda_cap(u_hint))), n_max)


# ---------------------------------------------------------------------------
# Young-Fenchel conjugation
# ---------------------------------------------------------------------------

def lambda_cap(u_hint: float) -> float:
    """max(DEFAULT_LAMBDA_CAP, 2 u_hint).  Every nu here is at least lambda^2/2,
    the n -> infinity term of its sup for a mean-0, variance-1 zeta, so past
    lambda = 2 u_hint a line lambda u - nu(lambda) <= lambda (u_hint - lambda/2)
    is below the line at 0 for every u <= u_hint."""
    return max(DEFAULT_LAMBDA_CAP, 2.0 * u_hint)


# ---------------------------------------------------------------------------
# Upper-bound curves
# ---------------------------------------------------------------------------

def conjugate_curve(nu: Callable, u_hint: float, grid_size: int = DEFAULT_LAMBDA_GRID_SIZE) -> TailCurve:
    """min(1, 2 exp(-nu*(u))), the uniform-in-n tail bound, from supporting lines.

    nu is evaluated once, on 0 and ``grid_size - 1`` geometric lambdas from
    LAMBDA_MIN to ``lambda_cap(u_hint)``; a nu whose maximizer for u_hint
    still lands on the last line is below lambda^2/2, so it is the envelope
    of no variance-1 zeta, and is refused.  Each lambda_j gives the affine
    minorant lambda_j u - nu(lambda_j) of nu*; their maximum, less 4 ulp of
    its two terms for the rounding, is a lower bound on nu* at every u.
    A read finds the maximum by binary search over the lines' breakpoints
    (Lucet's linear-time Legendre transform, Numer. Algorithms 16, 1997) and
    keeps the line a scan over all of them keeps.  A read with a u whose
    maximum falls on the last line and whose Q is above 0.0 warns once,
    naming the cap and the last breakpoint, so every such read of one curve
    gives the same message; a Q that is 0.0 there reads no differently from
    a larger cap's.
    """
    cap = lambda_cap(u_hint)
    grid = np.concatenate([[0.0], np.geomspace(LAMBDA_MIN, cap, grid_size - 1)])
    gv = np.asarray(nu(grid), dtype=float)
    if int(np.argmax(grid * u_hint - gv)) == grid.size - 1:
        raise ParameterError(f"lambda u - nu(lambda) peaks at the lambda cap {cap:g} for u = {u_hint:g}: "
                             "nu lies below lambda^2/2, the envelope of no variance-1 zeta")
    # nu is convex, so line j + 1 overtakes line j at their secant slope and these breakpoints
    # increase; the found line or a neighbour (rounding, ties) is the first maximum of a scan.
    # Rounding can invert a few; their running max keeps the search sorted, so a read
    # depends on u alone, and any line it keeps is still a lower bound on nu*
    slopes = np.maximum.accumulate(np.diff(gv) / np.diff(grid))
    eps = np.finfo(float).eps

    def fn(u):
        flat = np.ravel(u)
        cand = np.minimum(np.maximum(np.searchsorted(slopes, flat)[:, None] + [-1, 0, 1], 0), grid.size - 1)
        lines = flat[:, None] * grid[cand] - gv[cand]
        j = cand[np.arange(flat.size), np.argmax(lines, axis=1)]
        best = lines.max(axis=1) - 4.0 * eps * (np.abs(flat * grid[j]) + np.abs(gv[j]))
        q = 2.0 * np.exp(-np.maximum(best, 0.0))
        if ((j == grid.size - 1) & (q > 0.0)).any():
            warnings.warn(f"conjugate maximizer at the lambda grid boundary {grid[-1]:g} "
                          f"for u past the last breakpoint {slopes[-1]:g}", BoundaryWarning)
        return q.reshape(np.shape(u))

    return TailCurve(
        kind="conjugate", fn=fn,
        params={"lambda_cap": float(grid[-1]), "lambda_grid_size": int(grid.size)},
    )


def poisson_curve(m: float) -> TailCurve:
    """min(1, 2 exp(-m h(u/sqrt(m)))), h(s) = (1+s) ln(1+s) - s: the exact-conjugate
    Poisson tail for the x-domain's lower end m.

    n phi_x(lam/sqrt(n)) = nx g(lam/sqrt(nx)) with g(y) = e^y - 1 - y, and
    c g(lam/sqrt(c)) = lam^2 g(y)/y^2 at y = lam/sqrt(c) decreases in c, so the
    sup over n >= 1 and x >= m is at nx = m; the lower tail's e^{-y} - 1 + y
    is at most g(y).  So nu(lam) = m g(|lam|/sqrt(m)), whose conjugate is
    m h(u/sqrt(m)).  At m = 1 the curve is 2 exp(-h(u)), bit for bit.
    """
    root = math.sqrt(m)
    fn = lambda u: 2.0 * np.exp(-m * poisson_conjugate(u / root))  # noqa: E731
    return TailCurve(kind="poisson-conjugate", fn=fn)


# ---------------------------------------------------------------------------
# The exact law at one x
# ---------------------------------------------------------------------------

def exact_law_curve(fam: Family, x: float, n_set: Sequence[int], tol: float) -> TailCurve:
    """max over n of n_set of P(|zeta_n(x)| > u), plus tol for the dropped mass:
    the exact law at one x, strict inequality as in the tail definition.

    Each n takes the weights of ``frames`` on its Bernstein window of tol,
    which drops at most tol of the mass.  Lattice point k leaves the tail at
    its breakpoint |k - nx| / (sigma(x) sqrt(n)), so the curve is a
    right-continuous step curve over the breakpoints of every n: at u it is
    the value of the largest breakpoint <= u, and below them all the largest
    window mass.  A read is one binary search.  It holds for this x and these
    n only, so it is not a bound over the x-domain or over every n.  Each n
    is an integer in [1, MAX_BERNSTEIN_N] and tol lies in (0, 1).
    """
    x = fam.check_x(x)
    ns = list(n_set)
    if not ns:
        raise ParameterError("n_set must be nonempty")
    bad = [n for n in ns if not (isinstance(n, (int, np.integer)) and 1 <= n <= MAX_BERNSTEIN_N)]
    if bad:
        raise ParameterError(f"n_set must hold integers in [1, {MAX_BERNSTEIN_N}], got {bad[0]!r}")
    ns = sorted(set(map(int, ns)))
    if not 0.0 < tol < 1.0:
        raise ParameterError(f"tol must be in (0, 1), got {tol!r}")
    xs, sig = np.array([x]), float(fam.sigma(x))
    laws = []
    for n in ns:
        lo, hi = bernstein_window(fam.kind, n, xs, tol)
        ((_, _, a, w, _, _),) = frames(fam.kind, n, xs, lo, hi, ())
        z = np.abs(np.arange(a, a + w.size) - n * x) / (sig * math.sqrt(n))
        order = np.argsort(z)
        # mass[i]: the weight of the i-th smallest breakpoint and of every larger one
        laws.append((z[order], np.append(np.cumsum(w[order][::-1])[::-1], 0.0)))
    breaks = np.unique(np.concatenate([z for z, _ in laws]))
    steps = tol + np.max([mass[np.concatenate(([0], np.searchsorted(z, breaks, side="right")))]
                          for z, mass in laws], axis=0)  # steps[i] holds from breaks[i - 1] on

    def fn(u):
        return steps[np.searchsorted(breaks, u, side="right")]

    return TailCurve(kind="exact-law", fn=fn, params={"x": x, "n_set": ns, "tol": tol})
