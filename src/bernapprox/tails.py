"""Tail-function calculus: log-MGF envelopes, conjugates, and tail curves.

The chain is: phi(lambda) = max over sign and parameter x of the normalized
log-MGF, attained at the two ends of the x-domain (so no x grid; proof in
phi_sup); nu(lambda) = sup_n n phi(lambda/sqrt(n)); nu*(u) the Young-Fenchel
conjugate; and the uniform-in-n tail bound Q(u) <= min(1, 2 exp(-nu*(u))).

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

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BoundaryWarning, ParameterError
from .families import Family, normalized_sum_samples, spawn_rngs, zeta_log_mgf

DEFAULT_LAMBDA_CAP = 50.0
DEFAULT_LAMBDA_GRID_SIZE = 1001
MAX_CAP_DOUBLINGS = 5
LAMBDA_MIN = 1e-3  # smallest positive lambda of the conjugation grid
# one n-scan temporary of make_nu: it stays in cache and malloc reuses it,
# where 512 KiB ones are mapped and page-faulted anew for every block
NU_BLOCK_BYTES = 2**17
DEFAULT_N_MAX = 4096
TAIL_FLOOR = 1e-12
Z_CAP = 64.0


# ---------------------------------------------------------------------------
# Tail curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailCurve:
    """Nonincreasing curve u -> Q(u) with Q(0) <= 1.

    Either closed-form (``fn``, already capped at 1) or tabulated on
    ``u_grid``; tabulated curves are step functions, right continuous, and
    extend with their last value.
    """

    kind: str
    fn: Optional[Callable] = None
    u_grid: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None
    half_widths: Optional[np.ndarray] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.fn is None) == (self.values is None):
            raise ParameterError("exactly one of fn / (u_grid, values) must be given")
        if self.values is not None:
            u = np.asarray(self.u_grid, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if u.shape != v.shape or u.ndim != 1 or u.size < 1:
                raise ParameterError("tabulated curve needs matching 1-d arrays")
            if np.any(np.diff(u) <= 0):
                raise ParameterError("u grid must increase strictly")
            if np.any(np.diff(v) > 1e-15):
                raise ParameterError("tail curve must be nonincreasing")
            if u[0] <= 0 and v[0] > 1.0 + 1e-15:
                raise ParameterError("tail curve value at 0 must be <= 1")

    def step(self, table: np.ndarray, u) -> np.ndarray:
        """A tabulated curve's ``values`` or ``half_widths`` at u, by the
        right-continuous step rule: the entry of the largest grid u <= u."""
        idx = np.searchsorted(self.u_grid, u, side="right") - 1
        return table[np.clip(idx, 0, self.u_grid.size - 1)]

    def at(self, u):
        arr = np.asarray(u, dtype=float)
        if self.fn is not None:
            out = np.minimum(1.0, np.asarray(self.fn(arr), dtype=float))
        else:
            out = np.minimum(1.0, self.step(self.values, arr))
        if np.isscalar(u):
            return float(out)
        return out


def tail_z_max(curve: TailCurve, floor: float = TAIL_FLOOR, cap: float = Z_CAP) -> float:
    """Smallest grid z with Q(z) < floor, capped; bisected to ~1e-6."""
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

def make_nu(phi: Callable, n_max: int = DEFAULT_N_MAX) -> Callable:
    """Vectorized nu(lambda): a scan over n in 1..n_max, or the Gaussian
    limit lam^2 phi''(0)/2 where that is larger.

    The scan plus the analytic limit brackets the supremum for convex phi
    with quadratic behavior at the origin: scaled arguments beyond the scan
    sit between the last scanned point and the limit.
    """
    if n_max < 2**10:
        raise ParameterError(f"n_max must be at least 2^10, got {n_max}")
    # n descending, so that each lambda's row of arguments lambda/sqrt(n) ascends
    ns = np.arange(n_max, 0, -1, dtype=float)
    inv_sqrt = 1.0 / np.sqrt(ns)
    h = 1e-4
    curvature = 2.0 * float(phi(h)) / (h * h)
    rows = max(1, NU_BLOCK_BYTES // (8 * n_max))

    def nu(lam):
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
        best = np.empty(lam_arr.shape)
        for start in range(0, lam_arr.size, rows):
            block = lam_arr[start:start + rows]
            vals = ns[None, :] * np.asarray(phi(np.abs(block)[:, None] * inv_sqrt[None, :]), dtype=float)
            best[start:start + rows] = np.max(vals, axis=1)
        best = np.maximum(best, 0.5 * lam_arr * lam_arr * curvature)
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
    u_grid,
    n_set: Sequence[int],
    trials: int,
    seed,
) -> TailCurve:
    """Empirical sup over n of P(|zeta_n| > u), strict inequality as in the
    tail definition; each n gets its own child generator split from the
    root seed via SeedSequence.spawn.

    Half-widths are one binomial standard error of the maximizing frequency.
    """
    ns = sorted(set(int(n) for n in n_set))
    if not ns:
        raise ParameterError("n_set must be nonempty")
    if trials < 10_000:
        raise ParameterError(f"trials must be >= 10^4, got {trials}")
    us = np.asarray(u_grid, dtype=float)
    if us.ndim != 1 or us.size < 1 or np.any(np.diff(us) <= 0) or np.any(us < 0):
        raise ParameterError("u grid must be 1-d, nonnegative, strictly increasing")
    rngs = spawn_rngs(seed, len(ns))
    freqs = np.zeros((len(ns), us.size))
    for row, (n, rng) in enumerate(zip(ns, rngs)):
        z = np.abs(normalized_sum_samples(fam, x, n, trials, rng=rng))
        freqs[row] = np.mean(z[None, :] > us[:, None], axis=1)
    best_rows = np.argmax(freqs, axis=0)
    vals = freqs[best_rows, np.arange(us.size)]
    vals = np.minimum(1.0, np.maximum.accumulate(vals[::-1])[::-1])  # enforce nonincreasing
    halfw = np.sqrt(vals * (1.0 - vals) / trials)
    return TailCurve(
        kind="empirical",
        u_grid=us,
        values=vals,
        half_widths=halfw,
        params={
            "x": x,
            "n_set": ns,
            "trials": trials,
            "seed": seed,
            "rng": "pcg64",
            "splitting": "seedsequence-spawn",
        },
    )
