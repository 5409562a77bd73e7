"""Tail-function calculus: log-MGF envelopes, conjugates, and tail curves.

The chain is: phi(lambda) = max over sign and parameter of the normalized
log-MGF; nu(lambda) = sup_n n phi(lambda/sqrt(n)); nu*(u) the Young-Fenchel
conjugate; and the uniform-in-n tail bound Q(u) <= 2 exp(-nu*(u)).

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
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BoundaryWarning, ParameterError
from .families import Family, normalized_sum_samples, spawn_rngs, zeta_log_mgf
from .grids import resolve_grid

DEFAULT_LAMBDA_CAP = 50.0
DEFAULT_LAMBDA_GRID_SIZE = 1001
MAX_CAP_DOUBLINGS = 5
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
    u_max: float = Z_CAP
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

    def at(self, u):
        arr = np.asarray(u, dtype=float)
        if self.fn is not None:
            out = np.minimum(1.0, np.asarray(self.fn(arr), dtype=float))
        else:
            idx = np.searchsorted(self.u_grid, arr, side="right") - 1
            below = idx < 0
            idx = np.clip(idx, 0, self.u_grid.size - 1)
            out = np.minimum(1.0, self.values[idx])
            out = np.where(below, np.minimum(1.0, self.values[0]), out)
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

def phi_sup(fam: Family, lam, x_grid):
    """max over sign and grid parameter of ln E exp(+- lam zeta(x)).

    Even in lambda by construction and 0 at lambda = 0.  Vectorized over lam.
    """
    lo, hi = fam.x_domain
    xs = resolve_grid(x_grid, lo, hi)
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    best = np.full(lam_arr.shape, -np.inf)
    for x in xs:
        for sign in (1.0, -1.0):
            best = np.maximum(best, zeta_log_mgf(fam, float(x), sign * lam_arr))
    best = np.maximum(best, 0.0)  # lambda = 0 contributes exactly 0
    if np.isscalar(lam):
        return float(best[0])
    return best


class TabulatedPhi:
    """Dense tabulation of phi_sup with linear interpolation.

    phi is convex, so the interpolant dominates it pointwise; evaluations
    beyond the table fall back to the exact supremum.
    """

    def __init__(self, fam: Family, x_grid, t_max: float = DEFAULT_LAMBDA_CAP, size: int = 4001):
        self.fam = fam
        lo, hi = fam.x_domain
        self.x_grid = resolve_grid(x_grid, lo, hi)
        self.t_max = float(t_max)
        self.t_grid = np.concatenate([[0.0], np.geomspace(1e-6, self.t_max, size - 1)])
        self.values = phi_sup(fam, self.t_grid, self.x_grid)

    def __call__(self, t):
        arr = np.abs(np.asarray(t, dtype=float))
        out = np.interp(arr, self.t_grid, self.values)
        beyond = arr > self.t_max
        if np.any(beyond):
            out = np.where(beyond, phi_sup(self.fam, arr, self.x_grid), out)
        if np.isscalar(t):
            return float(out)
        return out


# ---------------------------------------------------------------------------
# nu(lambda) = sup_n n phi(lambda / sqrt(n))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NuValue:
    value: float
    maximizer_n: Optional[int]  # None when the n->infinity limit wins
    limit_value: float

    @property
    def limit_is_max(self) -> bool:
        return self.maximizer_n is None


def nu_envelope(phi: Callable, lam: float, n_max: int = DEFAULT_N_MAX) -> NuValue:
    """Scan n in 1..n_max and compare with the Gaussian limit lam^2 phi''(0)/2.

    The scan plus the analytic limit brackets the supremum for convex phi
    with quadratic behavior at the origin: scaled arguments beyond the scan
    sit between the last scanned point and the limit.
    """
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


def make_nu(phi: Callable, n_max: int = DEFAULT_N_MAX) -> Callable:
    """Vectorized nu(lambda) closure over the scan-plus-limit rule."""
    if n_max < 2**10:
        raise ParameterError(f"n_max must be at least 2^10, got {n_max}")
    ns = np.arange(1, n_max + 1, dtype=float)
    inv_sqrt = 1.0 / np.sqrt(ns)
    h = 1e-4
    curvature = 2.0 * float(phi(h)) / (h * h)

    def nu(lam):
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
        args = np.abs(lam_arr)[None, :] * inv_sqrt[:, None]
        vals = ns[:, None] * np.asarray(phi(args), dtype=float)
        best = np.max(vals, axis=0)
        best = np.maximum(best, 0.5 * lam_arr * lam_arr * curvature)
        if np.isscalar(lam):
            return float(best[0])
        return best

    return nu


# ---------------------------------------------------------------------------
# Young-Fenchel conjugation
# ---------------------------------------------------------------------------

def _conjugate_on_grid(g_values: np.ndarray, grid: np.ndarray, u: float) -> tuple[float, int]:
    h = grid * u - g_values
    i = int(np.argmax(h))
    return float(h[i]), i


def _golden_refine(g: Callable, u: float, lo: float, hi: float) -> float:
    from scipy.optimize import minimize_scalar  # deferred: a slow import most CLI calls never need

    res = minimize_scalar(
        lambda lam: -(lam * u - float(g(lam))),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(-res.fun)


def fenchel_conjugate(
    g: Callable,
    u: float,
    lambda_grid=None,
    lambda_cap: float = DEFAULT_LAMBDA_CAP,
    grid_size: int = DEFAULT_LAMBDA_GRID_SIZE,
) -> float:
    """sup over lambda >= 0 of (lambda u - g(lambda)) for convex g, g(0) = 0.

    Grid maximum refined by bounded golden-section search around the grid
    maximizer.  With the default cap the search range doubles (up to 5
    times) whenever the maximizer lands on the boundary; an explicitly
    supplied grid only warns.
    """
    if u < 0:
        raise ParameterError(f"u must be nonnegative, got {u}")
    g0 = float(g(0.0))
    if abs(g0) > 1e-9:
        raise ParameterError(f"g(0) must be 0, got {g0}")
    if lambda_grid is not None:
        grid = np.asarray(lambda_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 3 or grid[0] != 0.0:
            raise ParameterError("lambda grid must be 1-d, start at 0, size >= 3")
        gv = np.asarray(g(grid), dtype=float)
        best, i = _conjugate_on_grid(gv, grid, u)
        if i == grid.size - 1:
            warnings.warn(
                f"conjugate maximizer at the grid boundary lambda={grid[-1]:g} for u={u:g}",
                BoundaryWarning,
            )
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, grid.size - 1)]
        return max(0.0, best, _golden_refine(g, u, lo, hi))

    cap = lambda_cap
    for attempt in range(MAX_CAP_DOUBLINGS + 1):
        grid = np.linspace(0.0, cap, grid_size)
        gv = np.asarray(g(grid), dtype=float)
        best, i = _conjugate_on_grid(gv, grid, u)
        if i < grid.size - 1:
            break
        if attempt == MAX_CAP_DOUBLINGS:
            warnings.warn(
                f"conjugate maximizer still at lambda cap {cap:g} for u={u:g}",
                BoundaryWarning,
            )
            break
        cap *= 2.0
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    return max(0.0, best, _golden_refine(g, u, lo, hi))


def poisson_conjugate(u) -> float:
    """Conjugate of e^z - 1 - z: (1+u) ln(1+u) - u, the Poisson tail exponent."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0):
        raise ParameterError("u must be nonnegative")
    out = (1.0 + arr) * np.log1p(arr) - arr
    if np.isscalar(u):
        return float(out)
    return out


POISSON_PHI = lambda z: np.expm1(np.asarray(z, dtype=float)) - np.asarray(z, dtype=float)  # noqa: E731


@dataclass(frozen=True)
class ConjugatePair:
    """nu together with its conjugate tabulated on a u grid.

    The lambda cap recorded here is the one that survived construction-time
    extension; ``nu_star_at`` reuses it and only warns if a later query
    still maximizes on the boundary.
    """

    nu: Callable
    lambda_0: float
    lambda_cap: float
    lambda_grid: np.ndarray
    nu_grid_values: np.ndarray
    u_grid: np.ndarray
    nu_star_values: np.ndarray

    def nu_star_at(self, u: float) -> float:
        if u < 0:
            raise ParameterError(f"u must be nonnegative, got {u}")
        best, i = _conjugate_on_grid(self.nu_grid_values, self.lambda_grid, u)
        if i == self.lambda_grid.size - 1:
            warnings.warn(
                f"conjugate maximizer at lambda cap {self.lambda_cap:g} for u={u:g}",
                BoundaryWarning,
            )
        lo = self.lambda_grid[max(i - 1, 0)]
        hi = self.lambda_grid[min(i + 1, self.lambda_grid.size - 1)]
        return max(0.0, best, _golden_refine(self.nu, u, lo, hi))


def make_conjugate_pair(
    nu: Callable,
    u_grid,
    lambda_cap: float = DEFAULT_LAMBDA_CAP,
    grid_size: int = DEFAULT_LAMBDA_GRID_SIZE,
    lambda_0: float = math.inf,
) -> ConjugatePair:
    """Tabulate nu and nu* and freeze a cap large enough for the whole u grid."""
    us = np.asarray(u_grid, dtype=float)
    if us.ndim != 1 or us.size < 2 or np.any(us < 0) or np.any(np.diff(us) <= 0):
        raise ParameterError("u grid must be 1-d, nonnegative, strictly increasing")
    cap = lambda_cap
    for _ in range(MAX_CAP_DOUBLINGS + 1):
        grid = np.linspace(0.0, cap, grid_size)
        gv = np.asarray(nu(grid), dtype=float)
        # the largest u pulls the maximizer farthest out
        _, i = _conjugate_on_grid(gv, grid, float(us[-1]))
        if i < grid.size - 1:
            break
        cap *= 2.0
    pair = ConjugatePair(
        nu=nu,
        lambda_0=lambda_0,
        lambda_cap=cap,
        lambda_grid=grid,
        nu_grid_values=gv,
        u_grid=us,
        nu_star_values=np.zeros_like(us),
    )
    stars = np.array([pair.nu_star_at(float(u)) for u in us])
    return ConjugatePair(
        nu=nu,
        lambda_0=lambda_0,
        lambda_cap=cap,
        lambda_grid=grid,
        nu_grid_values=gv,
        u_grid=us,
        nu_star_values=stars,
    )


def conjugate_pair_for_family(
    fam: Family,
    x_grid,
    u_grid,
    n_max: int = DEFAULT_N_MAX,
    lambda_cap: float = DEFAULT_LAMBDA_CAP,
    grid_size: int = DEFAULT_LAMBDA_GRID_SIZE,
    phi_table_size: int = 4001,
) -> ConjugatePair:
    """Family-specific pair: exact Poisson conjugate, tabulated Bernoulli phi."""
    if fam.kind == "poisson":
        # n phi_P(lam/sqrt(n)) decreases in n, so nu = phi_P exactly.
        return make_conjugate_pair(
            lambda lam: POISSON_PHI(np.abs(np.asarray(lam, dtype=float))),
            u_grid,
            lambda_cap=lambda_cap,
            grid_size=grid_size,
        )
    phi = TabulatedPhi(fam, x_grid, t_max=lambda_cap * 2**MAX_CAP_DOUBLINGS, size=phi_table_size)
    return make_conjugate_pair(
        make_nu(phi, n_max),
        u_grid,
        lambda_cap=lambda_cap,
        grid_size=grid_size,
    )


# ---------------------------------------------------------------------------
# Upper-bound curves
# ---------------------------------------------------------------------------

def atf_upper_bound(pair: ConjugatePair, u: float) -> float:
    """min(1, 2 exp(-nu*(u))), the uniform-in-n tail bound."""
    return min(1.0, 2.0 * math.exp(-pair.nu_star_at(float(u))))


def atf_curve(pair: ConjugatePair, u_max: Optional[float] = None, params: Optional[dict] = None) -> TailCurve:
    """Wrap the conjugate bound as a TailCurve evaluated on demand."""

    def fn(u):
        arr = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.array([2.0 * math.exp(-pair.nu_star_at(float(v))) for v in arr])
        if np.isscalar(u):
            return float(out[0])
        return out.reshape(np.shape(u))

    meta = {"lambda_cap": pair.lambda_cap, "lambda_grid_size": int(pair.lambda_grid.size)}
    if params:
        meta.update(params)
    curve = TailCurve(kind="conjugate", fn=fn, params=meta)
    return TailCurve(
        kind="conjugate",
        fn=fn,
        u_max=tail_z_max(curve) if u_max is None else u_max,
        params=meta,
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


def power_tail_atf(spec: PowerTailSpec, u) -> float:
    """min(1, exp(-K u^q)) with q = min(p, 2)."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0):
        raise ParameterError("u must be nonnegative")
    out = np.minimum(1.0, np.exp(-spec.K * arr**spec.q))
    if np.isscalar(u):
        return float(out)
    return out


def power_tail_curve(spec: PowerTailSpec) -> TailCurve:
    fn = lambda u: np.exp(-spec.K * np.asarray(u, dtype=float) ** spec.q)  # noqa: E731
    probe = TailCurve(kind="power-tail", fn=fn, params={"p": spec.p, "q": spec.q, "K": spec.K})
    return TailCurve(
        kind="power-tail",
        fn=fn,
        u_max=tail_z_max(probe),
        params={"p": spec.p, "q": spec.q, "K": spec.K},
    )


def gaussian_curve() -> TailCurve:
    """Subgaussian reference curve min(1, 2 exp(-u^2/2))."""
    fn = lambda u: 2.0 * np.exp(-0.5 * np.asarray(u, dtype=float) ** 2)  # noqa: E731
    probe = TailCurve(kind="subgaussian", fn=fn)
    return TailCurve(kind="subgaussian", fn=fn, u_max=tail_z_max(probe), params={})


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
        u_max=float(us[-1]),
        params={
            "x": x,
            "n_set": ns,
            "trials": trials,
            "seed": seed,
            "rng": "pcg64",
            "splitting": "seedsequence-spawn",
        },
    )
