"""End-to-end convergence studies: empirical sup errors across an n grid,
bound comparison, log-log rate fitting, and deterministic report emission.

A ``Study`` holds one resolved config and builds each n-free stage of the
bound once, on first use; every CLI subcommand reads its stages from it,
and ``run`` and ``bound`` read their rows from ``Study.table``.

Per-n rows are independent of each other and are assembled in n order; all
randomness flows from the single root seed through SeedSequence children,
so identical configs produce byte-identical reports.  Wall times are kept
out of the canonical outputs (they can never be reproducible) and live in
a separate sidecar.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .errors import InsufficientDataError, ParameterError, ReportIOError
from .families import RNG_NAME, Family, bernoulli_family, poisson_family
from .functions import CATALOG_NAMES, HolderSpec, TargetFunction, builtin_catalog, trial_function
from .grids import GRID_KINDS, GridSpec
from .modulus import ModulusProfile, default_delta_grid, holder_seminorm, modulus_profile
from .operators import MAX_BERNSTEIN_N, SupError, sup_error, sup_errors
from .bounds import BoundReport, hdt_bound, stieltjes_bound
from .tails import (
    DEFAULT_LAMBDA_CAP,
    DEFAULT_LAMBDA_GRID_SIZE,
    DEFAULT_N_MAX,
    TAIL_FLOOR,
    Z_CAP,
    PowerTailSpec,
    TailCurve,
    conjugate_curve,
    empirical_atf,
    family_nu,
    poisson_curve,
    power_tail_curve,
    tail_z_max,
)

FLOAT_FMT = "%.17g"


def _key(key: str, default, help: str, accepts: tuple[str, Callable[[object], bool]]):
    """A config field with its dotted schema key, its --help line and the values it
    accepts: a (description, predicate) pair that the config checks when built."""
    return field(default=default, metadata={"key": key, "help": help, "accepts": accepts})


def _one_of(*names: str):
    return f"one of {', '.join(names)}", lambda v: v in names


def _at_least(least: int):
    return f"at least {least}", lambda v: v >= least


def _unset_or(accepts):
    must, ok = accepts
    return f"unset or {must}", lambda v: v is None or ok(v)


_FINITE = ("finite", math.isfinite)
_POSITIVE = ("positive and finite", lambda v: 0.0 < v < math.inf)
_INSIDE_UNIT = ("in (0, 1)", lambda v: 0.0 < v < 1.0)
_EXPONENT = ("in (0, 1]", lambda v: 0.0 < v <= 1.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, immutable description of one convergence study.

    Each field carries its dotted config key, help text and accepted values;
    the config schema, its defaults, its checks and the --help listing are
    derived from them.  Only rules that tie keys together are written out.
    """

    function_name: str = _key("function.name", "square", "catalog function", _one_of(*CATALOG_NAMES))
    function_x0: float = _key("function.x0", 0.5, "cusp location for power-cusp", _INSIDE_UNIT)
    function_alpha: float = _key("function.alpha", 1.0, "cusp exponent for power-cusp", _EXPONENT)
    function_c: float = _key("function.c", 1.0, "value of the constant function", _FINITE)
    function_freq: float = _key("function.freq", 1.0, "frequency of the sine function", _POSITIVE)
    family_kind: str = _key("family.kind", "bernoulli", "operator family", _one_of("bernoulli", "poisson"))
    family_eps: float = _key("family.eps", 1e-3, "bernoulli x-domain trim: x in [eps, 1-eps]",
                             ("in (0, 0.5) with 1 - eps < 1", lambda v: 0.0 < v < 0.5 and 1.0 - v < 1.0))
    family_x_min: float = _key("family.x_min", 1.0, "poisson x-domain lower endpoint", _POSITIVE)
    family_x_max: float = _key(
        "family.x_max", 64.0, "poisson x-domain and modulus x window upper endpoint, above family.x_min",
        _POSITIVE)
    x_grid_kind: str = _key("grids.x_kind", "uniform", "x grid type", _one_of(*GRID_KINDS))
    # sup_errors needs 33 x points and holder_seminorm 8 nonzero deltas
    x_grid_size: int = _key("grids.x_size", 257, "x grid size for the sup over x and the modulus", _at_least(33))
    h_grid_size: int = _key(
        "grids.h_size", 65, "modulus h grid size (includes 0 and +-delta)",
        ("at least 5 and 1 more than a multiple of 4", lambda v: v >= 5 and v % 4 == 1))
    delta_grid_size: int = _key("grids.delta_size", 49, "modulus delta grid size", _at_least(9))
    z_grid_size: int = _key("grids.z_size", 257, "z grid size for the Stieltjes enclosure", _at_least(2))
    tail_source: str = _key(
        "tail.source", "exact-conjugate", "tail curve", _one_of("exact-conjugate", "power-tail", "empirical"))
    tail_p: Optional[float] = _key("tail.p", None, "power-tail single-draw exponent p", _unset_or(_POSITIVE))
    tail_k: Optional[float] = _key(
        "tail.k", None, "power-tail constant K (required; no default exists)", _unset_or(_POSITIVE))
    tail_n_max: int = _key(
        "tail.n_max", DEFAULT_N_MAX, "n scanned exactly; every larger n is covered by a certified bound",
        _at_least(2**8))
    tail_lambda_cap: float = _key(
        "tail.lambda_cap", DEFAULT_LAMBDA_CAP, "conjugation lambda cap (auto-doubles up to 5 times)", _POSITIVE)
    tail_lambda_size: int = _key(
        "tail.lambda_size", DEFAULT_LAMBDA_GRID_SIZE,
        "conjugation lambda grid size: the number of supporting lines", _at_least(3))
    # Q <= 1, so a floor of 1 or more cuts the curve at z = 0
    tail_floor: float = _key("tail.floor", TAIL_FLOOR, "tail value treated as zero beyond z-max", _INSIDE_UNIT)
    tail_z_cap: float = _key("tail.z_cap", Z_CAP, "hard cap on z-max", _POSITIVE)
    tail_trials: int = _key("tail.trials", 100_000, "trials per n for the empirical tail", _at_least(10_000))
    tail_x: Optional[float] = _key(
        "tail.x", None, "parameter x for the empirical tail, in the family's x-domain "
        "(default: family midpoint rule)", _unset_or(_FINITE))
    trial_x0: Optional[float] = _key(
        "trial.x0", None, "trial cusp location (enables the lower-ratio column; bernoulli only)",
        _unset_or(_INSIDE_UNIT))
    trial_alpha: Optional[float] = _key(
        "trial.alpha", None, "trial cusp exponent, set with trial.x0", _unset_or(_EXPONENT))
    n_grid: tuple[int, ...] = _key(
        "run.n_grid", (16, 64, 256, 1024, 4096), "n values",
        (f"a strictly increasing list of integers in [1, {MAX_BERNSTEIN_N}]",
         lambda ns: len(ns) > 0 and 1 <= ns[0] and ns[-1] <= MAX_BERNSTEIN_N
         and all(a < b for a, b in zip(ns, ns[1:]))))
    seed: int = _key("run.seed", 20240809, "root seed (pcg64; children via seedsequence-spawn)", _at_least(0))
    mode: str = _key("run.mode", "exact", "operator path", _one_of("exact", "monte-carlo"))
    szasz_tail_tol: float = _key(
        "run.szasz_tail_tol", 1e-12, "certified truncation tolerance of the Bernstein window of either family",
        ("in (0, 1e-6]", lambda v: 0.0 < v <= 1e-6))
    mc_trials: int = _key("run.mc_trials", 10_000, "trials per grid point in monte-carlo mode", _at_least(100))

    def __post_init__(self):
        for f in fields(self):
            must, ok = f.metadata["accepts"]
            value = getattr(self, f.name)
            if not ok(value):
                raise ParameterError(f"{f.metadata['key']} must be {must}, got {value!r}")
        if not self.family_x_min < self.family_x_max:
            raise ParameterError(f"family.x_min must be below family.x_max, got {self.family_x_min!r}, "
                                 f"{self.family_x_max!r}")
        if self.tail_source == "power-tail" and (self.tail_p is None or self.tail_k is None):
            raise ParameterError("tail.source=power-tail needs both tail.p and tail.k (no default K exists)")
        if (self.trial_x0 is None) != (self.trial_alpha is None):
            raise ParameterError("trial.x0 and trial.alpha must be set together")
        if self.trial_x0 is not None and self.family_kind != "bernoulli":
            # a window's certified radius tail_tol * sup|g| needs sup|g|, unbounded on [0, inf)
            raise ParameterError("trial.x0/trial.alpha need family.kind=bernoulli: "
                                 "the trial cusp has no bounded sup on [0, inf)")
        lo, hi = build_family(self).x_domain
        iv = build_function(self).interval
        if not (iv.a <= lo and hi <= iv.b):
            # the report would be about f clamped to its interval, not about f
            raise ParameterError(f"function.name={self.function_name} lives on [{iv.a}, {iv.b}], which does not "
                                 f"hold the family.kind={self.family_kind} x-domain [{lo}, {hi}]")
        if self.tail_x is not None and not lo <= self.tail_x <= hi:
            raise ParameterError(f"tail.x must lie in the {self.family_kind} x-domain [{lo}, {hi}], "
                                 f"got {self.tail_x!r}")


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    empirical_delta: float
    argmax_x: float
    error_radius: float
    lower_bracket: float
    upper_stieltjes: float
    upper_bracket: float
    lower_ratio: Optional[float] = None


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    stderr: float


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple[ConvergenceRow, ...]
    config: dict
    seed: int
    rng: str = RNG_NAME
    version: str = __version__
    fit: Optional[RateFit] = None
    wall_times: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self):
        ns = [r.n for r in self.rows]
        if ns != sorted(ns):
            raise ParameterError("rows must be sorted by n")


@dataclass(frozen=True)
class ValiditySummary:
    passed: bool
    violations: tuple[dict, ...]


def build_function(cfg: ExperimentConfig) -> TargetFunction:
    name = cfg.function_name
    if name == "power-cusp":
        return builtin_catalog(name, x0=cfg.function_x0, alpha=cfg.function_alpha)
    if name == "constant":
        return builtin_catalog(name, c=cfg.function_c)
    if name == "sine":
        return builtin_catalog(name, freq=cfg.function_freq)
    return builtin_catalog(name)


def build_family(cfg: ExperimentConfig) -> Family:
    if cfg.family_kind == "bernoulli":
        return bernoulli_family(cfg.family_eps)
    return poisson_family(cfg.family_x_min, cfg.family_x_max)


def build_weight(cfg: ExperimentConfig, fam: Family) -> Callable[[np.ndarray], np.ndarray]:
    """The modulus step weight: the family's own sigma, the only one that gives a bound."""
    return fam.sigma


def build_tail_curve(cfg: ExperimentConfig, fam: Family) -> TailCurve:
    """Tail curve per configured source.

    The default exact-conjugate source takes the closed Poisson conjugate at
    the x-domain's lower end, the worst x, for the Poisson family and the
    envelope conjugate built from the exact log-MGF on the restricted
    x-domain for Bernoulli.
    """
    if cfg.tail_source == "power-tail":
        return power_tail_curve(PowerTailSpec(p=cfg.tail_p, K=cfg.tail_k))
    if cfg.tail_source == "empirical":
        x = cfg.tail_x
        if x is None:
            x = 0.5 if fam.kind == "bernoulli" else fam.x_domain[0]
        us = np.linspace(0.0, 16.0, 129)
        return empirical_atf(fam, x, us, list(cfg.n_grid), cfg.tail_trials, seed=cfg.seed)
    if fam.kind == "poisson":
        return poisson_curve(fam.x_domain[0])
    nu = family_nu(fam, n_max=cfg.tail_n_max, lambda_cap=cfg.tail_lambda_cap)
    # the frozen lambda grid is wide enough that u = z_cap / 4 peaks inside it
    return conjugate_curve(nu, cfg.tail_z_cap / 4.0, lambda_cap=cfg.tail_lambda_cap,
                           grid_size=cfg.tail_lambda_size)


def build_modulus_profile(
    cfg: ExperimentConfig, f: TargetFunction, sigma: Callable[[np.ndarray], np.ndarray], *, delta_max: float,
) -> ModulusProfile:
    """Profile on the config's grids, deltas up to delta_max, x over the family's
    interval cut at its x-domain's end: the x the bound is applied at."""
    fam = build_family(cfg)
    window = (fam.interval.a, fam.interval.b if fam.interval.finite else fam.x_domain[1])
    xs = GridSpec("uniform", cfg.x_grid_size).points(*window)
    deltas = default_delta_grid(cfg.delta_grid_size, delta_max)
    return modulus_profile(f, sigma, deltas, xs, cfg.h_grid_size)


class Study:
    """One resolved convergence study, built stage by stage on first use.

    Of the chain Delta_n[f] <= integral omega(z/sqrt(n)) |dQ(z)| only the
    operator sweep and the z/sqrt(n) rescaling depend on n.  Every other
    stage (tail curve, z_max, z grid, modulus profile,
    Holder seminorm and constant, trial cusp) is a cached attribute, so each
    is computed at most once and only if the caller reads it.  The per-n
    methods compute afresh on every call; each subcommand reads each n once.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg

    @cached_property
    def f(self) -> TargetFunction:
        return build_function(self.cfg)

    @cached_property
    def fam(self) -> Family:
        return build_family(self.cfg)

    @cached_property
    def x_grid(self) -> np.ndarray:
        return GridSpec(self.cfg.x_grid_kind, self.cfg.x_grid_size).points(*self.fam.x_domain)

    @cached_property
    def curve(self) -> TailCurve:
        return build_tail_curve(self.cfg, self.fam)

    @cached_property
    def z_max(self) -> float:
        return tail_z_max(self.curve, floor=self.cfg.tail_floor, cap=self.cfg.tail_z_cap)

    @cached_property
    def z_grid(self) -> np.ndarray:
        return np.linspace(0.0, max(self.z_max, 1e-6), self.cfg.z_grid_size)

    @cached_property
    def profile(self) -> ModulusProfile:
        """Modulus profile out to the largest delta a row needs, z_max/sqrt(min n)."""
        delta_max = self.z_max / math.sqrt(min(self.cfg.n_grid))
        return build_modulus_profile(self.cfg, self.f, self.fam.sigma, delta_max=delta_max)

    @cached_property
    def holder(self) -> HolderSpec:
        """H = sup omega(delta)/delta^alpha on ``profile``, at the catalog function's own alpha."""
        return holder_seminorm(self.f, self.fam.sigma, self.f.holder.alpha, self.profile)

    @cached_property
    def hdt_constant(self) -> float:
        """alpha * integral z^{alpha-1} Q(z) dz, the n-free factor of the closed form."""
        return hdt_bound(self.holder, self.curve, 1, z_max=self.z_max).constant

    @cached_property
    def trial(self) -> Optional[TargetFunction]:
        """The trial cusp behind ``lower_ratio``; None unless trial.x0/alpha are set."""
        cfg = self.cfg
        if cfg.trial_alpha is None:
            return None
        return trial_function(cfg.trial_x0, cfg.trial_alpha, self.fam.interval)

    def sup_error(self, n: int) -> SupError:
        cfg = self.cfg
        return sup_error(self.f, self.fam, n, self.x_grid, mode=cfg.mode, tail_tol=cfg.szasz_tail_tol,
                         trials=cfg.mc_trials, seed=cfg.seed)

    def stieltjes(self, n: int) -> BoundReport:
        return stieltjes_bound(self.profile, self.curve, n, z_grid=self.z_grid, f_sup=self.f.sup_abs)

    def closed_form(self, n: int) -> float:
        """Holder closed form H n^{-alpha/2} * constant."""
        h = self.holder
        return h.seminorm * n ** (-h.alpha / 2.0) * self.hdt_constant

    def row(self, n: int, trial: bool) -> ConvergenceRow:
        """Sup error and Stieltjes bracket at n, and with ``trial`` the trial ratio.

        The ratio is Delta_n[g] n^{alpha/2} / H for the trial cusp g, None
        without one.  In exact mode f and g share one sweep, so each x builds
        one weight array; in Monte Carlo mode g still takes the exact path.
        """
        cfg, g = self.cfg, self.trial if trial else None
        if g is not None and cfg.mode == "exact":
            se, tse = sup_errors((self.f, g), self.fam, n, self.x_grid, tail_tol=cfg.szasz_tail_tol)
        else:
            se = self.sup_error(n)
            if g is not None:
                (tse,) = sup_errors((g,), self.fam, n, self.x_grid, tail_tol=cfg.szasz_tail_tol)
        rep = self.stieltjes(n)
        return ConvergenceRow(
            n=n, empirical_delta=se.delta, argmax_x=se.argmax_x, error_radius=se.error_radius,
            lower_bracket=rep.enclosure[0], upper_stieltjes=rep.upper_stieltjes,
            upper_bracket=rep.enclosure[1],
            lower_ratio=None if g is None
            else tse.delta * n ** (g.holder.alpha / 2.0) / g.holder.seminorm,
        )

    def table(self, trial: bool) -> ConvergenceTable:
        """``row(n, trial)`` for every n of the grid, with its wall time, and the rate fit."""
        # n-free stages first, so that each row's wall time is its own work
        _ = self.z_grid, self.profile, self.trial
        rows, times = [], []
        for n in self.cfg.n_grid:
            t0 = time.perf_counter()
            rows.append(self.row(n, trial))
            times.append(time.perf_counter() - t0)
        table = ConvergenceTable(rows=tuple(rows), config=asdict(self.cfg), seed=self.cfg.seed,
                                 wall_times=tuple(times))
        try:
            return replace(table, fit=rate_fit(table))
        except InsufficientDataError:
            return table


def rate_fit(table: ConvergenceTable) -> RateFit:
    """OLS fit of log(delta) on log(n); zero-delta rows are excluded."""
    pts = [(r.n, r.empirical_delta) for r in table.rows if r.empirical_delta > 0.0]
    if len(pts) < 4:
        raise InsufficientDataError(
            f"rate fit needs at least 4 rows with positive delta, have {len(pts)}"
        )
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    m = x.size
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    s2 = float(np.sum(resid**2) / (m - 2))
    return RateFit(slope=slope, intercept=intercept, stderr=math.sqrt(s2 / sxx))


def validity_check(table: ConvergenceTable) -> ValiditySummary:
    """Row-wise check empirical <= upper bracket + operator radius.

    Violations are returned as data with their row context, never raised.
    """
    violations = []
    for r in table.rows:
        allowance = r.upper_bracket + r.error_radius
        if r.empirical_delta > allowance:
            violations.append(
                {
                    "n": r.n,
                    "empirical_delta": r.empirical_delta,
                    "upper_bracket": r.upper_bracket,
                    "error_radius": r.error_radius,
                    "excess": r.empirical_delta - allowance,
                }
            )
    return ValiditySummary(passed=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Serialization: bit-stable CSV / JSON
# ---------------------------------------------------------------------------

CSV_COLUMNS = tuple(f.name for f in fields(ConvergenceRow))


def _fmt(value) -> str:
    """One CSV cell: empty for None, integers as digits, floats to 17 digits."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT % float(value)


def _write_text(path, data: str) -> None:
    try:
        Path(path).write_text(data, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ReportIOError(f"cannot write report to {path}: {exc}") from exc


def write_csv(path, header, rows) -> None:
    """Bit-stable CSV (UTF-8, LF): a header line, then each row's cells through ``_fmt``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    _write_text(path, buf.getvalue())


def _finite_or_null(obj):
    """obj with every non-finite float in it replaced by None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json(path, payload: dict) -> None:
    """Bit-stable JSON (UTF-8, LF, sorted keys, two-space indent); a non-finite float,
    which JSON cannot hold, is written as null."""
    _write_text(path, json.dumps(_finite_or_null(payload), sort_keys=True, indent=2, allow_nan=False) + "\n")


def write_report(table: ConvergenceTable, fmt: str, destination) -> None:
    """Emit a run's table as bit-stable CSV or JSON."""
    if fmt == "csv":
        write_csv(destination, CSV_COLUMNS, [astuple(r) for r in table.rows])
    elif fmt == "json":
        write_json(destination, {
            "config": table.config,
            "seed": table.seed,
            "rng": table.rng,
            "version": table.version,
            "fit": None if table.fit is None else asdict(table.fit),
            "rows": [asdict(r) for r in table.rows],
        })
    else:
        raise ParameterError(f"unknown report format {fmt!r}")


def write_timings(table: ConvergenceTable, destination) -> None:
    """Non-canonical per-row wall times for the performance suite."""
    write_csv(destination, ["n", "wall_time_s"], [(r.n, t) for r, t in zip(table.rows, table.wall_times)])
