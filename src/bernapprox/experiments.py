"""End-to-end convergence studies: empirical sup errors across an n grid,
bound comparison, log-log rate fitting, and deterministic report emission.

A ``Study`` holds one resolved config and builds each n-free stage of the
bound once, on first use; ``run_convergence`` and every CLI subcommand read
their stages from it.

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
from typing import Optional

import numpy as np

from . import __version__
from .errors import InsufficientDataError, ParameterError, ReportIOError
from .families import RNG_NAME, Family, bernoulli_family, poisson_family
from .functions import HolderSpec, TargetFunction, builtin_catalog, trial_function
from .grids import GRID_KINDS, GridSpec
from .modulus import (
    WEIGHT_KINDS, ModulusProfile, WeightSpec, default_delta_grid, holder_seminorm, modulus_profile,
)
from .operators import MAX_BERNSTEIN_N, SupError, sup_errors
from .bounds import BoundReport, hdt_bound, poisson_curve, stieltjes_bound
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
    power_tail_curve,
    tail_z_max,
)

FLOAT_FMT = "%.17g"


def _key(key: str, default, help: str):
    """A config field with its dotted schema key and its --help line."""
    return field(default=default, metadata={"key": key, "help": help})


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, immutable description of one convergence study.

    Each field carries its dotted config key and help text; the config
    schema, its defaults and the --help listing are derived from them.
    """

    function_name: str = _key(
        "function.name", "square",
        "catalog function: power-cusp, constant, identity, square, exp-decay, sine")
    function_x0: float = _key("function.x0", 0.5, "cusp location for power-cusp")
    function_alpha: float = _key("function.alpha", 1.0, "cusp exponent for power-cusp, in (0, 1]")
    function_c: float = _key("function.c", 1.0, "value of the constant function")
    function_freq: float = _key("function.freq", 1.0, "frequency of the sine function")
    family_kind: str = _key("family.kind", "bernoulli", "family: bernoulli or poisson")
    family_eps: float = _key("family.eps", 1e-3, "bernoulli x-domain trim: x in [eps, 1-eps]")
    family_x_min: float = _key("family.x_min", 1.0, "poisson x-domain lower endpoint")
    family_x_max: float = _key("family.x_max", 64.0, "poisson x-domain upper endpoint")
    weight_kind: str = _key("weight.kind", "family-sigma", "modulus weight: family-sigma, jacobi, unit")
    weight_c: float = _key("weight.c", 1.0, "jacobi weight constant")
    weight_alpha_exp: float = _key("weight.alpha_exp", 0.5, "jacobi exponent at 0")
    weight_beta_exp: float = _key("weight.beta_exp", 0.5, "jacobi exponent at 1")
    x_grid_kind: str = _key("grids.x_kind", "uniform", "x grid type: uniform or chebyshev")
    x_grid_size: int = _key("grids.x_size", 257, "x grid size for the sup over x")
    h_grid_size: int = _key("grids.h_size", 65, "modulus h grid size (odd; includes 0 and +-delta)")
    delta_grid_size: int = _key("grids.delta_size", 49, "modulus delta grid size")
    z_grid_size: int = _key("grids.z_size", 257, "z grid size for the Stieltjes enclosure")
    modulus_window: float = _key(
        "grids.modulus_window", 64.0, "x window cap for moduli on unbounded intervals")
    tail_source: str = _key(
        "tail.source", "exact-conjugate", "tail curve: exact-conjugate, power-tail, empirical")
    tail_p: Optional[float] = _key("tail.p", None, "power-tail single-draw exponent p")
    tail_k: Optional[float] = _key("tail.k", None, "power-tail constant K (required; no default exists)")
    tail_n_max: int = _key("tail.n_max", DEFAULT_N_MAX, "n scan cap for the envelope sup over n")
    tail_lambda_cap: float = _key(
        "tail.lambda_cap", DEFAULT_LAMBDA_CAP, "conjugation lambda cap (auto-doubles up to 5 times)")
    tail_lambda_size: int = _key(
        "tail.lambda_size", DEFAULT_LAMBDA_GRID_SIZE,
        "conjugation lambda grid size: the number of supporting lines")
    tail_floor: float = _key("tail.floor", TAIL_FLOOR, "tail value treated as zero beyond z-max")
    tail_z_cap: float = _key("tail.z_cap", Z_CAP, "hard cap on z-max")
    tail_trials: int = _key("tail.trials", 100_000, "trials per n for the empirical tail")
    tail_x: Optional[float] = _key(
        "tail.x", None, "parameter x for the empirical tail (default: family midpoint rule)")
    trial_x0: Optional[float] = _key("trial.x0", None, "trial cusp location (enables the lower-ratio column)")
    trial_alpha: Optional[float] = _key("trial.alpha", None, "trial cusp exponent")
    n_grid: tuple[int, ...] = _key("run.n_grid", (16, 64, 256, 1024, 4096), "strictly increasing n values")
    seed: int = _key("run.seed", 20240809, "root seed (pcg64; children via seedsequence-spawn)")
    mode: str = _key("run.mode", "exact", "operator path: exact or monte-carlo")
    szasz_tail_tol: float = _key("run.szasz_tail_tol", 1e-12, "certified Szasz truncation tolerance")
    mc_trials: int = _key("run.mc_trials", 10_000, "trials per grid point in monte-carlo mode")

    def __post_init__(self):
        if len(self.n_grid) == 0 or any(
            b <= a for a, b in zip(self.n_grid, self.n_grid[1:])
        ) or min(self.n_grid) < 1:
            raise ParameterError("n grid must be a strictly increasing positive sequence")
        if max(self.n_grid) > MAX_BERNSTEIN_N:
            raise ParameterError(f"run.n_grid values must be at most {MAX_BERNSTEIN_N}, "
                                 f"got {max(self.n_grid)}")
        if not (0.0 < self.szasz_tail_tol <= 1e-6):
            raise ParameterError(f"run.szasz_tail_tol must be in (0, 1e-6], got {self.szasz_tail_tol}")
        if self.tail_source not in ("exact-conjugate", "power-tail", "empirical"):
            raise ParameterError(f"unknown tail source {self.tail_source!r}")
        if self.tail_source == "power-tail" and (self.tail_p is None or self.tail_k is None):
            raise ParameterError("power-tail source needs both tail.p and tail.k (no default K exists)")
        for key, value in (("tail.z_cap", self.tail_z_cap), ("tail.lambda_cap", self.tail_lambda_cap)):
            if not (0.0 < value < math.inf):
                raise ParameterError(f"{key} must be positive and finite, got {value}")
        if not (0.0 < self.tail_floor < 1.0):
            # Q <= 1, so a floor of 1 or more cuts the curve at z = 0
            raise ParameterError(f"tail.floor must be in (0, 1), got {self.tail_floor}")
        for key, value, least in (
            ("tail.lambda_size", self.tail_lambda_size, 3), ("tail.n_max", self.tail_n_max, 2**10),
            ("grids.delta_size", self.delta_grid_size, 2), ("grids.z_size", self.z_grid_size, 2),
        ):
            if value < least:
                raise ParameterError(f"{key} must be at least {least}, got {value}")
        if self.h_grid_size < 3 or self.h_grid_size % 2 == 0:
            raise ParameterError(f"grids.h_size must be odd and at least 3, got {self.h_grid_size}")
        if self.mode not in ("exact", "monte-carlo"):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if (self.trial_x0 is None) != (self.trial_alpha is None):
            raise ParameterError("trial.x0 and trial.alpha must be set together")
        if self.trial_x0 is not None and self.family_kind == "poisson":
            # the Szasz window's certified radius needs sup|g|, unbounded on [0, inf)
            raise ParameterError("trial.x0/trial.alpha need family.kind=bernoulli: "
                                 "the trial cusp has no bounded sup on [0, inf)")
        if self.weight_kind not in WEIGHT_KINDS:
            raise ParameterError(f"unknown weight kind {self.weight_kind!r} for weight.kind; "
                                 f"expected one of {', '.join(WEIGHT_KINDS)}")
        if self.x_grid_kind not in GRID_KINDS:
            raise ParameterError(f"unknown grid kind {self.x_grid_kind!r} for grids.x_kind; "
                                 f"expected one of {', '.join(GRID_KINDS)}")


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
    checked_rows: int
    warning: Optional[str] = None


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
    if cfg.family_kind == "poisson":
        return poisson_family(cfg.family_x_min, cfg.family_x_max)
    raise ParameterError(f"unknown family kind {cfg.family_kind!r}")


def build_weight(cfg: ExperimentConfig, fam: Family) -> WeightSpec:
    return WeightSpec(kind=cfg.weight_kind, family=fam, c=cfg.weight_c,
                      alpha_exp=cfg.weight_alpha_exp, beta_exp=cfg.weight_beta_exp)


def build_tail_curve(cfg: ExperimentConfig, fam: Family) -> TailCurve:
    """Tail curve per configured source.

    The default exact-conjugate source takes the closed Poisson conjugate
    for the Poisson family and the envelope conjugate built from the exact
    log-MGF on the restricted x-domain for Bernoulli.
    """
    if cfg.tail_source == "power-tail":
        return power_tail_curve(PowerTailSpec(p=cfg.tail_p, K=cfg.tail_k))
    if cfg.tail_source == "empirical":
        x = cfg.tail_x
        if x is None:
            x = 0.5 if fam.kind == "bernoulli" else fam.x_domain[0]
        u_grid = np.linspace(0.0, 16.0, 129)
        return empirical_atf(fam, x, u_grid, list(cfg.n_grid), cfg.tail_trials, seed=cfg.seed)
    if fam.kind == "poisson":
        return poisson_curve()
    nu = family_nu(fam, n_max=cfg.tail_n_max, lambda_cap=cfg.tail_lambda_cap)
    # the frozen lambda grid is wide enough that u = z_cap / 4 peaks inside it
    return conjugate_curve(nu, cfg.tail_z_cap / 4.0, lambda_cap=cfg.tail_lambda_cap,
                           grid_size=cfg.tail_lambda_size)


def build_modulus_profile(
    cfg: ExperimentConfig, f: TargetFunction, w: WeightSpec, delta_max: Optional[float] = None
) -> ModulusProfile:
    """Profile on the config's grids, deltas up to delta_max (the whole interval by default)."""
    window = (f.interval.a, f.interval.b if f.interval.finite else cfg.modulus_window)
    xs = GridSpec("uniform", cfg.x_grid_size).points(*window)
    deltas = default_delta_grid(f.interval, cfg.delta_grid_size, delta_max)
    return modulus_profile(f, w, deltas, xs, cfg.h_grid_size, metadata={"window": window})


class Study:
    """One resolved convergence study, built stage by stage on first use.

    Of the chain Delta_n[f] <= integral omega(z/sqrt(n)) |dQ(z)| only the
    operator sweep and the z/sqrt(n) rescaling depend on n.  Every other
    stage (tail curve, z_max, z grid, Q on the z grid, modulus profiles,
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
    def w(self) -> WeightSpec:
        return build_weight(self.cfg, self.fam)

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
    def q_on_z(self) -> TailCurve:
        """Q tabulated on exactly the z grid.

        Read at its own nodes a tabulated curve returns the stored values, so
        the Stieltjes sums of every n see the curve's values bit for bit
        without evaluating it again.
        """
        c = self.curve
        return TailCurve(
            kind=c.kind, u_grid=self.z_grid, values=np.asarray(c.at(self.z_grid), dtype=float),
            params=c.params,
        )

    @cached_property
    def profile(self) -> ModulusProfile:
        """Modulus profile out to the largest delta a row needs, z_max/sqrt(min n)."""
        delta_max = self.z_max / math.sqrt(min(self.cfg.n_grid))
        return build_modulus_profile(self.cfg, self.f, self.w, delta_max=delta_max)

    @cached_property
    def interval_profile(self) -> ModulusProfile:
        """Modulus profile over the whole interval, as ``modulus`` reports it."""
        return build_modulus_profile(self.cfg, self.f, self.w)

    @cached_property
    def holder(self) -> Optional[HolderSpec]:
        if self.f.holder is None:
            return None
        return holder_seminorm(self.f, self.w, self.f.holder.alpha, self.profile)

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
        return sup_errors(
            (self.f,), self.fam, n, self.x_grid,
            mode=cfg.mode, tail_tol=cfg.szasz_tail_tol, trials=cfg.mc_trials, seed=cfg.seed,
        )[0]

    def stieltjes(self, n: int) -> BoundReport:
        return stieltjes_bound(self.profile, self.q_on_z, n, z_grid=self.z_grid, f_sup=self.f.sup_abs)

    def closed_form(self, n: int) -> Optional[float]:
        """Holder closed form H n^{-alpha/2} * constant; None without Holder data."""
        h = self.holder
        if h is None:
            return None
        return h.seminorm * n ** (-h.alpha / 2.0) * self.hdt_constant

    def row(self, n: int, trial: bool = False) -> ConvergenceRow:
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


def run_convergence(cfg: ExperimentConfig) -> ConvergenceTable:
    """Per-n rows of one study with their trial ratios, and the rate fit."""
    study = Study(cfg)
    # n-free stages first, so that each row's wall time is its own work
    _ = study.q_on_z, study.profile, study.trial
    rows, times = [], []
    for n in cfg.n_grid:
        t0 = time.perf_counter()
        rows.append(study.row(n, trial=True))
        times.append(time.perf_counter() - t0)

    table = ConvergenceTable(rows=tuple(rows), config=asdict(cfg), seed=cfg.seed, wall_times=tuple(times))
    try:
        fit = rate_fit(table)
    except InsufficientDataError:
        fit = None
    return replace(table, fit=fit)


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
    if not table.rows:
        return ValiditySummary(
            passed=True, violations=(), checked_rows=0, warning="empty table: vacuous pass"
        )
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
    return ValiditySummary(
        passed=not violations, violations=tuple(violations), checked_rows=len(table.rows)
    )


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


def write_json(path, payload: dict) -> None:
    """Bit-stable JSON (UTF-8, LF, sorted keys, two-space indent)."""
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


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
