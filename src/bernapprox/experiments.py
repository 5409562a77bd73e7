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
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import InsufficientDataError, ParameterError, ReportIOError
from .families import RNG_NAME, Family, bernoulli_family, poisson_family
from .functions import HolderSpec, TargetFunction, builtin_catalog, trial_function
from .grids import GridSpec
from .modulus import ModulusProfile, WeightSpec, holder_seminorm, modulus_profile
from .operators import SupError, sup_error
from .bounds import BoundReport, hdt_bound, poisson_curve, stieltjes_bound
from .tails import (
    PowerTailSpec,
    TailCurve,
    atf_curve,
    conjugate_pair_for_family,
    empirical_atf,
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
    tail_n_max: int = _key("tail.n_max", 4096, "n scan cap for the envelope sup over n")
    tail_lambda_cap: float = _key(
        "tail.lambda_cap", 50.0, "conjugation lambda cap (auto-doubles up to 5 times)")
    tail_lambda_size: int = _key("tail.lambda_size", 1001, "conjugation lambda grid size")
    tail_floor: float = _key("tail.floor", 1e-12, "tail value treated as zero beyond z-max")
    tail_z_cap: float = _key("tail.z_cap", 64.0, "hard cap on z-max")
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
        if self.tail_source not in ("exact-conjugate", "power-tail", "empirical"):
            raise ParameterError(f"unknown tail source {self.tail_source!r}")
        if self.tail_source == "power-tail" and (self.tail_p is None or self.tail_k is None):
            raise ParameterError("power-tail source needs both tail.p and tail.k (no default K exists)")
        if self.mode not in ("exact", "monte-carlo"):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if (self.trial_x0 is None) != (self.trial_alpha is None):
            raise ParameterError("trial.x0 and trial.alpha must be set together")


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
    if cfg.weight_kind == "family-sigma":
        return WeightSpec(kind="family-sigma", family=fam)
    if cfg.weight_kind == "unit":
        return WeightSpec(kind="unit")
    return WeightSpec(
        kind="jacobi", c=cfg.weight_c, alpha_exp=cfg.weight_alpha_exp, beta_exp=cfg.weight_beta_exp
    )


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
    xg = GridSpec(cfg.x_grid_kind, cfg.x_grid_size).points(*fam.x_domain)
    u_probe = np.linspace(0.0, cfg.tail_z_cap / 4.0, 65)
    pair = conjugate_pair_for_family(
        fam,
        xg,
        u_probe,
        n_max=cfg.tail_n_max,
        lambda_cap=cfg.tail_lambda_cap,
        grid_size=cfg.tail_lambda_size,
    )
    return atf_curve(pair)


def build_modulus_profile(
    cfg: ExperimentConfig, f: TargetFunction, w: WeightSpec, delta_max: float
) -> ModulusProfile:
    if f.interval.finite:
        window = (f.interval.a, f.interval.b)
    else:
        window = (f.interval.a, cfg.modulus_window)
    xs = GridSpec("uniform", cfg.x_grid_size).points(*window)
    deltas = np.concatenate([[0.0], np.geomspace(1e-4, max(delta_max, 1e-3), cfg.delta_grid_size - 1)])
    return modulus_profile(f, w, deltas, xs, cfg.h_grid_size, metadata={"window": window})


class Study:
    """One resolved convergence study, built stage by stage on first use.

    Of the chain Delta_n[f] <= integral omega(z/sqrt(n)) |dQ(z)| only the
    operator sweep and the z/sqrt(n) rescaling depend on n.  Every other
    stage (tail curve, z_max, z grid, Q on the z grid, modulus profile,
    Holder seminorm and constant) is a cached attribute, so each is computed
    at most once and only if the caller reads it.
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
            u_max=c.u_max, params=c.params,
        )

    @cached_property
    def profile(self) -> ModulusProfile:
        """Modulus profile out to the largest delta a row needs, z_max/sqrt(min n)."""
        delta_max = self.z_max / math.sqrt(min(self.cfg.n_grid))
        return build_modulus_profile(self.cfg, self.f, self.w, delta_max=delta_max)

    @cached_property
    def holder(self) -> Optional[HolderSpec]:
        if self.f.holder is None:
            return None
        return holder_seminorm(self.f, self.w, self.f.holder.alpha, self.profile)

    @cached_property
    def hdt_constant(self) -> float:
        """alpha * integral z^{alpha-1} Q(z) dz, the n-free factor of the closed form."""
        return hdt_bound(self.holder, self.curve, 1, z_max=self.z_max).constant

    def sup_error(self, n: int) -> SupError:
        cfg = self.cfg
        return sup_error(
            self.f, self.fam, n, self.x_grid,
            mode=cfg.mode, tail_tol=cfg.szasz_tail_tol, trials=cfg.mc_trials, seed=cfg.seed,
        )

    def stieltjes(self, n: int) -> BoundReport:
        return stieltjes_bound(self.profile, self.q_on_z, n, z_grid=self.z_grid, f_sup=self.f.sup_abs)

    def closed_form(self, n: int) -> Optional[float]:
        """Holder closed form H n^{-alpha/2} * constant; None without Holder data."""
        h = self.holder
        if h is None:
            return None
        return h.seminorm * n ** (-h.alpha / 2.0) * self.hdt_constant


def run_convergence(cfg: ExperimentConfig) -> ConvergenceTable:
    """Compute per-n sup errors, Stieltjes brackets and optional trial ratios."""
    study = Study(cfg)
    # n-free stages first, so that each row's wall time is its own work
    _ = study.q_on_z, study.profile

    trial = None
    if cfg.trial_alpha is not None:
        trial = trial_function(cfg.trial_x0, cfg.trial_alpha, study.fam.interval)

    rows = []
    times = []
    for n in cfg.n_grid:
        t0 = time.perf_counter()
        se = study.sup_error(n)
        rep = study.stieltjes(n)
        ratio = None
        if trial is not None:
            tse = sup_error(trial, study.fam, n, study.x_grid, mode="exact", tail_tol=cfg.szasz_tail_tol)
            ratio = tse.delta * n ** (cfg.trial_alpha / 2.0) / trial.holder.seminorm
        rows.append(
            ConvergenceRow(
                n=n,
                empirical_delta=se.delta,
                argmax_x=se.argmax_x,
                error_radius=se.error_radius,
                lower_bracket=rep.enclosure[0],
                upper_stieltjes=rep.upper_stieltjes,
                upper_bracket=rep.enclosure[1],
                lower_ratio=ratio,
            )
        )
        times.append(time.perf_counter() - t0)

    table = ConvergenceTable(
        rows=tuple(rows),
        config=asdict(cfg),
        seed=cfg.seed,
        wall_times=tuple(times),
    )
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

CSV_COLUMNS = (
    "n",
    "empirical_delta",
    "argmax_x",
    "error_radius",
    "lower_bracket",
    "upper_stieltjes",
    "upper_bracket",
    "lower_ratio",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT % float(value)


def _table_payload(table: ConvergenceTable) -> dict:
    payload = {
        "config": _jsonable(table.config),
        "seed": table.seed,
        "rng": table.rng,
        "version": table.version,
        "fit": None if table.fit is None else asdict(table.fit),
        "rows": [asdict(r) for r in table.rows],
    }
    return payload


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def write_report(table: ConvergenceTable, fmt: str, destination) -> None:
    """Emit a bit-stable CSV or JSON file (UTF-8, LF, sorted JSON keys)."""
    path = Path(destination)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in table.rows:
            writer.writerow(
                [
                    str(r.n),
                    _fmt(r.empirical_delta),
                    _fmt(r.argmax_x),
                    _fmt(r.error_radius),
                    _fmt(r.lower_bracket),
                    _fmt(r.upper_stieltjes),
                    _fmt(r.upper_bracket),
                    _fmt(r.lower_ratio),
                ]
            )
        data = buf.getvalue()
    elif fmt == "json":
        data = json.dumps(_table_payload(table), sort_keys=True, indent=2) + "\n"
    else:
        raise ParameterError(f"unknown report format {fmt!r}")
    try:
        path.write_text(data, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ReportIOError(f"cannot write report to {path}: {exc}") from exc


def read_report(path) -> ConvergenceTable:
    """Parse a JSON report back into an equal ConvergenceTable."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    rows = tuple(
        ConvergenceRow(
            n=r["n"],
            empirical_delta=r["empirical_delta"],
            argmax_x=r["argmax_x"],
            error_radius=r["error_radius"],
            lower_bracket=r["lower_bracket"],
            upper_stieltjes=r["upper_stieltjes"],
            upper_bracket=r["upper_bracket"],
            lower_ratio=r["lower_ratio"],
        )
        for r in payload["rows"]
    )
    fit = payload["fit"]
    cfg = dict(payload["config"])
    if isinstance(cfg.get("n_grid"), list):
        cfg["n_grid"] = tuple(cfg["n_grid"])
    return ConvergenceTable(
        rows=rows,
        config=cfg,
        seed=payload["seed"],
        rng=payload["rng"],
        version=payload["version"],
        fit=None if fit is None else RateFit(**fit),
    )


def write_timings(table: ConvergenceTable, destination) -> None:
    """Non-canonical per-row wall times for the performance suite."""
    path = Path(destination)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "wall_time_s"])
    for r, t in zip(table.rows, table.wall_times):
        writer.writerow([str(r.n), _fmt(t)])
    path.write_text(buf.getvalue(), encoding="utf-8", newline="\n")
