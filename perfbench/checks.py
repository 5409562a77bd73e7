"""Correctness checks on a unit's reports, and the two deterministic metrics.

A unit fails when its CLI exit code is not 0, when a row breaks
`lower_bracket <= upper_bracket` or `empirical <= upper_bracket +
error_radius`, when an analytic identity does not hold, or when its report
bytes differ from another unit run with the same seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import Workload

# Rounding in the log-gamma pmf weights and the certified 1e-12 Szasz
# truncation reach about 1.1e-8 relative at n = 4096 on the default grids.
ANALYTIC_RTOL = 1e-7


def empirical_key(wl: Workload) -> str:
    return "empirical_delta" if wl.command == "run" else "empirical"


def bernstein_variance(cfg: dict, n: int) -> float:
    """sup error of B_n[x^2], which is x^2 + x(1-x)/n exactly."""
    xs = np.linspace(cfg["family_eps"], 1.0 - cfg["family_eps"], cfg["x_grid_size"])
    return float(np.max(xs * (1.0 - xs))) / n


def szasz_mgf(cfg: dict, n: int) -> float:
    """sup error of S_n[e^-x] = E exp(-N/n), N ~ Poisson(nx): the Poisson MGF."""
    xs = np.linspace(cfg["family_x_min"], cfg["family_x_max"], cfg["x_grid_size"])
    return float(np.max(np.abs(np.exp(n * xs * np.expm1(-1.0 / n)) - np.exp(-xs))))


ANALYTIC = {"bernstein-variance": bernstein_variance, "szasz-mgf": szasz_mgf}


def load_report(wl: Workload, out: Path) -> dict:
    return json.loads((Path(out) / wl.report).read_text(encoding="utf-8"))


def check_report(wl: Workload, payload: dict) -> list[str]:
    """Problems found in a parsed JSON report; empty when it is correct."""
    rows = payload["rows"]
    if not rows:
        return ["report has no rows"]
    emp = empirical_key(wl)
    problems = []
    for r in rows:
        n = r["n"]
        if not r["lower_bracket"] <= r["upper_bracket"]:
            problems.append(f"n={n}: lower bracket {r['lower_bracket']!r} > upper {r['upper_bracket']!r}")
        if not r[emp] <= r["upper_bracket"] + r["error_radius"]:
            problems.append(f"n={n}: empirical {r[emp]!r} above the certified bracket")
        if wl.analytic is not None:
            expected = ANALYTIC[wl.analytic](payload["config"], n)
            if not abs(r[emp] - expected) <= ANALYTIC_RTOL * expected:
                problems.append(f"n={n}: empirical {r[emp]!r} != {wl.analytic} value {expected!r}")
    return problems


def read_canonical(wl: Workload, out: Path) -> dict[str, bytes]:
    return {name: (Path(out) / name).read_bytes() for name in wl.canonical_files}


def compare_reports(reference: dict[str, bytes], got: dict[str, bytes]) -> list[str]:
    """Problems when two units with the same seed wrote different bytes."""
    return [f"{name} differs from an earlier unit with the same seed"
            for name in reference if got.get(name) != reference[name]]


def bound_gap(wl: Workload, payload: dict) -> float:
    """Geometric mean over rows of upper_bracket / empirical delta."""
    rows = payload["rows"]
    emp = empirical_key(wl)
    return math.exp(sum(math.log(r["upper_bracket"] / r[emp]) for r in rows) / len(rows))


def upper_slope_err(wl: Workload, payload: dict) -> float:
    """|OLS slope of log upper_bracket on log n + alpha/2|."""
    x = np.log([r["n"] for r in payload["rows"]])
    y = np.log([r["upper_bracket"] for r in payload["rows"]])
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2))
    return abs(slope + wl.holder_alpha / 2.0)
