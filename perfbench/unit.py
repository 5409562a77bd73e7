"""One unit of benchmark work, in a fresh interpreter as a user's CLI call is.

Usage: python unit.py '<spec>' where spec is a JSON object with

- mode: "setup" (import and resolve the config, then stop), "cli" (one real
  `bernapprox run` / `bernapprox bound` call through the click entry point),
  or "traced" (the same unit rebuilt from the layers' public functions, with
  a span around each layer call);
- workload, seed, smoke: which unit (see workloads.py);
- out: directory for the reports;
- t0: the parent's time.monotonic() just before it started this process.
  CLOCK_MONOTONIC is system-wide on Linux, so setup_s covers interpreter
  start, `import bernapprox.cli` and config resolution.

The last stdout line is one JSON object with the phase times and, for the
traced mode, per-span self times, work counters and warning counts.
"""

import contextlib
import json
import sys
import time
import warnings

T_START = time.monotonic()


class CountingCurve:
    """A tail curve that counts the u points the bounds layer asks for."""

    def __init__(self, curve):
        self._curve = curve
        self.evals = 0

    def at(self, u):
        import numpy as np

        self.evals += int(np.size(u))
        return self._curve.at(u)

    def __getattr__(self, name):
        return getattr(self._curve, name)


class Tracer:
    """In-memory spans (name, start, end, parent) plus warning counts."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.warnings = {}

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.monotonic(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.monotonic()
            for w in caught:
                key = w.category.__name__
                self.warnings[key] = self.warnings.get(key, 0) + 1

    def self_times(self) -> list[tuple[str, float]]:
        """(name, span duration minus the time its child spans cover)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(s[0], s[2] - s[1] - c) for s, c in zip(self.spans, covered)]


def _fmt(value) -> str:
    from bernapprox.experiments import FLOAT_FMT

    return "" if value is None else FLOAT_FMT % float(value)


def traced_run(cfg, out, tr: Tracer) -> dict:
    """`bernapprox run`, recomposed from run_convergence's layer calls."""
    import math
    from dataclasses import asdict, replace

    import numpy as np

    from bernapprox.errors import InsufficientDataError
    from bernapprox.experiments import (
        ConvergenceRow, ConvergenceTable, build_family, build_function,
        build_modulus_profile, build_tail_curve, build_weight, rate_fit,
        validity_check, write_report, write_timings,
    )
    from bernapprox.functions import trial_function
    from bernapprox.grids import GridSpec
    from bernapprox.bounds import stieltjes_bound
    from bernapprox.operators import sup_error
    from bernapprox.tails import tail_z_max

    with tr.span("experiments.study"):
        with tr.span("experiments.build"):
            f = build_function(cfg)
            fam = build_family(cfg)
            w = build_weight(cfg, fam)
        with tr.span("tails.curve"):
            curve = build_tail_curve(cfg, fam)
        with tr.span("tails.z_max"):
            z_max = tail_z_max(curve, floor=cfg.tail_floor, cap=cfg.tail_z_cap)
        z_grid = np.linspace(0.0, max(z_max, 1e-6), cfg.z_grid_size)
        with tr.span("modulus.profile"):
            profile = build_modulus_profile(cfg, f, w, delta_max=z_max / math.sqrt(min(cfg.n_grid)))
        x_grid = GridSpec(cfg.x_grid_kind, cfg.x_grid_size).points(*fam.x_domain)
        trial = None
        if cfg.trial_alpha is not None:
            with tr.span("experiments.build"):
                trial = trial_function(cfg.trial_x0, cfg.trial_alpha, fam.interval)

        q = CountingCurve(curve)
        rows, times = [], []
        for n in cfg.n_grid:
            t0 = time.perf_counter()
            with tr.span("experiments.row"):
                with tr.span("operators.sup_error"):
                    se = sup_error(
                        f, fam, n, x_grid, mode=cfg.mode, tail_tol=cfg.szasz_tail_tol,
                        trials=cfg.mc_trials, seed=cfg.seed,
                    )
                with tr.span("bounds.stieltjes"):
                    rep = stieltjes_bound(profile, q, n, z_grid=z_grid, f_sup=f.sup_abs)
                ratio = None
                if trial is not None:
                    with tr.span("operators.trial"):
                        tse = sup_error(trial, fam, n, x_grid, mode="exact", tail_tol=cfg.szasz_tail_tol)
                    ratio = tse.delta * n ** (cfg.trial_alpha / 2.0) / trial.holder.seminorm
                rows.append(ConvergenceRow(
                    n=n, empirical_delta=se.delta, argmax_x=se.argmax_x, error_radius=se.error_radius,
                    lower_bracket=rep.enclosure[0], upper_stieltjes=rep.upper_stieltjes,
                    upper_bracket=rep.enclosure[1], lower_ratio=ratio,
                ))
            times.append(time.perf_counter() - t0)
        table = ConvergenceTable(rows=tuple(rows), config=asdict(cfg), seed=cfg.seed, wall_times=tuple(times))
        with tr.span("experiments.fit"):
            try:
                fit = rate_fit(table)
            except InsufficientDataError:
                fit = None
        table = replace(table, fit=fit)
        with tr.span("experiments.report_io"):
            out.mkdir(parents=True, exist_ok=True)
            write_report(table, "csv", out / "table.csv")
            write_report(table, "json", out / "report.json")
            write_timings(table, out / "timings.csv")
        with tr.span("experiments.validity"):
            passed = validity_check(table).passed

    last = rows[-1]
    return {
        "passed": passed,
        "files": ["table.csv", "report.json"],
        "slack_share": (last.upper_bracket - last.upper_stieltjes) / last.upper_bracket,
        "x_evals": len(cfg.n_grid) * x_grid.size,
        "q_evals": q.evals,
    }


def traced_bound(cfg, out, tr: Tracer) -> dict:
    """`bernapprox bound`, recomposed from the CLI command's layer calls."""
    import csv
    import io
    import math
    from dataclasses import asdict

    import numpy as np

    from bernapprox import __version__
    from bernapprox.bounds import hdt_bound, stieltjes_bound
    from bernapprox.experiments import (
        build_family, build_function, build_modulus_profile, build_tail_curve, build_weight,
    )
    from bernapprox.grids import GridSpec
    from bernapprox.modulus import holder_seminorm
    from bernapprox.operators import sup_error
    from bernapprox.tails import tail_z_max

    with tr.span("experiments.study"):
        with tr.span("experiments.build"):
            f = build_function(cfg)
            fam = build_family(cfg)
            w = build_weight(cfg, fam)
        with tr.span("tails.curve"):
            curve = build_tail_curve(cfg, fam)
        with tr.span("tails.z_max"):
            z_max = tail_z_max(curve, floor=cfg.tail_floor, cap=cfg.tail_z_cap)
        z_grid = np.linspace(0.0, max(z_max, 1e-6), cfg.z_grid_size)
        with tr.span("modulus.profile"):
            profile = build_modulus_profile(cfg, f, w, delta_max=z_max / math.sqrt(min(cfg.n_grid)))
        xs = GridSpec(cfg.x_grid_kind, cfg.x_grid_size).points(*fam.x_domain)
        holder = None
        if f.holder is not None:
            with tr.span("modulus.holder"):
                holder = holder_seminorm(f, w, f.holder.alpha, profile)

        q = CountingCurve(curve)
        rows, payload_rows = [], []
        for n in cfg.n_grid:
            with tr.span("experiments.row"):
                with tr.span("bounds.stieltjes"):
                    rep = stieltjes_bound(profile, q, n, z_grid=z_grid, f_sup=f.sup_abs)
                with tr.span("operators.sup_error"):
                    se = sup_error(f, fam, n, xs, mode=cfg.mode, tail_tol=cfg.szasz_tail_tol,
                                   trials=cfg.mc_trials, seed=cfg.seed)
                closed = None
                if holder is not None:
                    with tr.span("bounds.hdt"):
                        closed = hdt_bound(holder, q, n).value
                ratio = se.delta / rep.enclosure[1] if rep.enclosure[1] > 0 else None
                rows.append([str(n), _fmt(rep.enclosure[0]), _fmt(rep.enclosure[1]),
                             _fmt(closed), _fmt(se.delta), _fmt(ratio)])
                payload_rows.append({
                    "n": n, "lower_bracket": rep.enclosure[0], "upper_bracket": rep.enclosure[1],
                    "upper_stieltjes": rep.upper_stieltjes, "closed_form": closed,
                    "empirical": se.delta, "error_radius": se.error_radius, "ratio": ratio,
                })
        with tr.span("experiments.report_io"):
            out.mkdir(parents=True, exist_ok=True)
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["n", "lower_bracket", "upper_bracket", "closed_form", "empirical", "ratio"])
            writer.writerows(rows)
            (out / "bound.csv").write_text(buf.getvalue(), encoding="utf-8", newline="\n")
            payload = {
                "config": asdict(cfg), "seed": cfg.seed, "version": __version__, "rows": payload_rows,
                "holder": None if holder is None else {"alpha": holder.alpha, "seminorm": holder.seminorm},
            }
            (out / "bound.json").write_text(
                json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
            )

    last = payload_rows[-1]
    return {
        "passed": True,
        "files": ["bound.csv", "bound.json"],
        "slack_share": (last["upper_bracket"] - last["upper_stieltjes"]) / last["upper_bracket"],
        "x_evals": len(cfg.n_grid) * xs.size,
        "q_evals": q.evals,
    }


def main(spec: dict) -> dict:
    import bernapprox.cli as cli
    t_import = time.monotonic()
    from pathlib import Path

    from bernapprox import config as cfgmod
    from workloads import WORKLOADS, overrides

    wl = WORKLOADS[spec["workload"]]
    sets = overrides(spec["workload"], spec["smoke"])
    cfg = cfgmod.resolve(None, cfgmod.parse_overrides(sets), spec["seed"])
    t_setup = time.monotonic()
    result = {
        "module": cli.__file__,
        "setup_s": t_setup - spec["t0"],
        "cli.import_s": t_import - T_START,
        "config.resolve_s": t_setup - t_import,
    }
    if spec["mode"] == "setup":
        return result

    out = Path(spec["out"])
    if spec["mode"] == "cli":
        argv = [wl.command]
        for kv in sets:
            argv += ["--set", kv]
        argv += ["--seed", str(spec["seed"]), "--out", str(out)]
        try:
            cli.main.main(args=argv, prog_name="bernapprox", standalone_mode=False)
            result["exit_code"] = 0
        except SystemExit as exc:
            result["exit_code"] = exc.code if isinstance(exc.code, int) else 1
    else:
        tr = Tracer()
        traced = (traced_run if wl.command == "run" else traced_bound)(cfg, out, tr)
        result["exit_code"] = 0 if traced.pop("passed") else 1
        result["report_bytes"] = sum((out / name).stat().st_size for name in traced.pop("files"))
        result["spans"] = tr.self_times()
        result["warnings"] = tr.warnings
        result.update(traced)
    result["study_s"] = time.monotonic() - t_setup

    import resource

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
