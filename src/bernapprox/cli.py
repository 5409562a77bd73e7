"""Command-line entry point: evaluate / modulus / tail / bound / run.

Exit codes: 0 success (and bound validity holds), 1 validity violation
(``run`` and ``bound``), 2 usage error, 3 runtime error.  Every failure
prints machine-parsable lines to stderr of the form
``error kind=<usage|runtime|validation> msg="..."``, one per violating row
for a validity violation.
"""

from __future__ import annotations

import difflib
import sys
from dataclasses import asdict
from pathlib import Path

import click

from . import __version__, config as cfgmod
from .errors import BernApproxError, ParameterError
from .experiments import (
    ConvergenceTable,
    ExperimentConfig,
    Study,
    ValiditySummary,
    run_convergence,
    validity_check,
    write_csv,
    write_json,
    write_report,
    write_timings,
)
from .modulus import holder_seminorm

BOUND_COLUMNS = ("n", "lower_bracket", "upper_bracket", "closed_form", "empirical", "ratio")


def _resolve_config(config_path, overrides, seed) -> ExperimentConfig:
    if config_path and config_path.startswith("demo:"):
        config_path = str(cfgmod.demo_config_path(config_path.split(":", 1)[1]))
    return cfgmod.resolve(config_path, cfgmod.parse_overrides(overrides), seed)


def _echo(cfg: ExperimentConfig) -> dict:
    """The resolved config, seed and version that every JSON report carries."""
    return {"config": asdict(cfg), "seed": cfg.seed, "version": __version__}


def _outdir(out: str) -> Path:
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _guard(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ParameterError as exc:
        click.echo(f'error kind=usage msg="{exc}"', err=True)
        sys.exit(2)
    except BernApproxError as exc:
        click.echo(f'error kind=runtime msg="{exc}"', err=True)
        sys.exit(3)
    except click.ClickException:
        raise
    except Exception as exc:  # anything unexpected is a runtime failure
        click.echo(f'error kind=runtime msg="{type(exc).__name__}: {exc}"', err=True)
        sys.exit(3)


def _exit_on_violations(summary: ValiditySummary) -> None:
    """One ``error kind=validation`` line per violating row, then exit 1."""
    for v in summary.violations:
        click.echo(
            f'error kind=validation msg="n={v["n"]} empirical {v["empirical_delta"]:.6g} '
            f'exceeds bracket {v["upper_bracket"]:.6g}"',
            err=True,
        )
    if not summary.passed:
        sys.exit(1)


class SuggestingGroup(click.Group):
    def resolve_command(self, ctx, args):
        try:
            return super().resolve_command(ctx, args)
        except click.UsageError:
            name = args[0]
            hints = difflib.get_close_matches(name, self.list_commands(ctx), n=3)
            extra = f" Did you mean: {', '.join(hints)}?" if hints else ""
            raise click.UsageError(
                f"unknown subcommand {name!r}. Valid: {', '.join(self.list_commands(ctx))}.{extra}"
            )


_EPILOG = (
    "Config schema (INI sections or JSON; every key shown with the default "
    "used at runtime; override any key with --set key=value):\n\n"
    + "\n\n".join("\b\n" + block for block in cfgmod.schema_sections())
)


def _common_options(fn):
    fn = click.option("--config", "config_path", default=None,
                      help="Config file (INI or JSON); 'demo:bernstein' loads the bundled demo.")(fn)
    fn = click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
                      help="Override a schema key; may repeat.")(fn)
    fn = click.option("--out", "out", default="results", envvar="BERNAPPROX_OUT",
                      show_default=True, help="Output directory (env: BERNAPPROX_OUT).")(fn)
    fn = click.option("--seed", "seed", type=int, default=None, help="Override run.seed.")(fn)
    return fn


@click.group(cls=SuggestingGroup, epilog=_EPILOG)
@click.version_option(version=__version__, prog_name="bernapprox")
def main():
    """Bernstein-type approximation operators, tail calculus and error bounds."""


@main.command()
@_common_options
def evaluate(config_path, overrides, out, seed):
    """Operator values A_n[f](x) on the x grid, one CSV per n."""

    def body():
        study = Study(_resolve_config(config_path, overrides, seed))
        cfg = study.cfg
        outdir = _outdir(out)
        summary_rows = []
        for n in cfg.n_grid:
            se = study.sup_error(n)
            rows = [[x, ov.value, ov.error_radius] for x, ov in zip(study.x_grid, se.values)]
            write_csv(outdir / f"evaluate_n{n}.csv", ["x", "value", "error_radius"], rows)
            summary_rows.append(
                {"n": n, "delta": se.delta, "argmax_x": se.argmax_x, "error_radius": se.error_radius}
            )
        write_json(outdir / "evaluate.json", {**_echo(cfg), "sup_errors": summary_rows})
        click.echo(f"evaluate: wrote {len(cfg.n_grid)} tables to {outdir}")

    _guard(body)


@main.command()
@_common_options
def modulus(config_path, overrides, out, seed):
    """Weighted modulus profile: CSV columns delta, omega, slack."""

    def body():
        study = Study(_resolve_config(config_path, overrides, seed))
        f, profile = study.f, study.interval_profile
        outdir = _outdir(out)
        rows = [[d, v, profile.enclosure_slack] for d, v in zip(profile.deltas, profile.values)]
        write_csv(outdir / "modulus.csv", ["delta", "omega", "slack"], rows)
        payload = {
            **_echo(study.cfg), "metadata": profile.metadata,
            "enclosure_slack": profile.enclosure_slack,
        }
        if f.holder is not None:
            h = holder_seminorm(f, study.fam.sigma, f.holder.alpha, profile)
            payload["holder"] = {"alpha": h.alpha, "seminorm": h.seminorm}
        write_json(outdir / "modulus.json", payload)
        click.echo(f"modulus: wrote profile ({profile.deltas.size} deltas) to {outdir}")

    _guard(body)


@main.command()
@_common_options
def tail(config_path, overrides, out, seed):
    """Tail curve: CSV columns u, value, half_width plus a JSON header."""

    def body():
        study = Study(_resolve_config(config_path, overrides, seed))
        cfg, curve, us = study.cfg, study.curve, study.z_grid
        if curve.half_widths is not None:
            hw = curve.step(curve.half_widths, us)
        else:
            hw = [None] * us.size
        outdir = _outdir(out)
        write_csv(outdir / "tail.csv", ["u", "value", "half_width"],
                  zip(us, curve.at(us), hw))
        write_json(outdir / "tail.json", {
            **_echo(cfg), "method": curve.kind, "z_max": study.z_max,
            "lambda_cap": curve.params.get("lambda_cap"),
            "n_max": cfg.tail_n_max, "rng": "pcg64",
        })
        click.echo(f"tail: wrote {curve.kind} curve ({us.size} points) to {outdir}")

    _guard(body)


@main.command()
@_common_options
def bound(config_path, overrides, out, seed):
    """Bound table: Stieltjes brackets, closed form, empirical delta, ratio."""

    def body():
        study = Study(_resolve_config(config_path, overrides, seed))
        rows, checked = [], []
        for n in study.cfg.n_grid:
            row = study.row(n)
            checked.append(row)
            rows.append({
                "n": n, "lower_bracket": row.lower_bracket, "upper_bracket": row.upper_bracket,
                "upper_stieltjes": row.upper_stieltjes, "closed_form": study.closed_form(n),
                "empirical": row.empirical_delta, "error_radius": row.error_radius,
                "ratio": row.empirical_delta / row.upper_bracket if row.upper_bracket > 0 else None,
            })
        outdir = _outdir(out)
        write_csv(outdir / "bound.csv", BOUND_COLUMNS, [[r[c] for c in BOUND_COLUMNS] for r in rows])
        holder = study.holder
        write_json(outdir / "bound.json", {
            **_echo(study.cfg), "rows": rows,
            "holder": None if holder is None else {"alpha": holder.alpha, "seminorm": holder.seminorm},
        })
        summary = validity_check(ConvergenceTable(rows=tuple(checked), config={}, seed=study.cfg.seed))
        click.echo(f"bound: wrote {len(rows)} rows, validity {'pass' if summary.passed else 'FAIL'} "
                   f"-> {outdir}")
        _exit_on_violations(summary)

    _guard(body)


@main.command()
@_common_options
def run(config_path, overrides, out, seed):
    """Full convergence study; exit 0 iff the bound validity check passes."""

    def body():
        cfg = _resolve_config(config_path, overrides, seed)
        table = run_convergence(cfg)
        outdir = _outdir(out)
        write_report(table, "csv", outdir / "table.csv")
        write_report(table, "json", outdir / "report.json")
        write_timings(table, outdir / "timings.csv")
        summary = validity_check(table)
        slope = "n/a" if table.fit is None else f"{table.fit.slope:.4f}"
        click.echo(
            f"run: {len(table.rows)} rows, fitted slope {slope}, "
            f"validity {'pass' if summary.passed else 'FAIL'} -> {outdir}"
        )
        _exit_on_violations(summary)

    _guard(body)


if __name__ == "__main__":
    main()
