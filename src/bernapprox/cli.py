"""Command-line entry point: evaluate / modulus / tail / bound / run.

Exit codes: 0 success (and bound validity holds), 1 validity violation
(``run`` and ``bound``), 2 usage error, 3 runtime error.  Every failure
prints machine-parsable lines to stderr of the form
``error kind=<usage|runtime|validation> msg="..."``, one per violating row
for a validity violation.

Each subcommand is a function of (study, outdir) under ``_study_command``,
which adds the shared options, resolves the config into one ``Study`` and
creates the out dir before the subcommand's work starts, so a runtime
failure can leave that directory empty.
"""

from __future__ import annotations

import contextlib
import difflib
import functools
import sys
from dataclasses import asdict
from pathlib import Path

import click

from . import __version__, config as cfgmod
from .errors import BernApproxError, ParameterError
from .experiments import (
    ExperimentConfig,
    Study,
    ValiditySummary,
    validity_check,
    write_csv,
    write_json,
    write_report,
    write_timings,
)
from .modulus import holder_seminorm
from .tails import empirical_half_width

BOUND_COLUMNS = ("n", "lower_bracket", "upper_bracket", "closed_form", "empirical", "ratio")


def _echo(cfg: ExperimentConfig) -> dict:
    """The resolved config, seed and version that every JSON report carries."""
    return {"config": asdict(cfg), "seed": cfg.seed, "version": __version__}


@contextlib.contextmanager
def _guard():
    """Turn a failure into its ``error kind=...`` line and exit code: usage 2, runtime 3."""
    try:
        yield
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


def _study_command(body):
    """A subcommand from ``body(study, outdir)``: the shared --config/--set/--out/--seed
    options resolve into a Study, the out dir is created, and body runs under ``_guard``."""

    @click.option("--seed", "seed", type=int, default=None, help="Override run.seed.")
    @click.option("--out", "out", default="results", envvar="BERNAPPROX_OUT",
                  show_default=True, help="Output directory (env: BERNAPPROX_OUT).")
    @click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
                  help="Override a schema key; may repeat.")
    @click.option("--config", "config_path", default=None,
                  help="Config file (INI or JSON); 'demo:bernstein' loads the bundled demo.")
    @functools.wraps(body)
    def command(config_path, overrides, out, seed):
        with _guard():
            if config_path and config_path.startswith("demo:"):
                config_path = str(cfgmod.demo_config_path(config_path.split(":", 1)[1]))
            study = Study(cfgmod.resolve(config_path, cfgmod.parse_overrides(overrides), seed))
            outdir = Path(out)
            outdir.mkdir(parents=True, exist_ok=True)
            body(study, outdir)

    return command


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


@click.group(cls=SuggestingGroup, epilog=_EPILOG)
@click.version_option(version=__version__, prog_name="bernapprox")
def main():
    """Bernstein-type approximation operators, tail calculus and error bounds."""


@main.command()
@_study_command
def evaluate(study: Study, outdir: Path):
    """Operator values A_n[f](x) on the x grid, one CSV per n."""
    cfg = study.cfg
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


@main.command()
@_study_command
def modulus(study: Study, outdir: Path):
    """Weighted modulus profile: CSV columns delta, omega, slack."""
    f, profile = study.f, study.interval_profile
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


@main.command()
@_study_command
def tail(study: Study, outdir: Path):
    """Tail curve: CSV columns u, value, half_width plus a JSON header."""
    cfg, curve, us = study.cfg, study.curve, study.z_grid
    hw = empirical_half_width(curve, us) if curve.kind == "empirical" else [None] * us.size
    write_csv(outdir / "tail.csv", ["u", "value", "half_width"], zip(us, curve.at(us), hw))
    write_json(outdir / "tail.json", {
        **_echo(cfg), "method": curve.kind, "z_max": study.z_max,
        "lambda_cap": curve.params.get("lambda_cap"),
        "n_max": cfg.tail_n_max, "rng": "pcg64",
    })
    click.echo(f"tail: wrote {curve.kind} curve ({us.size} points) to {outdir}")


@main.command()
@_study_command
def bound(study: Study, outdir: Path):
    """Bound table: Stieltjes brackets, closed form, empirical delta, ratio."""
    table = study.table(trial=False)
    rows = [{
        "n": r.n, "lower_bracket": r.lower_bracket, "upper_bracket": r.upper_bracket,
        "upper_stieltjes": r.upper_stieltjes, "closed_form": study.closed_form(r.n),
        "empirical": r.empirical_delta, "error_radius": r.error_radius,
        "ratio": r.empirical_delta / r.upper_bracket if r.upper_bracket > 0 else None,
    } for r in table.rows]
    write_csv(outdir / "bound.csv", BOUND_COLUMNS, [[r[c] for c in BOUND_COLUMNS] for r in rows])
    holder = study.holder
    write_json(outdir / "bound.json", {
        **_echo(study.cfg), "rows": rows,
        "holder": None if holder is None else {"alpha": holder.alpha, "seminorm": holder.seminorm},
    })
    summary = validity_check(table)
    click.echo(f"bound: wrote {len(rows)} rows, validity {'pass' if summary.passed else 'FAIL'} "
               f"-> {outdir}")
    _exit_on_violations(summary)


@main.command()
@_study_command
def run(study: Study, outdir: Path):
    """Full convergence study; exit 0 iff the bound validity check passes."""
    table = study.table(trial=True)
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


if __name__ == "__main__":
    main()
