import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from click.testing import CliRunner

from bernapprox import bounds, config as cfgmod, operators
from bernapprox import experiments
from bernapprox.cli import main
from bernapprox.experiments import ExperimentConfig
from bernapprox.functions import builtin_catalog, eval_clamped

FAST = [
    "--set", "grids.x_size=65",
    "--set", "grids.delta_size=17",
    "--set", "grids.z_size=65",
    "--set", "tail.lambda_size=301",
    "--set", "run.n_grid=16,64",
]


@pytest.fixture
def runner():
    return CliRunner()


class TestHelp:
    def test_help_exits_zero(self, runner):
        res = runner.invoke(main, ["--help"])
        assert res.exit_code == 0
        assert "Usage" in res.output

    def test_every_schema_default_documented(self, runner):
        res = runner.invoke(main, ["--help"])
        for key, fld in cfgmod.SCHEMA.items():
            assert key in res.output, key
            if isinstance(fld.default, tuple):
                shown = ",".join(str(v) for v in fld.default)
            else:
                shown = str(fld.default)
            assert f"{key} = {shown}" in res.output, key

    def test_every_field_annotation_has_a_parser(self):
        # a field of a new type would otherwise fail only when its key is set
        assert {fld.type for fld in cfgmod.SCHEMA.values()} <= set(cfgmod._PARSERS)

    def test_every_key_shows_its_accepted_values(self, runner):
        lines = runner.invoke(main, ["--help"]).output.splitlines()
        for f in fields(ExperimentConfig):
            key, (must, _) = f.metadata["key"], f.metadata["accepts"]
            i = next(i for i, line in enumerate(lines) if line.strip().startswith(f"{key} = "))
            assert lines[i + 1].rstrip().endswith(f"; must be {must}"), key

    def test_documented_defaults_match_runtime(self, runner):
        # the resolved no-config run must equal both the schema defaults and
        # the dataclass defaults
        assert cfgmod.resolve() == ExperimentConfig()

    def test_help_has_no_weight_section(self, runner):
        # the modulus steps by the family's sigma; no weight key is left to set
        res = runner.invoke(main, ["--help"])
        assert "weight." not in res.output

    def test_subcommand_help(self, runner):
        for cmd in ("evaluate", "modulus", "tail", "bound", "run"):
            res = runner.invoke(main, [cmd, "--help"])
            assert res.exit_code == 0


class TestUsageErrors:
    def test_unknown_subcommand_exit_two_with_suggestions(self, runner):
        res = runner.invoke(main, ["rnu"])
        assert res.exit_code == 2
        assert "run" in res.output

    def test_unknown_set_key_exit_two(self, runner, tmp_path):
        res = runner.invoke(main, ["run", "--set", "run.seeed=3", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "run.seed" in res.output  # close-match hint

    def test_malformed_override_exit_two(self, runner, tmp_path):
        res = runner.invoke(main, ["run", "--set", "run.seed", "--out", str(tmp_path)])
        assert res.exit_code == 2

    def test_bad_value_exit_two(self, runner, tmp_path):
        res = runner.invoke(main, ["run", "--set", "run.seed=abc", "--out", str(tmp_path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("key", ["tail.z_cap", "tail.lambda_cap"])
    @pytest.mark.parametrize("value", ["0", "-1.5", "inf"])
    def test_nonpositive_tail_cap_exit_two(self, runner, tmp_path, key, value):
        res = runner.invoke(main, ["tail", "--set", f"{key}={value}", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert key in res.output

    def test_unknown_weight_kind_exit_two(self, runner, tmp_path):
        res = runner.invoke(main, ["modulus", "--set", "weight.kind=foo", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert "unknown config key 'weight.kind'" in res.output

    @pytest.mark.parametrize("cmd", ["evaluate", "modulus", "tail", "bound", "run"])
    def test_unknown_weight_kind_exit_two_in_every_subcommand(self, runner, tmp_path, cmd):
        res = runner.invoke(main, [cmd, "--set", "weight.kind=foo", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert "unknown config key 'weight.kind'" in res.output

    @pytest.mark.parametrize("cmd", ["evaluate", "modulus", "tail", "bound", "run"])
    @pytest.mark.parametrize("sets,key", [
        (["function.name=bogus"], "function.name"),
        (["function.name=power-cusp", "function.alpha=5"], "function.alpha"),
        (["function.name=power-cusp", "function.alpha=0"], "function.alpha"),
        (["function.name=power-cusp", "function.x0=1"], "function.x0"),
        (["trial.x0=0.5", "trial.alpha=5"], "trial.alpha"),
        (["trial.x0=2", "trial.alpha=0.5"], "trial.x0"),
        # a key's range does not depend on the function, family or source chosen
        (["function.freq=-1"], "function.freq"),
        (["family.kind=poisson", "function.name=exp-decay", "family.x_max=inf"], "family.x_max"),
        (["family.x_min=nan"], "family.x_min"),
        (["grids.x_size=32"], "grids.x_size"),
        (["grids.delta_size=8"], "grids.delta_size"),
        (["tail.p=-1"], "tail.p"),
        (["tail.k=0"], "tail.k"),
        (["tail.trials=9999"], "tail.trials"),
        (["run.mc_trials=99"], "run.mc_trials"),
        (["run.seed=-1"], "run.seed"),
        (["run.mode=monte-carlo", "run.seed=-1"], "run.seed"),
        (["tail.source=empirical", "tail.x=7"], "tail.x"),
    ], ids=["name", "alpha-5", "alpha-0", "x0", "trial-alpha", "trial-x0", "square-freq", "x_max-inf",
            "x_min-nan", "x_size", "delta_size", "p", "k", "trials", "mc_trials", "seed", "mc-seed",
            "tail-x"])
    def test_function_and_trial_keys_checked_with_the_config(self, runner, tmp_path, cmd, sets, key):
        # ExperimentConfig rejects them, so every subcommand does, whatever it reads
        args = [a for kv in sets for a in ("--set", kv)]
        res = runner.invoke(main, [cmd, *args, "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert key in res.output

    @pytest.mark.parametrize("section,key,value", [
        ("grids", "x_size", 33.9), ("run", "n_grid", [16.7, 64]), ("run", "seed", True),
    ])
    def test_json_int_keys_refuse_truncation(self, runner, tmp_path, section, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        res = runner.invoke(main, ["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert f"{section}.{key}" in res.output

    @pytest.mark.parametrize("cfg,key", [
        ({"function": {"name": "constant", "c": True}}, "function.c"),
        ({"family": {"eps": False}}, "family.eps"),
        ({"tail": {"x": True}}, "tail.x"),
    ], ids=["float", "float-false", "opt-float"])
    def test_json_float_keys_refuse_booleans(self, runner, tmp_path, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        res = runner.invoke(main, ["evaluate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert key in res.output

    @pytest.mark.parametrize("cmd", ["evaluate", "modulus", "tail", "bound", "run"])
    @pytest.mark.parametrize("sets,key", [
        (["function.name=sine", "function.freq=-1"], "function.freq"),
        (["function.name=sine", "function.freq=inf"], "function.freq"),
        (["function.name=constant", "function.c=inf"], "function.c"),
        (["function.name=constant", "function.c=nan"], "function.c"),
        (["family.kind=foo"], "family.kind"),
        (["family.eps=0.7"], "family.eps"),
        (["family.eps=0"], "family.eps"),
        # 1 - 1e-300 rounds to 1, so the x-domain would reach x = 1
        (["family.eps=1e-300"], "family.eps"),
        (["family.kind=poisson", "function.name=exp-decay", "family.x_min=0"], "family.x_min"),
        (["family.kind=poisson", "function.name=exp-decay", "family.x_max=0.5"], "family.x_max"),
        # square lives on [0, 1], the Poisson x-domain is [1, 64]: the report would be about min(x, 1)^2
        (["family.kind=poisson"], "function.name=square lives on [0.0, 1.0], which does not hold the "
                                  "family.kind=poisson x-domain"),
    ], ids=["freq-neg", "freq-inf", "c-inf", "c-nan", "kind", "eps-big", "eps-0", "eps-tiny", "x_min-0",
            "x_max-low", "square-on-poisson"])
    def test_function_and_family_values_checked_with_the_config(self, runner, tmp_path, cmd, sets, key):
        # ExperimentConfig rejects them, so every subcommand does, whatever it reads
        args = [a for kv in sets for a in ("--set", kv)]
        res = runner.invoke(main, [cmd, *args, "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert key in res.output

    def test_trial_cusp_on_poisson_exit_two(self, runner, tmp_path):
        res = runner.invoke(main, [
            "run", "--set", "family.kind=poisson", "--set", "function.name=exp-decay",
            "--set", "trial.x0=2", "--set", "trial.alpha=1", "--out", str(tmp_path),
        ])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert "trial.x0" in res.output

    @pytest.mark.parametrize("value", ["0", "1", "2"])
    def test_tiny_lambda_grid_exit_two(self, runner, tmp_path, value):
        res = runner.invoke(main, ["tail", "--set", f"tail.lambda_size={value}", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert "tail.lambda_size" in res.output

    @pytest.mark.parametrize("cmd", [
        ["evaluate"], ["tail"], ["run", "--set", "family.kind=poisson", "--set", "function.name=exp-decay"],
    ], ids=["evaluate", "tail", "poisson-run"])
    @pytest.mark.parametrize("key,value", [
        ("tail.n_max", "5"), ("tail.n_max", "255"), ("grids.z_size", "1"), ("grids.z_size", "0"),
        ("grids.h_size", "4"), ("grids.h_size", "1"), ("grids.h_size", "7"),
    ])
    def test_grid_and_tail_sizes_checked_with_the_config(self, runner, tmp_path, cmd, key, value):
        res = runner.invoke(main, [*cmd, "--set", f"{key}={value}", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert key in res.output

    @pytest.mark.parametrize("cmd", ["run", "bound", "tail"])
    @pytest.mark.parametrize("value", ["0", "-1", "1", "2", "nan"])
    def test_tail_floor_outside_the_unit_interval_exit_two(self, runner, tmp_path, cmd, value):
        res = runner.invoke(main, [cmd, "--set", f"tail.floor={value}", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert "tail.floor" in res.output

    @pytest.mark.parametrize("cmd", ["run", "bound", "evaluate", "modulus", "tail"])
    @pytest.mark.parametrize("key,value", [
        ("run.n_grid", "2000000"), ("run.n_grid", "16,1048577"),
        ("run.szasz_tail_tol", "1e-3"), ("run.szasz_tail_tol", "0"),
        ("run.szasz_tail_tol", "-1e-9"), ("run.szasz_tail_tol", "nan"),
    ])
    def test_operator_keys_out_of_range_exit_two(self, runner, tmp_path, cmd, key, value):
        # ExperimentConfig rejects them, so every subcommand does, whatever it reads
        res = runner.invoke(main, [cmd, "--set", f"{key}={value}", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert key in res.output

    @pytest.mark.parametrize("cmd", [
        ["modulus"], ["tail", "--set", "family.kind=poisson", "--set", "function.name=exp-decay"],
    ], ids=["modulus", "poisson-tail"])
    @pytest.mark.parametrize("value", ["bogus", "log"])
    def test_unknown_x_grid_kind_exit_two(self, runner, tmp_path, cmd, value):
        # neither subcommand reads the x grid; the config rejects the kind
        res = runner.invoke(main, [*cmd, "--set", f"grids.x_kind={value}", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert "grids.x_kind" in res.output

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_tiny_delta_grid_exit_two(self, runner, tmp_path, value):
        res = runner.invoke(main, ["run", "--set", f"grids.delta_size={value}", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert "grids.delta_size" in res.output

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[run]\nseeed = 5\n")
        res = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2


class TestRuntimeErrors:
    def test_missing_config_file_exit_three(self, runner, tmp_path):
        res = runner.invoke(main, ["run", "--config", str(tmp_path / "nope.cfg"),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        assert "error kind=runtime" in res.output


class TestRun:
    def test_demo_run_exit_zero_and_files(self, runner, tmp_path):
        out = tmp_path / "results"
        res = runner.invoke(main, ["run", "--config", "demo:bernstein", "--out", str(out)] + FAST)
        assert res.exit_code == 0, res.output
        assert (out / "table.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "timings.csv").exists()

    @pytest.mark.parametrize("cmd", ["run", "bound"])
    def test_validation_violation_exit_one(self, runner, tmp_path, cmd):
        # a claimed power tail with huge K makes the bound impossibly thin
        res = runner.invoke(main, [
            cmd, "--out", str(tmp_path / "o"),
            "--set", "tail.source=power-tail", "--set", "tail.p=2", "--set", "tail.k=500",
        ] + FAST)
        assert res.exit_code == 1
        assert "kind=validation" in res.output

    def test_seed_flag_changes_echo(self, runner, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["run", "--config", "demo:bernstein",
                                   "--out", str(out), "--seed", "99"] + FAST)
        assert res.exit_code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["seed"] == 99

    def test_env_var_sets_output_dir(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "from_env"
        res = runner.invoke(main, ["run", "--config", "demo:bernstein"] + FAST,
                            env={"BERNAPPROX_OUT": str(out)})
        assert res.exit_code == 0
        assert (out / "table.csv").exists()

    def test_byte_identical_reruns(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            res = runner.invoke(main, ["run", "--config", "demo:bernstein",
                                       "--out", str(out)] + FAST)
            assert res.exit_code == 0
        assert (a / "table.csv").read_bytes() == (b / "table.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_report_feeds_back_identically(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        res = runner.invoke(main, ["run", "--config", "demo:bernstein", "--out", str(a)] + FAST)
        assert res.exit_code == 0
        res = runner.invoke(main, ["run", "--config", str(a / "report.json"), "--out", str(b)])
        assert res.exit_code == 0, res.output
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


class TestOtherSubcommands:
    def test_evaluate_files_and_columns(self, runner, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["evaluate", "--out", str(out),
                                   "--set", "run.n_grid=5,10", "--set", "grids.x_size=65"])
        assert res.exit_code == 0, res.output
        text = (out / "evaluate_n5.csv").read_text()
        assert text.splitlines()[0] == "x,value,error_radius"
        assert (out / "evaluate_n10.csv").exists()
        payload = json.loads((out / "evaluate.json").read_text())
        assert len(payload["sup_errors"]) == 2

    def test_modulus_profile_csv(self, runner, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["modulus", "--out", str(out),
                                   "--set", "grids.x_size=65", "--set", "grids.delta_size=17"])
        assert res.exit_code == 0, res.output
        lines = (out / "modulus.csv").read_text().splitlines()
        assert lines[0] == "delta,omega,slack"
        assert len(lines) == 18
        payload = json.loads((out / "modulus.json").read_text())
        assert "holder" in payload

    def test_tail_curve_csv_and_header(self, runner, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["tail", "--out", str(out), "--set", "family.kind=poisson",
                                   "--set", "function.name=exp-decay", "--set", "grids.z_size=65"])
        assert res.exit_code == 0, res.output
        lines = (out / "tail.csv").read_text().splitlines()
        assert lines[0] == "u,value,half_width"
        header = json.loads((out / "tail.json").read_text())
        assert header["method"] == "poisson-conjugate"
        assert header["rng"] == "pcg64"

    def test_empirical_tail_has_half_widths(self, runner, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["tail", "--out", str(out),
                                   "--set", "tail.source=empirical",
                                   "--set", "tail.trials=10000",
                                   "--set", "run.n_grid=1,4,16",
                                   "--set", "grids.z_size=65"])
        assert res.exit_code == 0, res.output
        rows = (out / "tail.csv").read_text().splitlines()[1:]
        assert any(r.rsplit(",", 1)[1] != "" for r in rows)

    def test_empirical_half_width_is_read_like_the_value(self, runner, tmp_path):
        # both columns take the curve's step rule, so each half-width is the
        # binomial standard error of the value beside it
        out = tmp_path / "o"
        res = runner.invoke(main, ["tail", "--out", str(out), "--set", "tail.source=empirical",
                                   "--set", "tail.trials=10000", "--set", "run.n_grid=4,16"])
        assert res.exit_code == 0, res.output
        rows = list(csv.DictReader((out / "tail.csv").read_text().splitlines()))
        assert len(rows) == 257
        for r in rows:
            v = float(r["value"])
            assert float(r["half_width"]) == np.sqrt(v * (1.0 - v) / 10_000), r

    def test_bound_table_columns(self, runner, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["bound", "--out", str(out)] + FAST)
        assert res.exit_code == 0, res.output
        lines = (out / "bound.csv").read_text().splitlines()
        assert lines[0] == "n,lower_bracket,upper_bracket,closed_form,empirical,ratio"
        assert len(lines) == 3

    def test_outputs_use_lf_line_endings(self, runner, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["run", "--config", "demo:bernstein", "--out", str(out)] + FAST)
        assert res.exit_code == 0
        assert b"\r\n" not in (out / "table.csv").read_bytes()
        assert b"\r\n" not in (out / "report.json").read_bytes()


class CountingCurve:
    """Tail-curve proxy recording the size of every evaluation it serves."""

    def __init__(self, curve):
        self._curve = curve
        self.sizes = []

    def at(self, u):
        self.sizes.append(int(np.size(u)))
        return self._curve.at(u)

    def __getattr__(self, name):
        return getattr(self._curve, name)


@pytest.fixture
def counting_curve(monkeypatch):
    proxies = []
    build = experiments.build_tail_curve

    def counted(cfg, fam):
        proxies.append(CountingCurve(build(cfg, fam)))
        return proxies[-1]

    monkeypatch.setattr(experiments, "build_tail_curve", counted)
    return proxies


class TestStudyStagesOnce:
    @pytest.mark.parametrize("n_grid", ["16,64", "16,32,64,128,256"])
    def test_run_builds_the_curve_once(self, runner, tmp_path, counting_curve, n_grid):
        res = runner.invoke(main, ["run", "--out", str(tmp_path)] + FAST
                            + ["--set", f"run.n_grid={n_grid}"])
        assert res.exit_code == 0, res.output
        (curve,) = counting_curve
        # z_max bisects with scalar queries; each row's Stieltjes sum reads the z grid (65 points)
        assert [s for s in curve.sizes if s > 1] == [65] * len(n_grid.split(","))

    def test_bound_integrates_hdt_once(self, runner, tmp_path, counting_curve, monkeypatch):
        calls = []
        quad = scipy.integrate.quad

        def counted_quad(*args, **kwargs):
            calls.append(args[1:3])
            return quad(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "quad", counted_quad)
        res = runner.invoke(main, ["bound", "--out", str(tmp_path)] + FAST
                            + ["--set", "run.n_grid=16,64,256"])
        assert res.exit_code == 0, res.output
        # one cell sum on its own grid for all three n, and no quadrature
        assert calls == []
        (curve,) = counting_curve
        # each row's Stieltjes sum reads the z grid
        assert sorted(s for s in curve.sizes if s > 1) == [65, 65, 65, bounds.HDT_Z_SIZE]
        assert len((tmp_path / "bound.csv").read_text().splitlines()) == 4

    def test_bound_never_imports_scipy_integrate(self, tmp_path):
        code = (
            "import sys\n"
            "from bernapprox.cli import main\n"
            "try:\n"
            "    main(['bound', '--set', 'grids.x_size=33', '--set', 'grids.z_size=33',\n"
            "          '--set', 'tail.lambda_size=101', '--set', 'run.n_grid=16,64',\n"
            "          '--set', 'function.name=power-cusp', '--set', 'function.alpha=0.5',\n"
            f"          '--out', {str(tmp_path)!r}])\n"
            "except SystemExit as e:\n"
            "    assert e.code == 0, e.code\n"
            "print('scipy.integrate' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(bounds.__file__).parents[1]))
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert res.stdout.strip().splitlines()[-1] == "False"
        assert (tmp_path / "bound.csv").exists()

    @pytest.mark.parametrize("cmd", ["evaluate", "modulus"])
    def test_curve_free_subcommands_never_build_the_curve(self, runner, tmp_path,
                                                          counting_curve, cmd):
        res = runner.invoke(main, [cmd, "--out", str(tmp_path)] + FAST)
        assert res.exit_code == 0, res.output
        assert counting_curve == []


def test_cli_calls_never_import_scipy(tmp_path):
    # run on a Bernoulli cusp, run on Poisson/exp-decay and bound, in one
    # interpreter; scipy is only for power tails and the exponential-tail check
    small = ["--set", "grids.x_size=33", "--set", "grids.z_size=33",
             "--set", "tail.lambda_size=101", "--set", "run.n_grid=16,64"]
    cusp = ["--set", "function.name=power-cusp", "--set", "function.alpha=0.5"]
    poisson = ["--set", "family.kind=poisson", "--set", "function.name=exp-decay"]
    calls = [["run"] + small + cusp, ["run"] + small + poisson, ["bound"] + small + cusp]
    calls = [c + ["--out", str(tmp_path / str(i))] for i, c in enumerate(calls)]
    code = (
        "import sys\n"
        "from bernapprox.cli import main\n"
        f"for args in {calls!r}:\n"
        "    try:\n"
        "        main(args)\n"
        "    except SystemExit as e:\n"
        "        assert e.code == 0, e.code\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bounds.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert res.stdout.strip().splitlines()[-1] == "[]"
    assert all((tmp_path / d / f).exists()
               for d, f in [("0", "report.json"), ("1", "report.json"), ("2", "bound.json")])


def test_monte_carlo_evaluate_table_matches_summary(runner, tmp_path):
    res = runner.invoke(main, ["evaluate", "--out", str(tmp_path), "--seed", "7",
                               "--set", "run.mode=monte-carlo", "--set", "run.n_grid=16",
                               "--set", "grids.x_size=33", "--set", "run.mc_trials=200"])
    assert res.exit_code == 0, res.output
    with open(tmp_path / "evaluate_n16.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    f = builtin_catalog("square")
    errors = [abs(float(r["value"]) - eval_clamped(f, float(r["x"]))) for r in rows]
    (summary,) = json.loads((tmp_path / "evaluate.json").read_text())["sup_errors"]
    assert max(errors) == summary["delta"]
    assert float(rows[int(np.argmax(errors))]["x"]) == summary["argmax_x"]
    assert max(float(r["error_radius"]) for r in rows) == summary["error_radius"]


TRIAL = ["--set", "trial.x0=0.5", "--set", "trial.alpha=0.5"]


@pytest.fixture
def sup_error_calls(monkeypatch):
    """(function name, n) for each function of every sup_errors call the pipeline makes."""
    calls = []
    for mod in (experiments, operators):
        def counted(fs, fam, n, *args, _inner=mod.sup_errors, **kwargs):
            calls.extend((f.name, n) for f in fs)
            return _inner(fs, fam, n, *args, **kwargs)

        monkeypatch.setattr(mod, "sup_errors", counted)
    return calls


class TestRowsOnce:
    def test_run_sums_f_and_the_trial_once_per_n(self, runner, tmp_path, sup_error_calls):
        res = runner.invoke(main, ["run", "--out", str(tmp_path)] + FAST + TRIAL)
        assert res.exit_code == 0, res.output
        trial = "trial(x0=0.5,alpha=0.5)"
        assert sorted(sup_error_calls) == [("square", 16), ("square", 64), (trial, 16), (trial, 64)]

    def test_run_with_a_trial_builds_one_weight_array_per_n_and_x(self, runner, tmp_path, monkeypatch):
        # f and the trial cusp share each x's weights
        built = []

        def counting_kernel(kind, n, _inner=operators.pmf_kernel):
            weights = _inner(kind, n)

            def counted(x, lo, hi):
                built.append((n, x))
                return weights(x, lo, hi)

            return counted

        monkeypatch.setattr(operators, "pmf_kernel", counting_kernel)
        res = runner.invoke(main, ["run", "--out", str(tmp_path)] + FAST + TRIAL)
        assert res.exit_code == 0, res.output
        assert len(built) == len(set(built)) == 2 * 65

    @pytest.mark.parametrize("cmd", ["bound", "evaluate"])
    def test_bound_and_evaluate_sum_f_once_per_n(self, runner, tmp_path, sup_error_calls, cmd):
        res = runner.invoke(main, [cmd, "--out", str(tmp_path)] + FAST + TRIAL)
        assert res.exit_code == 0, res.output
        assert sup_error_calls == [("square", 16), ("square", 64)]

    def test_bound_and_run_share_their_rows_bit_for_bit(self, runner, tmp_path):
        cusp = FAST + TRIAL + ["--set", "function.name=power-cusp", "--set", "function.alpha=0.5"]
        for cmd in ("run", "bound"):
            res = runner.invoke(main, [cmd, "--out", str(tmp_path)] + cusp)
            assert res.exit_code == 0, res.output
        run_rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        bound_rows = json.loads((tmp_path / "bound.json").read_text())["rows"]
        shared = ("n", "lower_bracket", "upper_bracket", "upper_stieltjes", "error_radius")
        assert [{k: r[k] for k in shared} for r in bound_rows] == \
            [{k: r[k] for k in shared} for r in run_rows]
        assert [r["empirical"] for r in bound_rows] == [r["empirical_delta"] for r in run_rows]
        assert all(r["lower_ratio"] > 0 for r in run_rows)

    def test_trial_left_of_the_x_domain_still_runs(self, runner, tmp_path):
        # inside the interval (0, 1) but outside the x-domain [0.05, 0.95]
        res = runner.invoke(main, ["run", "--out", str(tmp_path), "--set", "family.eps=0.05",
                                   "--set", "trial.x0=0.02", "--set", "trial.alpha=0.5"] + FAST)
        assert res.exit_code == 0, res.output
        rows = json.loads((tmp_path / "report.json").read_text())["rows"]
        assert all(r["lower_ratio"] > 0 for r in rows)
