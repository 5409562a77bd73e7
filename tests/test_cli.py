import csv
import importlib.util
import json
import os
import runpy
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import exp_tail_curve

from bernapprox import bounds, config as cfgmod, operators
from bernapprox import experiments
from bernapprox.cli import main
from bernapprox.errors import GridResolutionWarning
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

    # tail.lambda_cap is no key since the lambda cap follows tail.z_cap: any value of it is refused
    @pytest.mark.parametrize("key", ["tail.z_cap", "tail.lambda_cap"])
    @pytest.mark.parametrize("value", ["0", "-1.5", "inf"])
    def test_nonpositive_tail_cap_exit_two(self, runner, tmp_path, key, value):
        res = runner.invoke(main, ["tail", "--set", f"{key}={value}", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert key in res.output

    def test_z_cap_at_its_upper_end_runs_without_warning(self, runner, tmp_path):
        # at 2^32 the float spacing, 9.5e-7, is below the z_max bisection's width, and lambda^2 is finite
        res = runner.invoke(main, ["bound", "--set", "tail.z_cap=4294967296", "--out", str(tmp_path)] + FAST)
        assert res.exit_code == 0, res.output
        assert "warning" not in res.stderr

    def test_removed_lambda_cap_key_exit_two(self, runner, tmp_path):
        res = runner.invoke(main, ["tail", "--set", "tail.lambda_cap=3", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert "unknown config key 'tail.lambda_cap'" in res.output

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
        # a key's range does not depend on the function or family chosen
        (["function.freq=-1"], "function.freq"),
        (["family.kind=poisson", "function.name=exp-decay", "family.x_max=inf"], "family.x_max"),
        (["family.x_min=nan"], "family.x_min"),
        (["grids.x_size=32"], "grids.x_size"),
        (["grids.delta_size=8"], "grids.delta_size"),
        (["tail.z_cap=1e200"], "tail.z_cap"),  # past 2^32 the z_max bisection cannot end
        # each study reads its family's certified tail curve, so the keys of another source are refused
        (["tail.p=2"], "unknown config key 'tail.p'"),
        (["tail.k=0.5"], "unknown config key 'tail.k'"),
        (["tail.trials=9999"], "tail.trials"),  # a key the schema no longer has is refused as unknown
        (["run.mc_trials=99"], "run.mc_trials"),
        (["run.seed=-1"], "run.seed"),
        (["run.mode=monte-carlo", "run.seed=-1"], "run.seed"),
        (["tail.x=0.5"], "unknown config key 'tail.x'"),
        (["tail.source=power-tail"], "unknown config key 'tail.source'"),
        (["tail.source=exact-law"], "unknown config key 'tail.source'"),
        (["tail.source=empirical"], "unknown config key 'tail.source'"),
    ], ids=["name", "alpha-5", "alpha-0", "x0", "trial-alpha", "trial-x0", "square-freq", "x_max-inf",
            "x_min-nan", "x_size", "delta_size", "z_cap-1e200", "p", "k", "trials", "mc_trials", "seed",
            "mc-seed", "tail-x", "power-tail-source", "exact-law-source", "empirical-source"])
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
        ({"trial": {"x0": True}}, "trial.x0"),
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
        # trial.x0 = 0.5 passes its own check, so the cross-key rule is what rejects it
        for cmd in ("evaluate", "modulus", "tail", "bound", "run"):
            res = runner.invoke(main, [
                cmd, "--set", "family.kind=poisson", "--set", "function.name=exp-decay",
                "--set", "trial.x0=0.5", "--set", "trial.alpha=1", "--out", str(tmp_path),
            ])
            assert res.exit_code == 2, cmd
            assert "error kind=usage" in res.output
            assert "need family.kind=bernoulli" in res.output

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
        ("run.n_grid", "8000000"), ("run.n_grid", "16,4194305"),
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

    @pytest.mark.parametrize("name,text,msg", [
        ("bad.json", '{"run": ', "invalid JSON"),
        ("list.json", "[16, 64]", "top-level JSON value must be an object"),
        ("bad.cfg", "seed = 5\n", "invalid config"),
    ], ids=["json-syntax", "json-list", "ini-no-section"])
    def test_malformed_config_file_exit_two(self, runner, tmp_path, name, text, msg):
        cfg = tmp_path / name
        cfg.write_text(text)
        res = runner.invoke(main, ["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "error kind=usage" in res.output
        assert msg in res.output

    def test_unknown_demo_exit_two(self, runner, tmp_path):
        res = runner.invoke(main, ["run", "--config", "demo:nope", "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "no bundled demo config named 'nope'" in res.output


def test_flat_and_nested_json_configs_agree(tmp_path):
    flat, nested = tmp_path / "flat.json", tmp_path / "nested.json"
    flat.write_text(json.dumps({"grids.x_size": 65, "run.n_grid": [16, 64]}))
    nested.write_text(json.dumps({"grids": {"x_size": 65}, "run": {"n_grid": [16, 64]}}))
    cfg = cfgmod.resolve(str(flat))
    assert cfg == cfgmod.resolve(str(nested))
    assert (cfg.x_grid_size, cfg.n_grid) == (65, (16, 64))


class TestRuntimeErrors:
    def test_missing_config_file_exit_three(self, runner, tmp_path):
        res = runner.invoke(main, ["run", "--config", str(tmp_path / "nope.cfg"),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 3
        assert "error kind=runtime" in res.output

    def test_unwritable_report_exit_three(self, runner, tmp_path):
        # a package error raised at run time, not a usage error: the report path is a directory
        (tmp_path / "table.csv").mkdir()
        res = runner.invoke(main, ["run", "--out", str(tmp_path)] + FAST)
        assert res.exit_code == 3
        assert f'error kind=runtime msg="cannot write report to {tmp_path / "table.csv"}' in res.output


def test_python_dash_m_entry_point(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["bernapprox", "--version"])
    with pytest.warns(RuntimeWarning, match="found in sys.modules"), pytest.raises(SystemExit) as exc:
        runpy.run_module("bernapprox.cli", run_name="__main__")
    assert exc.value.code == 0
    assert "bernapprox, version" in capsys.readouterr().out


class TestRun:
    def test_demo_run_exit_zero_and_files(self, runner, tmp_path):
        out = tmp_path / "results"
        res = runner.invoke(main, ["run", "--config", "demo:bernstein", "--out", str(out)] + FAST)
        assert res.exit_code == 0, res.output
        assert (out / "table.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "timings.csv").exists()

    @pytest.mark.parametrize("cmd", ["run", "bound"])
    def test_validation_violation_exit_one(self, runner, tmp_path, monkeypatch, cmd):
        # a curve far thinner than the law, exp(-500 u^2), makes the bound impossibly thin
        monkeypatch.setattr(experiments, "build_tail_curve", lambda cfg, fam: exp_tail_curve(2.0, 500.0))
        res = runner.invoke(main, [cmd, "--out", str(tmp_path / "o")] + FAST)
        assert res.exit_code == 1
        assert "kind=validation" in res.output
        assert res.stdout.endswith(f", validity FAIL -> {tmp_path / 'o'}\n")

    @pytest.mark.parametrize("cmd", ["run", "bound"])
    def test_validity_line_is_the_word_alone(self, runner, tmp_path, cmd):
        # the family's tail curve bounds the tail for every n and x, so a pass needs no qualifier
        res = runner.invoke(main, [cmd, "--out", str(tmp_path / "o")] + FAST)
        assert res.exit_code == 0, res.output
        assert res.stdout.endswith(f", validity pass -> {tmp_path / 'o'}\n")

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
        # a report written while tail.x, tail.source, tail.p and tail.k were keys echoes them; it loads,
        # and reruns on the family's certified curve to today's bytes
        old = json.loads((a / "report.json").read_text())
        removed = {"tail_x": None, "tail_source": "power-tail", "tail_p": 2.0, "tail_k": 500.0}
        assert not removed.keys() & old["config"].keys()
        old["config"].update(removed)
        (tmp_path / "old.json").write_text(json.dumps(old))
        res = runner.invoke(main, ["run", "--config", str(tmp_path / "old.json"), "--out", str(tmp_path / "c")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "c" / "report.json").read_bytes() == (a / "report.json").read_bytes()

    @pytest.mark.parametrize("cmd", ["evaluate", "modulus", "tail", "bound", "run"])
    def test_every_json_report_feeds_back_identically(self, runner, tmp_path, cmd):
        # each JSON report echoes its config, so each reruns its own subcommand to the same files
        a, b = tmp_path / "a", tmp_path / "b"
        res = runner.invoke(main, [cmd, "--out", str(a)] + FAST)
        assert res.exit_code == 0, res.output
        report = "report.json" if cmd == "run" else f"{cmd}.json"
        res = runner.invoke(main, [cmd, "--config", str(a / report), "--out", str(b)])
        assert res.exit_code == 0, res.output
        files = sorted(p.name for p in a.iterdir() if p.name != "timings.csv")
        assert files == sorted(p.name for p in b.iterdir() if p.name != "timings.csv")
        assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)


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
        assert lines[0] == "u,value"
        header = json.loads((out / "tail.json").read_text())
        assert header["method"] == "poisson-conjugate"
        assert "rng" not in header  # no tail curve draws
        assert "n_max" not in header  # only the Bernoulli conjugate reads it, and the echo has it

    def test_bound_table_columns(self, runner, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["bound", "--out", str(out)] + FAST)
        assert res.exit_code == 0, res.output
        lines = (out / "bound.csv").read_text().splitlines()
        assert lines[0] == "n,lower_bracket,upper_bracket,closed_form,empirical,ratio"
        assert len(lines) == 3

    @pytest.mark.parametrize("eps", ["1e-16", "1e-13"])
    def test_closed_form_past_the_cap_is_finite(self, runner, tmp_path, eps):
        # at these trims Q stays above the floor up to tail.z_cap = 64; the Chebyshev envelope
        # past it still integrates to a finite remainder, small against the cells
        res = runner.invoke(main, ["bound", "--set", f"family.eps={eps}", "--out", str(tmp_path)] + FAST)
        assert res.exit_code == 0, res.output
        assert "warning" not in res.stderr
        payload = json.loads((tmp_path / "bound.json").read_text())
        h = payload["holder"]
        assert [r["closed_form"] for r in payload["rows"]] == [
            h["seminorm"] * n ** (-h["alpha"] / 2.0) * 64.015625 for n in (16, 64)]

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


# tail_z_max reads both ends of [0, 64], then one midpoint per step of its 26 bisection steps
Z_MAX_READS = [1] * 28


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
        # then each row's Stieltjes sum reads the z grid (65 points)
        assert curve.sizes == Z_MAX_READS + [65] * len(n_grid.split(","))

    def test_bound_integrates_hdt_once(self, runner, tmp_path, counting_curve):
        res = runner.invoke(main, ["bound", "--out", str(tmp_path)] + FAST
                            + ["--set", "run.n_grid=16,64,256"])
        assert res.exit_code == 0, res.output
        (curve,) = counting_curve
        # after z_max, each row's Stieltjes sum reads the z grid, and the one cell sum for all
        # three n reads its grid and then the tail remainder's one point at z_max
        assert curve.sizes[:len(Z_MAX_READS)] == Z_MAX_READS
        assert sorted(curve.sizes[len(Z_MAX_READS):]) == [1, 65, 65, 65, bounds.HDT_Z_SIZE]
        assert len((tmp_path / "bound.csv").read_text().splitlines()) == 4

    @pytest.mark.parametrize("cmd", ["evaluate"])
    def test_curve_free_subcommands_never_build_the_curve(self, runner, tmp_path,
                                                          counting_curve, cmd):
        res = runner.invoke(main, [cmd, "--out", str(tmp_path)] + FAST)
        assert res.exit_code == 0, res.output
        assert counting_curve == []

    def test_modulus_builds_the_curve_and_the_profile_once(self, runner, tmp_path, counting_curve,
                                                           monkeypatch):
        # the profile runs out to z_max / sqrt(min n), so it needs the curve's z_max
        profiles = []
        build = experiments.build_modulus_profile

        def counted(*args, **kwargs):
            profiles.append(build(*args, **kwargs))
            return profiles[-1]

        monkeypatch.setattr(experiments, "build_modulus_profile", counted)
        res = runner.invoke(main, ["modulus", "--out", str(tmp_path)] + FAST)
        assert res.exit_code == 0, res.output
        (curve,) = counting_curve
        # z_max bisects; nothing tabulates the curve
        assert curve.sizes == Z_MAX_READS
        (profile,) = profiles
        assert len((tmp_path / "modulus.csv").read_text().splitlines()) == profile.deltas.size + 1


def test_cli_calls_never_import_scipy(tmp_path):
    # run on a Bernoulli cusp, run on Poisson/exp-decay, bound, and bound on Poisson/exp-decay, in
    # one interpreter; scipy serves only the tests' oracles, and configparser and difflib only
    # an INI config and a mistyped key or subcommand
    small = ["--set", "grids.x_size=33", "--set", "grids.z_size=33",
             "--set", "tail.lambda_size=101", "--set", "run.n_grid=16,64"]
    cusp = ["--set", "function.name=power-cusp", "--set", "function.alpha=0.5"]
    poisson = ["--set", "family.kind=poisson", "--set", "function.name=exp-decay"]
    calls = [["run"] + small + cusp, ["run"] + small + poisson, ["bound"] + small + cusp,
             ["bound"] + small + poisson]
    calls = [c + ["--out", str(tmp_path / str(i))] for i, c in enumerate(calls)]
    code = (
        "import sys\n"
        "from bernapprox.cli import main\n"
        f"for args in {calls!r}:\n"
        "    try:\n"
        "        main(args)\n"
        "    except SystemExit as e:\n"
        "        assert e.code == 0, e.code\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'configparser', 'difflib')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bounds.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert res.stdout.strip().splitlines()[-1] == "[]"
    assert all((tmp_path / d / f).exists()
               for d, f in [("0", "report.json"), ("1", "report.json"), ("2", "bound.json"), ("3", "bound.json")])


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task (Linux)")
@pytest.mark.parametrize("threads", ["2", None], ids=["capped-at-2", "unset"])
def test_cli_import_loads_numpy_with_one_thread(threads):
    # numpy's OpenBLAS starts a worker per core unless told otherwise, and the benchmark
    # caps it at the core count; importing the CLI loads numpy with one thread either
    # way, then hands the caller's environment back as it was
    code = (
        "import json, os\n"
        "before = dict(os.environ)\n"
        "import bernapprox.cli\n"
        "print(json.dumps([len(os.listdir('/proc/self/task')),"
        " os.environ.get('OPENBLAS_NUM_THREADS'), dict(os.environ) == before]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(dict.fromkeys(BLAS_VARS, threads) if threads else {})
    env["PYTHONPATH"] = str(Path(bounds.__file__).parents[1])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert json.loads(res.stdout) == [1, threads, True]


@pytest.mark.parametrize("threads", ["3", None], ids=["set", "unset"])
def test_cli_import_leaves_the_environment_as_it_was(monkeypatch, threads):
    # numpy is loaded already here, so the import changes nothing that lasts
    assert "numpy" in sys.modules
    if threads:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
    else:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    spec = importlib.util.find_spec("bernapprox.cli")
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert dict(os.environ) == before


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

    def test_run_with_a_trial_builds_the_weights_of_a_run_without_it(self, runner, tmp_path, monkeypatch):
        # f and the trial cusp share each chunk's weights: per n, the chunks of x
        # whose weights are built are the same with and without the trial, and
        # they cover every x once
        inner = operators.frames

        def weight_builds(args):
            built = []

            def counting_frames(kind, n, *grid):
                for chunk in inner(kind, n, *grid):
                    built.append((n, *chunk[:2]))
                    yield chunk

            monkeypatch.setattr(operators, "frames", counting_frames)
            res = runner.invoke(main, ["run", "--out", str(tmp_path)] + FAST + args)
            assert res.exit_code == 0, res.output
            return built

        alone, shared = weight_builds([]), weight_builds(TRIAL)
        assert shared == alone
        for n in (16, 64):
            assert sorted(x for m, s, e in shared if m == n for x in range(s, e)) == list(range(65))

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


def test_a_warning_is_printed_before_a_runtime_failure(runner, tmp_path, monkeypatch):
    def warn_then_fail(self, trial):
        warnings.warn("refine the x/h grids", GridResolutionWarning)
        raise RuntimeError("stage failed")

    monkeypatch.setattr(experiments.Study, "table", warn_then_fail)
    res = runner.invoke(main, ["run", "--out", str(tmp_path)] + FAST)
    assert res.exit_code == 3
    assert res.stderr.splitlines() == ['warning kind=GridResolutionWarning msg="refine the x/h grids"',
                                       'error kind=runtime msg="RuntimeError: stage failed"']
