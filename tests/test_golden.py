"""Golden bytes: SHA-256 digests of every canonical file the five subcommands
write, on four small configs, and of the canonical files of the benchmark's
three workloads at full size (257 x, 65 h points, n up to 4096).

A change that moves a byte of a report must update the digest here on
purpose.  `timings.csv` holds wall times and is not canonical.
"""

import ast
import csv
import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from bernapprox import config as cfgmod
from bernapprox.cli import main
from bernapprox.errors import BoundaryWarning
from bernapprox.experiments import Study

# Bernoulli cusp with a trial column
BERN_CUSP = [
    "--set", "grids.x_size=65", "--set", "grids.delta_size=17",
    "--set", "grids.z_size=65", "--set", "tail.lambda_size=301",
    "--set", "run.n_grid=16,64",
    "--set", "function.name=power-cusp", "--set", "function.alpha=0.5",
    "--set", "family.eps=0.05", "--set", "trial.x0=0.5", "--set", "trial.alpha=0.5",
]

CONFIGS = {
    "bern-cusp": BERN_CUSP,
    "poisson-exp": [
        "--set", "family.kind=poisson", "--set", "function.name=exp-decay",
        "--set", "grids.x_size=33", "--set", "grids.delta_size=17",
        "--set", "grids.z_size=33", "--set", "run.n_grid=16,64",
    ],
    # Bernoulli square on the seeded Monte Carlo path
    "bern-mc": [
        "--set", "run.mode=monte-carlo", "--set", "run.mc_trials=1000",
        "--set", "grids.x_size=33", "--set", "grids.delta_size=17",
        "--set", "grids.z_size=33", "--set", "tail.lambda_size=301",
        "--set", "run.n_grid=16,64",
    ],
}

GOLDEN = {
    "bern-mc": {
        "run": {
            "report.json": "a8c39ee7861bab82a5e3af4987ab3caf9e341b7935759792ecf8ff2820adc22e",
            "table.csv": "a4be35909c87bc28fef0d48b4b39d4e46618b2d7133e36a8e88d62a56463bbbf",
        },
        "bound": {
            "bound.csv": "92cce382849bfed869d97bcd9c13cfd11deb162525827e364442674d877c3baa",
            "bound.json": "5ce66fb826100a2decf9a48180b7a61721c775d6f591006c031c72f0dbc7fef3",
        },
        "evaluate": {
            "evaluate.json": "69f859b928b76475bd6aea7e79e2ec1f2eb4af7faf85c939a121d6ab9db804bc",
            "evaluate_n16.csv": "3cb5e402ccff87a1725f2891b048dba622d9e41aa503f292226225a872faceda",
            "evaluate_n64.csv": "5e9d38c7c19be22dc0dc65cf3a81e3a4fcb182dcb4295623393cd4bfa2932250",
        },
        "modulus": {
            "modulus.csv": "6d0440af0369a309df04aa5aa60840cccce481987d1aa86a9e9fc96fff4ef2ec",
            "modulus.json": "bd5ea85ec0669b77b6f286b141503907430d588335723c80d315ec93a8887050",
        },
        "tail": {
            "tail.csv": "bf935eaf8a1f05c4607d3cdcbbee69c1f5052a76e2c97cad03d9fc18445a7c05",
            "tail.json": "4a0765908e590b3b87d8117d52c24111868dcb2304c0711dd798e08bbf3d92e3",
        },
    },
    "bern-cusp": {
        "run": {
            "report.json": "5c4d6b9795be2190204b050ab72824e5e255e72cdccd85ac624478f7566e709f",
            "table.csv": "0f2f4cfac495bb6965f1669afd0a60af81e1d99bcbe24eca83425bad5dc60aad",
        },
        "bound": {
            "bound.csv": "7237cade2d5555d0d9cf5f41ee6840d563f16de7efb7fe5b08cd726131384798",
            "bound.json": "00770be0fb58e2b47f591d62fc90769e32c7995cd1fc44555cbb45db5fffb42d",
        },
        "evaluate": {
            "evaluate.json": "ff7c9a5e628454c30ddb793906fc1df318508399f387d4f9e69c5e1ac3755ba2",
            "evaluate_n16.csv": "70deb08798518dad1e301e9ba6d0fbf74b9ac50d43d8816b09f80b53e3e50632",
            "evaluate_n64.csv": "270a5fbbe9430860a800bc5f963029309531cd9f7ddac8168647cbc8f65503ad",
        },
        "modulus": {
            "modulus.csv": "cc3158734925023807a1528017fd52912cc90461d00fc8146743de0d0c031b6e",
            "modulus.json": "3ebef896f58e2e1df8f4a080c4eaf95886603b7840aa90ae61e4a8a69ba39e3a",
        },
        "tail": {
            "tail.csv": "870d0d9f452050aee55bf595c40d3b43595909b0626f9ae0d8e0fdce3c865105",
            "tail.json": "927b26e5531bc034cf436c1a1171a11d9bdb461c7d2dbe09e6526d069df1991b",
        },
    },
    "poisson-exp": {
        "run": {
            "report.json": "7caa2deee850ab378e9010470e20a05da0094ad8a21fff00c72c416d28be31f0",
            "table.csv": "22ba548b6d063d04a8bc2fd9381349de4cb882c521fae433c87ea5197d4a3fa7",
        },
        "bound": {
            "bound.csv": "7eb41f499d1759fbc80d67a1ec3d7a62e913574599d37393443c8d2ac1650e0d",
            "bound.json": "b2687c163b4099fa3195a402389847985f2d58725b81bf8cb7626a145ea5579d",
        },
        "evaluate": {
            "evaluate.json": "6307485595062e28ff9ebc9240a14c9d6abd9e56770debcfcab2bce00a63ce4b",
            "evaluate_n16.csv": "5e278149afc2cec8e7f725b716eaf8bf24c1ef857e6e6fa71f8f8227d5f30d07",
            "evaluate_n64.csv": "7cca47681cb8605bf0c99e86c5493cd572acfdfc7a7a5f550aa1dee7a68ee28c",
        },
        "modulus": {
            "modulus.csv": "0de8a9fe2592d7dc5980edd65270a4c064d60e3c3e79115e783cf324750ab77e",
            "modulus.json": "3d175c9091918ca1d09773d0746f6d1a3bc414a86f6c7d6f3c56ca5da99e35a7",
        },
        "tail": {
            "tail.csv": "cb4892de452f6632e205950d95e45584d74acf6ad1282ca5b24690aaf3ef0845",
            "tail.json": "627928a7ede7b96e7ba4c92f90d916f62ffb6fb69bc3a10d0b5b10b976ba73b5",
        },
    },
}


# the benchmark's workloads (perfbench/workloads.py) at full size: the only configs
# that reach one-row Szasz chunks (n >= 256) and the 257 x 65 modulus grid
WORKLOADS = {
    "bern-cusp-run": ("run", ("function.name=power-cusp", "function.alpha=0.5", "family.eps=0.05",
                              "trial.x0=0.5", "trial.alpha=0.5")),
    "poisson-szasz-run": ("run", ("family.kind=poisson", "function.name=exp-decay")),
    "bern-square-bound": ("bound", ()),
}

WORKLOAD_GOLDEN = {
    "bern-cusp-run": {
        "report.json": "431a1117ab185b45126dbd51f8d60ce01f652f499f83e499a552c697f7f25700",
        "table.csv": "88cd32fb624de6c6a5d122c0764912fcc308f01cfdf4fa48f959eb4dcff841f1",
    },
    "poisson-szasz-run": {
        "report.json": "b0f0b89f2bd55de5147b35b29cbf8350920a297a4860f8c18d82c5947e117551",
        "table.csv": "b993e9561b929261c8c8d8a5ba78ddd5493bd644869874b6cfe44b33d9757a09",
    },
    "bern-square-bound": {
        "bound.csv": "60c97bbd7109183ea6b31ea5f7a1f78c83e0d00e53bd0ca4a610d6c52051ff49",
        "bound.json": "f5d1bf6922471e4a36cec1c969f7afd2915a5d735822e4ed9a84f87f871826a2",
    },
}


def digests(out) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir()) if p.name != "timings.csv"
    }


def study_of(config: str) -> Study:
    return Study(cfgmod.resolve(overrides=cfgmod.parse_overrides(CONFIGS[config][1::2])))


@pytest.mark.parametrize("cmd", ["run", "bound", "evaluate", "modulus", "tail"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_canonical_bytes(tmp_path, config, cmd):
    res = CliRunner().invoke(main, [cmd, "--out", str(tmp_path)] + CONFIGS[config])
    assert res.exit_code == 0, res.output
    assert digests(tmp_path) == GOLDEN[config][cmd]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_bytes(tmp_path, workload):
    cmd, overrides = WORKLOADS[workload]
    res = CliRunner().invoke(main, [cmd, "--out", str(tmp_path)] + [a for kv in overrides for a in ("--set", kv)])
    assert res.exit_code == 0, res.output
    assert digests(tmp_path) == WORKLOAD_GOLDEN[workload]


def _literal(node, names: dict):
    """The value of a literal tuple, string or dict node of workloads.py, with its names resolved."""
    if isinstance(node, ast.Name):
        return names[node.id]
    if isinstance(node, ast.Tuple):
        return tuple(_literal(e, names) for e in node.elts)
    if isinstance(node, ast.Dict):
        return {_literal(k, names): _literal(v, names) for k, v in zip(node.keys, node.values)}
    if isinstance(node, ast.Call):  # Workload(command, overrides, ...)
        return tuple(_literal(a, names) for a in node.args[:2])
    return ast.literal_eval(node)


def test_the_workloads_are_the_benchmarks():
    # read, not imported: the benchmark's workloads as written in its source
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text())
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, (ast.Tuple, ast.Dict)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            names[target.id] = _literal(node.value, names)
    assert names["WORKLOADS"] == WORKLOADS


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_modulus_reports_the_profile_and_seminorm_that_bound_integrates(tmp_path, config):
    for cmd in ("modulus", "bound"):
        res = CliRunner().invoke(main, [cmd, "--out", str(tmp_path / cmd)] + CONFIGS[config])
        assert res.exit_code == 0, res.output
    holder = {cmd: json.loads((tmp_path / cmd / f"{cmd}.json").read_text())["holder"]
              for cmd in ("modulus", "bound")}
    assert holder["modulus"] == holder["bound"]
    with open(tmp_path / "modulus" / "modulus.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    profile = study_of(config).profile
    assert [float(r["delta"]) for r in rows] == profile.deltas.tolist()
    assert [float(r["omega"]) for r in rows] == profile.values.tolist()


# the cap config: five lines to the cap 50 near the subgaussian eps 0.4999: the last breakpoint 25.68 lies inside
# z_cap 64, where Q is still above 0.0, so the z_max bisection and the z grid read past the last line
FEW_LINES = [a for kv in ("family.eps=0.4999", "tail.lambda_size=5", "grids.x_size=33", "grids.delta_size=17",
                          "grids.z_size=33", "run.n_grid=16,64") for a in ("--set", kv)]
# the one message of the FEW_LINES curve: it names the cap and the last breakpoint, not a u
CAP_WARNING = "conjugate maximizer at the lambda grid boundary 50 for u past the last breakpoint 25.6823"


def test_the_cap_config_reads_past_the_last_line():
    # z_max's first midpoint, 32, reads past the last line of the cap 50 with Q above 0.0 and warns once
    study = Study(cfgmod.resolve(overrides=cfgmod.parse_overrides(FEW_LINES[1::2])))
    with pytest.warns(BoundaryWarning) as record:
        study.z_max
    assert study.curve.params == {"lambda_cap": 50.0, "lambda_grid_size": 5}
    assert [str(w.message) for w in record] == [CAP_WARNING]


@pytest.mark.parametrize("cmd", ["tail", "run"])
def test_warnings_reach_stderr_as_kind_lines(cmd, tmp_path):
    # every read past the last line gives the curve's one message, which Python's default filter shows once
    res = CliRunner().invoke(main, [cmd, "--out", str(tmp_path)] + FEW_LINES)
    assert res.exit_code == 0, res.output
    lines = res.stderr.splitlines()
    assert lines == [f'warning kind=BoundaryWarning msg="{CAP_WARNING}"']
    assert not any("/" in line or ".py:" in line for line in lines)


@pytest.mark.parametrize("cmd", ["run", "bound", "tail"])
def test_one_boundary_warning_line_per_curve_at_a_floor_of_1e_300(cmd, tmp_path):
    # at this floor z_max is near 38.8, past the last line, so the z grid, the cell sum and the
    # remainder all read past it: one read per u would print hundreds of lines
    res = CliRunner().invoke(main, [cmd, "--out", str(tmp_path)] + FEW_LINES + ["--set", "tail.floor=1e-300"])
    assert res.exit_code == 0, res.output
    assert res.stderr.splitlines() == [f'warning kind=BoundaryWarning msg="{CAP_WARNING}"']


@pytest.mark.parametrize("cmd", ["run", "bound", "tail"])
def test_no_warning_line_where_every_read_past_the_last_line_is_zero(cmd, tmp_path):
    # at eps 0.3 only z_max's probe at the cap 64 reads past the last line (55.2),
    # where Q is 0.0, so no number of a report depends on the cap
    args = ["family.eps=0.3", "grids.x_size=33", "grids.delta_size=17", "grids.z_size=33",
            "tail.lambda_size=301", "run.n_grid=16,64"]
    res = CliRunner().invoke(main, [cmd, "--out", str(tmp_path)] + [a for kv in args for a in ("--set", kv)])
    assert res.exit_code == 0, res.output
    assert res.stderr.splitlines() == []

