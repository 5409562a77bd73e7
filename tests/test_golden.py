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
    # the same lines with a cap that doubles to 6, so some reads fall past the last line
    "bern-cusp-cap": BERN_CUSP + ["--set", "tail.lambda_cap=3"],
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
            "report.json": "ff5458db58f8ccc986a6d1589f7147e86e51a109579097a69137b33d2a1a923e",
            "table.csv": "a4be35909c87bc28fef0d48b4b39d4e46618b2d7133e36a8e88d62a56463bbbf",
        },
        "bound": {
            "bound.csv": "8e147f62a6e39194275880d2ce7b8c187ec983d108781bcabe5fe11a4b804e24",
            "bound.json": "b0d02cfdb069ffa86a906e424ed6fdbccc533c0c3ca1ed94abd03b3b4fed8623",
        },
        "evaluate": {
            "evaluate.json": "2f02f5b615f486a5d3683175c8b951497e882c704a6e0a58baee016782c693f9",
            "evaluate_n16.csv": "3cb5e402ccff87a1725f2891b048dba622d9e41aa503f292226225a872faceda",
            "evaluate_n64.csv": "5e9d38c7c19be22dc0dc65cf3a81e3a4fcb182dcb4295623393cd4bfa2932250",
        },
        "modulus": {
            "modulus.csv": "6d0440af0369a309df04aa5aa60840cccce481987d1aa86a9e9fc96fff4ef2ec",
            "modulus.json": "a279e83f145e5eeebe0c9d0838307c202aedcf98c3f4a5d6d8f0fe76076ab4d5",
        },
        "tail": {
            "tail.csv": "9599110b616e1b55a5185ccbb82fe7dfecc3351cd9419cbfb5aaca5a54baab2c",
            "tail.json": "78cd31f920e7a44b8e7814d1a9c7d93dfd043eb72dac34cfe18314aeeec8a04d",
        },
    },
    "bern-cusp": {
        "run": {
            "report.json": "595992022d294d9ceb17c480f7703aeaac16043d5a4f57bddd34e1e0310afb51",
            "table.csv": "dd232cc3642727aee1fc6a08c09a59cee9818e0807b8b748d61db8df4d8fff0c",
        },
        "bound": {
            "bound.csv": "f45af55fa8b63e67f8a2a66695c7cc3640f91be1e734a1ca0b8b6201c95d54e3",
            "bound.json": "e6642d2d1fca3bc913ee2ed9a5441e626d88e2b75c1ad378ed9fb5b05f73ed53",
        },
        "evaluate": {
            "evaluate.json": "c21ab33bc2b911c8438570ce7b58ba87fd095cff8941d9d999e6c543426d8628",
            "evaluate_n16.csv": "815b4350c3dc635299de757cf55f5c446721abb1bdf631eb1e0870f3c1ad8965",
            "evaluate_n64.csv": "7852e1e9fe5ee8f5f651684b4cd500099e6bbef03ff7c9de30f1fdd04afe8564",
        },
        "modulus": {
            "modulus.csv": "cc3158734925023807a1528017fd52912cc90461d00fc8146743de0d0c031b6e",
            "modulus.json": "de7c016a854852da4049fce21bb92822186b47b60fdb9443708513a9c7f68e1f",
        },
        "tail": {
            "tail.csv": "e3d064e40ac45577f05adb88843c71fca64aaf0e740d20056a22e9b0c1254ca5",
            "tail.json": "d8c52c7986801b46d9e08b41d8591643c7f8c826e97e3e6438288910d6d53cb0",
        },
    },
    "bern-cusp-cap": {
        "run": {
            "report.json": "c8ef4e7045177406505982f0d44679ab6cb4894bcbf1cb3e1e0de5ce8f9f9895",
            "table.csv": "61f909487f03af6b105f0c74215ce5d1bdad4ef890ef88e8179c10bff1595e55",
        },
        "bound": {
            "bound.csv": "5a14b9d594089ba0ab20bad627a59e6a3b1e804e8fd6f2fb8a7c78689ae189a9",
            "bound.json": "0a191b53d875b9a758d2c5b0dc9f0f70e18104ed3c3e563f504f0472849e7902",
        },
        "evaluate": {
            "evaluate.json": "335886e06932b8e8451f97b0f88fe0f404af5631af3deb1679e9039eeae72b1b",
            "evaluate_n16.csv": "815b4350c3dc635299de757cf55f5c446721abb1bdf631eb1e0870f3c1ad8965",
            "evaluate_n64.csv": "7852e1e9fe5ee8f5f651684b4cd500099e6bbef03ff7c9de30f1fdd04afe8564",
        },
        "modulus": {
            "modulus.csv": "c5f72d798a3dd050f7a3eb0f30c3a056be901b594e03cfb398a320999c07be82",
            "modulus.json": "ef5733c0461552f487bc9714f5ef6d18268443b9756d797ec794bb88e887ef41",
        },
        "tail": {
            "tail.csv": "70d6a5b211c4a1fc58c9595e1f14ab3fb209d9f8c4dc9bce10b5434f10e63dfe",
            "tail.json": "9660db5dc81fbc0f6401f796f2834550ae93a6209afeee923a8cbbf92cc98d34",
        },
    },
    "poisson-exp": {
        "run": {
            "report.json": "37db1151069b0f71b3ce071d376c9efb427ae1f25130b10e1dff03c9eb29f738",
            "table.csv": "22ba548b6d063d04a8bc2fd9381349de4cb882c521fae433c87ea5197d4a3fa7",
        },
        "bound": {
            "bound.csv": "8ed5791d11389448b61b7d7989ed3858ff41a6d99c74522f8e4100bc98fd94f6",
            "bound.json": "7c7e81c0fc805cefd0cdc733fb1a9412b3bd10f7b6a4db6b12deed60921a868b",
        },
        "evaluate": {
            "evaluate.json": "e18e3846026f057b5ab6731d0e73740de516a1021823bf16178bf99a1eb7b4a1",
            "evaluate_n16.csv": "5e278149afc2cec8e7f725b716eaf8bf24c1ef857e6e6fa71f8f8227d5f30d07",
            "evaluate_n64.csv": "7cca47681cb8605bf0c99e86c5493cd572acfdfc7a7a5f550aa1dee7a68ee28c",
        },
        "modulus": {
            "modulus.csv": "0de8a9fe2592d7dc5980edd65270a4c064d60e3c3e79115e783cf324750ab77e",
            "modulus.json": "d0a0c575cf45d8a9cf3aade37f82d77cd4a08b6f2e768ba70d924aec44116ac1",
        },
        "tail": {
            "tail.csv": "67d53ee5f782bdecbe7d483716d6478ecfc84e4caa72c841461f49ff4d0ff964",
            "tail.json": "01d8cc70750773426b58b937fcfb596051a08b137f5ceeb4fbdbf94457aa56d7",
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
        "report.json": "ffda21ce5476e7f3a24a8ddccf2f2d1edf4d3d17877799927a17029a5ecfcf03",
        "table.csv": "e1484ab0d82955ec10f567fa071bd784115b29b708867cf02eaf79d8220b5aeb",
    },
    "poisson-szasz-run": {
        "report.json": "e123f5ec2ee65eaddfe55350612e7c3aa5da1d7f499383b50a5876af5e205d31",
        "table.csv": "b993e9561b929261c8c8d8a5ba78ddd5493bd644869874b6cfe44b33d9757a09",
    },
    "bern-square-bound": {
        "bound.csv": "7a8023306a019856137d3f142c607fe128856ad03850c12f6c6fb4e83aebc660",
        "bound.json": "72e0d03841a2df80b58860af2ac3fa7aa99b0297f06b40167f08588e9005698d",
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


# the one message of bern-cusp-cap's curve: it names the cap and the last breakpoint, not a u
CAP_WARNING = "conjugate maximizer at the lambda grid boundary 6 for u past the last breakpoint 19.0441"


def test_the_cap_config_reads_past_the_last_line():
    # z_max's read of both ends and its first round's read reach past u = 19.04; each warns once
    study = study_of("bern-cusp-cap")
    with pytest.warns(BoundaryWarning) as record:
        study.z_max
    assert study.curve.params["lambda_cap"] == 6.0
    assert [str(w.message) for w in record] == [CAP_WARNING] * 2


@pytest.mark.filterwarnings("ignore::bernapprox.errors.BoundaryWarning")  # bern-cusp-cap's reads past the last line
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


@pytest.mark.parametrize("cmd", ["tail", "run"])
def test_warnings_reach_stderr_as_kind_lines(cmd, tmp_path):
    # every read past the last line gives the curve's one message, which Python's default filter shows once
    res = CliRunner().invoke(main, [cmd, "--out", str(tmp_path)] + CONFIGS["bern-cusp-cap"])
    assert res.exit_code == 0, res.output
    lines = res.stderr.splitlines()
    assert lines == [f'warning kind=BoundaryWarning msg="{CAP_WARNING}"']
    assert not any("/" in line or ".py:" in line for line in lines)


@pytest.mark.parametrize("cmd", ["run", "bound", "tail"])
def test_one_boundary_warning_line_per_curve_at_a_floor_of_1e_300(cmd, tmp_path):
    # at this floor z_max is the cap 64, so the z grid, the cell sum and the remainder all
    # read past the last line: one read per u would print hundreds of lines
    res = CliRunner().invoke(main, [cmd, "--out", str(tmp_path)] + CONFIGS["bern-cusp-cap"]
                             + ["--set", "tail.floor=1e-300"])
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

