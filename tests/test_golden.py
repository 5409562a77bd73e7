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
            "report.json": "ede036695d6f8fb838907d4420dbd7d638772ae90c8a66201f87eeb9eb1d82c4",
            "table.csv": "a4be35909c87bc28fef0d48b4b39d4e46618b2d7133e36a8e88d62a56463bbbf",
        },
        "bound": {
            "bound.csv": "92cce382849bfed869d97bcd9c13cfd11deb162525827e364442674d877c3baa",
            "bound.json": "ab77bf46574bbe6a52f776983599f454e2a42c5058701c85896e3bc5fa54f334",
        },
        "evaluate": {
            "evaluate.json": "42301e53cbb6f5bfd69f623ea05431664d23233f4b4ad60dec18b71c1f041458",
            "evaluate_n16.csv": "3cb5e402ccff87a1725f2891b048dba622d9e41aa503f292226225a872faceda",
            "evaluate_n64.csv": "5e9d38c7c19be22dc0dc65cf3a81e3a4fcb182dcb4295623393cd4bfa2932250",
        },
        "modulus": {
            "modulus.csv": "6d0440af0369a309df04aa5aa60840cccce481987d1aa86a9e9fc96fff4ef2ec",
            "modulus.json": "834d4f99f2eca0d13d79155e7be6838fb1d64100978a0dc4a9e6156c62834822",
        },
        "tail": {
            "tail.csv": "bf935eaf8a1f05c4607d3cdcbbee69c1f5052a76e2c97cad03d9fc18445a7c05",
            "tail.json": "a26fd3c3f33daab26937d0110c29b4124c5849ed1a5c17918146bbe61fa3d91e",
        },
    },
    "bern-cusp": {
        "run": {
            "report.json": "67860f094a96ae0ecf64c311fffac14883b31692ccac418c953bba2eb7be767f",
            "table.csv": "0f2f4cfac495bb6965f1669afd0a60af81e1d99bcbe24eca83425bad5dc60aad",
        },
        "bound": {
            "bound.csv": "7237cade2d5555d0d9cf5f41ee6840d563f16de7efb7fe5b08cd726131384798",
            "bound.json": "dbbf016f09189c79525ad1b7875d475400fd1dae91835d1e73eea2920d8b5514",
        },
        "evaluate": {
            "evaluate.json": "75f5bd9d1322eedff5a356bd4b2fc327bcce89d893bdbd54fcd2d3ad27ff8ded",
            "evaluate_n16.csv": "70deb08798518dad1e301e9ba6d0fbf74b9ac50d43d8816b09f80b53e3e50632",
            "evaluate_n64.csv": "270a5fbbe9430860a800bc5f963029309531cd9f7ddac8168647cbc8f65503ad",
        },
        "modulus": {
            "modulus.csv": "cc3158734925023807a1528017fd52912cc90461d00fc8146743de0d0c031b6e",
            "modulus.json": "ccf86733b5942973163aec6abdf05b31159df149efe7ada9d9db4d4cd166e560",
        },
        "tail": {
            "tail.csv": "870d0d9f452050aee55bf595c40d3b43595909b0626f9ae0d8e0fdce3c865105",
            "tail.json": "78e58115dc21d78466d337b979a47fa00768e97373ebb727db21480c569f1529",
        },
    },
    "bern-cusp-cap": {
        "run": {
            "report.json": "1aa59ac50ed51f9e7b7ae71a861968d423375e046f384af935093472340fb730",
            "table.csv": "a8feb0f0e10ff633dce97fe9bad78fe1d38d3198e266d1ff14359a73aa1bb315",
        },
        "bound": {
            "bound.csv": "8a3676e4e09e89fd7a3f98fb36922cd0aca8c687dea4159b58c1e7407919458e",
            "bound.json": "f481f0a5799d6bdb987a2235d27fb534bd8210fb7964a2907da3d0e5501ac905",
        },
        "evaluate": {
            "evaluate.json": "fd969ed55b74034e5f5bc6702581b52fa33c76cd9a3fcb671b6f6989d6b05ed4",
            "evaluate_n16.csv": "70deb08798518dad1e301e9ba6d0fbf74b9ac50d43d8816b09f80b53e3e50632",
            "evaluate_n64.csv": "270a5fbbe9430860a800bc5f963029309531cd9f7ddac8168647cbc8f65503ad",
        },
        "modulus": {
            "modulus.csv": "c5f72d798a3dd050f7a3eb0f30c3a056be901b594e03cfb398a320999c07be82",
            "modulus.json": "f0fe6fc49612400dc78c5fb9f0c50f24e0bc4fdf7e5e9c458f865b7637cceec8",
        },
        "tail": {
            "tail.csv": "82786a17b27895c0370a1535753f581bf53a6df3212c70765a01ee8443694853",
            "tail.json": "6534c86908c5088f7ca16c19efb2fbb8f52ece54b4ec016f3f8d6267565bcc61",
        },
    },
    "poisson-exp": {
        "run": {
            "report.json": "ef3abe41cd55ce93a57cd12e31b624529748aff2e07f9882cff8f3e0412aec3b",
            "table.csv": "22ba548b6d063d04a8bc2fd9381349de4cb882c521fae433c87ea5197d4a3fa7",
        },
        "bound": {
            "bound.csv": "7eb41f499d1759fbc80d67a1ec3d7a62e913574599d37393443c8d2ac1650e0d",
            "bound.json": "88189ae16c2be87b088004e2100f05fe9325d9153273a75a982025a0f991a606",
        },
        "evaluate": {
            "evaluate.json": "7205222e09de8ccbcc309edda0b86a1de7a39fc924875b3d8ecb40bb2be2bcea",
            "evaluate_n16.csv": "5e278149afc2cec8e7f725b716eaf8bf24c1ef857e6e6fa71f8f8227d5f30d07",
            "evaluate_n64.csv": "7cca47681cb8605bf0c99e86c5493cd572acfdfc7a7a5f550aa1dee7a68ee28c",
        },
        "modulus": {
            "modulus.csv": "0de8a9fe2592d7dc5980edd65270a4c064d60e3c3e79115e783cf324750ab77e",
            "modulus.json": "cac7fc71a78c9d434777fa97b66476b8cb15fcd07688f6c51b1c012d499cae5b",
        },
        "tail": {
            "tail.csv": "cb4892de452f6632e205950d95e45584d74acf6ad1282ca5b24690aaf3ef0845",
            "tail.json": "903a730f901141454f424c83683e2037c93c5a72f58a0a450251f7d12569d134",
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
        "report.json": "0bed2606baebab7cae6c95f7b9677e84184edf9d4ee5f1d23d50a29c731ddce3",
        "table.csv": "88cd32fb624de6c6a5d122c0764912fcc308f01cfdf4fa48f959eb4dcff841f1",
    },
    "poisson-szasz-run": {
        "report.json": "6a651b3eb1f7cf8ed89507954e7a58a81c6a2efc8e96139c5be0701af72785d2",
        "table.csv": "b993e9561b929261c8c8d8a5ba78ddd5493bd644869874b6cfe44b33d9757a09",
    },
    "bern-square-bound": {
        "bound.csv": "60c97bbd7109183ea6b31ea5f7a1f78c83e0d00e53bd0ca4a610d6c52051ff49",
        "bound.json": "ce497d6627a2dff7d02e2a22d0fbe180d4de0f68fc22a768659ffd6eaef8c7b0",
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

