"""Golden bytes: SHA-256 digests of every canonical file the five subcommands
write, on four small configs.

A change that moves a byte of a report must update the digest here on
purpose.  `timings.csv` holds wall times and is not canonical.
"""

import csv
import hashlib
import json

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
            "report.json": "58bb77c815f823870a78ed78043653dab88d34393ade2e611692f9d7eb089edb",
            "table.csv": "75b13acdf43209b0dad98805953c0838e7f7234b1c8645821513fc47882d3f55",
        },
        "bound": {
            "bound.csv": "a8b17ae7b0b5d1bc913d3b1c820bae8f3a81247da27731ab1fc8e0ae906bcfd9",
            "bound.json": "5ea32cce97bd1236af3cdcc1a270f236c98b8fcacd25d0bc3ce78f3cb50329df",
        },
        "evaluate": {
            "evaluate.json": "6d433ad0cdb43c6625244529e52bd7f73ba804a64f10f7ae755dff872c342741",
            "evaluate_n16.csv": "e53019ec889c25322e664513ff23fbfc3c606f3e66c35ac5220a0a6ebde7a755",
            "evaluate_n64.csv": "e2ff2fb2c8cd8483eda2cfa963257448f5476a65e7dc7a2a915563996b810914",
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

