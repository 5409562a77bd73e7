"""Golden bytes: SHA-256 digests of every canonical file the five subcommands
write, on four small configs.

A change that moves a byte of a report must update the digest here on
purpose.  `timings.csv` holds wall times and is not canonical.
"""

import hashlib

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
            "report.json": "8d2bcb8d9bdba82c93291a3192af7919824dd912935a7ab9ae12a20e5d6317bd",
            "table.csv": "a4be35909c87bc28fef0d48b4b39d4e46618b2d7133e36a8e88d62a56463bbbf",
        },
        "bound": {
            "bound.csv": "8e147f62a6e39194275880d2ce7b8c187ec983d108781bcabe5fe11a4b804e24",
            "bound.json": "057f7da052a7780eff148f8c5ea87afb41f8d39d64e540882c8406dd99d1efae",
        },
        "evaluate": {
            "evaluate.json": "ce0dcb5d5d3c7dff33bbfb819e0e4e43a855d31272c19241a1eeb4b3068cdf04",
            "evaluate_n16.csv": "3cb5e402ccff87a1725f2891b048dba622d9e41aa503f292226225a872faceda",
            "evaluate_n64.csv": "5e9d38c7c19be22dc0dc65cf3a81e3a4fcb182dcb4295623393cd4bfa2932250",
        },
        "modulus": {
            "modulus.csv": "3ac28989ce5dd0a00935dade02969d3beb7d2eb644c49607bea6475471555e78",
            "modulus.json": "cf9e4bd118bdb4759b7cca668dc731a2f745df14f48ef1460ca0d0056f2a8b26",
        },
        "tail": {
            "tail.csv": "9599110b616e1b55a5185ccbb82fe7dfecc3351cd9419cbfb5aaca5a54baab2c",
            "tail.json": "6fcea1a419c1df48640fa9a0112c9d6f8f07142b3ac0c3812fee626a853db906",
        },
    },
    "bern-cusp": {
        "run": {
            "report.json": "c53c7e2957ac934c5bcf04770ccf4247bb783c56d77f11e1b3b5a3aef1be1f52",
            "table.csv": "b1c212cdc16a8c660f756c28d1236d37d2ca337e896c849a0783ff95a3d4b84f",
        },
        "bound": {
            "bound.csv": "f45af55fa8b63e67f8a2a66695c7cc3640f91be1e734a1ca0b8b6201c95d54e3",
            "bound.json": "03bed32bec8cfb4ca8ee5820933a5fbac60d8b9dc7eba0e7e02eb19607474850",
        },
        "evaluate": {
            "evaluate.json": "91b05fa5e017ba51ead2e46ed5573673f06480e2d4caa2d2287e8270807a8705",
            "evaluate_n16.csv": "8388c3e15d353af14520ae36cbbd744e81aad5ba497846fa435cd85733949f08",
            "evaluate_n64.csv": "06f49250b75373d5f89a61afef345dfce15aa27c8fe1f37aa2b243af11765ebc",
        },
        "modulus": {
            "modulus.csv": "54727fb0529a34c780a96d47fdb11944aeeeef47f5fd85d5aaa65b2438c59aa0",
            "modulus.json": "43c093422e102bb1fa7cb7b7f84028a80911bfa46d0b758dbe18fff773001c40",
        },
        "tail": {
            "tail.csv": "e3d064e40ac45577f05adb88843c71fca64aaf0e740d20056a22e9b0c1254ca5",
            "tail.json": "d8401ee6034c19a786b66e10d6c846ca870ca13fb96813089d2e7bc8b1684ceb",
        },
    },
    "bern-cusp-cap": {
        "run": {
            "report.json": "7188507c0fbc7e770250e0ec71f963f436024e044917bf145a35206f8ffab218",
            "table.csv": "9e7ca09af6f4187252ebcaf247d34da931c36108fa82534272409cfa77694fcd",
        },
        "bound": {
            "bound.csv": "5a14b9d594089ba0ab20bad627a59e6a3b1e804e8fd6f2fb8a7c78689ae189a9",
            "bound.json": "13fd8a7146951be2c270dac96d34a04fd3d30990f8d0c5e39915f2d365e8cc9b",
        },
        "evaluate": {
            "evaluate.json": "4b7e61ebcd9c2e212db4a69395261ad4e773b165b2f02fd213b73ea29cf55ea2",
            "evaluate_n16.csv": "8388c3e15d353af14520ae36cbbd744e81aad5ba497846fa435cd85733949f08",
            "evaluate_n64.csv": "06f49250b75373d5f89a61afef345dfce15aa27c8fe1f37aa2b243af11765ebc",
        },
        "modulus": {
            "modulus.csv": "54727fb0529a34c780a96d47fdb11944aeeeef47f5fd85d5aaa65b2438c59aa0",
            "modulus.json": "87e3be02d3aa2c85dfe25e74107d63be877c2d7c672b891364149d4419aa9584",
        },
        "tail": {
            "tail.csv": "70d6a5b211c4a1fc58c9595e1f14ab3fb209d9f8c4dc9bce10b5434f10e63dfe",
            "tail.json": "2e4e939c05dad000ec020b92c4cfc80af516802cfd7ff591ba045c66c890e9af",
        },
    },
    "poisson-exp": {
        "run": {
            "report.json": "b3308d0838ba4ddbc64c6425358480259788fc105404b84660c1c570893d6418",
            "table.csv": "75b13acdf43209b0dad98805953c0838e7f7234b1c8645821513fc47882d3f55",
        },
        "bound": {
            "bound.csv": "a8b17ae7b0b5d1bc913d3b1c820bae8f3a81247da27731ab1fc8e0ae906bcfd9",
            "bound.json": "6616ac6c2db867fec174bf136ac10d12c909d57f4928a607aecd99c94e6f31ab",
        },
        "evaluate": {
            "evaluate.json": "915246c5c5e872e25dc1ee0f7090ce53deccfdab7600bd75bc4b6dfd4159e9da",
            "evaluate_n16.csv": "e53019ec889c25322e664513ff23fbfc3c606f3e66c35ac5220a0a6ebde7a755",
            "evaluate_n64.csv": "e2ff2fb2c8cd8483eda2cfa963257448f5476a65e7dc7a2a915563996b810914",
        },
        "modulus": {
            "modulus.csv": "d08b0383e54bf05ca8b5803ee61821c792cc1fe4c6a7ff4ac92802026dd17fbe",
            "modulus.json": "4c39529020970633f3b0411de37d8750f6efcb5e77b529db54e3b71dbf178373",
        },
        "tail": {
            "tail.csv": "67d53ee5f782bdecbe7d483716d6478ecfc84e4caa72c841461f49ff4d0ff964",
            "tail.json": "6d1c501d106fd9e35c18f7c176b61b59db987c75f7fd7ad2ffe562a5236254fa",
        },
    },
}


def digests(out) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir()) if p.name != "timings.csv"
    }


@pytest.mark.parametrize("cmd", ["run", "bound", "evaluate", "modulus", "tail"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_canonical_bytes(tmp_path, config, cmd):
    res = CliRunner().invoke(main, [cmd, "--out", str(tmp_path)] + CONFIGS[config])
    assert res.exit_code == 0, res.output
    assert digests(tmp_path) == GOLDEN[config][cmd]


def test_the_cap_config_reads_past_the_last_line():
    study = Study(cfgmod.resolve(overrides=cfgmod.parse_overrides(CONFIGS["bern-cusp-cap"][1::2])))
    with pytest.warns(BoundaryWarning) as record:
        study.z_max
    assert study.curve.params["lambda_cap"] == 6.0
    assert [str(w.message).rsplit("u=", 1)[1] for w in record] == ["64", "32"]
