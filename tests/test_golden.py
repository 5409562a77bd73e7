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
            "report.json": "57d1601004eb85556878e1398d51833e94636188b28fc902ed2f9c5f9d91714c",
            "table.csv": "a4be35909c87bc28fef0d48b4b39d4e46618b2d7133e36a8e88d62a56463bbbf",
        },
        "bound": {
            "bound.csv": "8e147f62a6e39194275880d2ce7b8c187ec983d108781bcabe5fe11a4b804e24",
            "bound.json": "0da087d3ec0999900ca5d7070d4236cf10db0319530e9d2ecb9c2b1f5487fac2",
        },
        "evaluate": {
            "evaluate.json": "4e12f07663a2de39c38b03b83f62ee5f13205c9062fe1e142500d2bd5da53908",
            "evaluate_n16.csv": "3cb5e402ccff87a1725f2891b048dba622d9e41aa503f292226225a872faceda",
            "evaluate_n64.csv": "5e9d38c7c19be22dc0dc65cf3a81e3a4fcb182dcb4295623393cd4bfa2932250",
        },
        "modulus": {
            "modulus.csv": "3ac28989ce5dd0a00935dade02969d3beb7d2eb644c49607bea6475471555e78",
            "modulus.json": "c019187f9dd383aae21e26ccbbf078b51ae8d414f24b6e14b70feee2cbbbb26a",
        },
        "tail": {
            "tail.csv": "9599110b616e1b55a5185ccbb82fe7dfecc3351cd9419cbfb5aaca5a54baab2c",
            "tail.json": "db2051ce0d5210696108ffffc25885767d117fca96a45867334cd512bc55d352",
        },
    },
    "bern-cusp": {
        "run": {
            "report.json": "cfb4bd9b3f9c1058cca5ad421bc9f6ca8caf6791c8e795aaeaa55aefab3cfd65",
            "table.csv": "b1c212cdc16a8c660f756c28d1236d37d2ca337e896c849a0783ff95a3d4b84f",
        },
        "bound": {
            "bound.csv": "f45af55fa8b63e67f8a2a66695c7cc3640f91be1e734a1ca0b8b6201c95d54e3",
            "bound.json": "1bf1c7c587ddc63c38bd7490a491e3c3c0e8e36402e412235b8c716654895938",
        },
        "evaluate": {
            "evaluate.json": "97d989dd9987fe15d72ae186b61e9b6553f74efa98d4e672ae3f7b8a0de3ea18",
            "evaluate_n16.csv": "8388c3e15d353af14520ae36cbbd744e81aad5ba497846fa435cd85733949f08",
            "evaluate_n64.csv": "06f49250b75373d5f89a61afef345dfce15aa27c8fe1f37aa2b243af11765ebc",
        },
        "modulus": {
            "modulus.csv": "54727fb0529a34c780a96d47fdb11944aeeeef47f5fd85d5aaa65b2438c59aa0",
            "modulus.json": "b1a5cac989d4cabc8492baacb0d65792bcbfbeb11d51f43e43403fea7b267f7b",
        },
        "tail": {
            "tail.csv": "e3d064e40ac45577f05adb88843c71fca64aaf0e740d20056a22e9b0c1254ca5",
            "tail.json": "3bcd1e7b6abdc5ca805bba422a1f82a6619be824c7e65c418d1464f39fcda47c",
        },
    },
    "bern-cusp-cap": {
        "run": {
            "report.json": "80d0968c77adc86567838dcea79b0a37ead4d6fe489669e74a50978c6b16b062",
            "table.csv": "9e7ca09af6f4187252ebcaf247d34da931c36108fa82534272409cfa77694fcd",
        },
        "bound": {
            "bound.csv": "5a14b9d594089ba0ab20bad627a59e6a3b1e804e8fd6f2fb8a7c78689ae189a9",
            "bound.json": "cca1d85de52664f21d49843a74b11fe8ae3887c9e77bd3990d4856c6d7a102db",
        },
        "evaluate": {
            "evaluate.json": "90daa65699567dbf2601ddb7255e5501e7bdcfc14fc72142c9f7b61ee3006fe7",
            "evaluate_n16.csv": "8388c3e15d353af14520ae36cbbd744e81aad5ba497846fa435cd85733949f08",
            "evaluate_n64.csv": "06f49250b75373d5f89a61afef345dfce15aa27c8fe1f37aa2b243af11765ebc",
        },
        "modulus": {
            "modulus.csv": "54727fb0529a34c780a96d47fdb11944aeeeef47f5fd85d5aaa65b2438c59aa0",
            "modulus.json": "1938751a7855e4e30838e315616007a95f32b4e47cc41ef65cc4364e9db4e4c2",
        },
        "tail": {
            "tail.csv": "70d6a5b211c4a1fc58c9595e1f14ab3fb209d9f8c4dc9bce10b5434f10e63dfe",
            "tail.json": "cb54f2ec10ffff65397682b22bebda13e35fea405862240426eaa13fceb865f0",
        },
    },
    "poisson-exp": {
        "run": {
            "report.json": "080c77700e71f0cedbad9514007edb9740b7a95f888333a70f12d075a78812e4",
            "table.csv": "75b13acdf43209b0dad98805953c0838e7f7234b1c8645821513fc47882d3f55",
        },
        "bound": {
            "bound.csv": "a8b17ae7b0b5d1bc913d3b1c820bae8f3a81247da27731ab1fc8e0ae906bcfd9",
            "bound.json": "e57a4f1282c4deb6442fafc1084df7cc688210609431f1f3992765fcf7d2ce6d",
        },
        "evaluate": {
            "evaluate.json": "b9145c9093e971dc9c510e5fc8c384da65af2b91fbcf1126821192ba455323a1",
            "evaluate_n16.csv": "e53019ec889c25322e664513ff23fbfc3c606f3e66c35ac5220a0a6ebde7a755",
            "evaluate_n64.csv": "e2ff2fb2c8cd8483eda2cfa963257448f5476a65e7dc7a2a915563996b810914",
        },
        "modulus": {
            "modulus.csv": "d08b0383e54bf05ca8b5803ee61821c792cc1fe4c6a7ff4ac92802026dd17fbe",
            "modulus.json": "85efde600f3ee1b4727b231dc614ce76d0ca3a38185a05817fdaa610005d43bd",
        },
        "tail": {
            "tail.csv": "67d53ee5f782bdecbe7d483716d6478ecfc84e4caa72c841461f49ff4d0ff964",
            "tail.json": "b5f78d9ad8059a25b4ab935a41c4406844046376628c57722a3cfc319c24f008",
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
