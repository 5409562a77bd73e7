"""Golden bytes: SHA-256 digests of every canonical file the five subcommands
write, on three small configs.

A change that moves a byte of a report must update the digest here on
purpose.  `timings.csv` holds wall times and is not canonical.
"""

import hashlib

import pytest
from click.testing import CliRunner

from bernapprox.cli import main

CONFIGS = {
    # Bernoulli cusp with a trial column
    "bern-cusp": [
        "--set", "grids.x_size=65", "--set", "grids.delta_size=17",
        "--set", "grids.z_size=65", "--set", "tail.lambda_size=301",
        "--set", "run.n_grid=16,64",
        "--set", "function.name=power-cusp", "--set", "function.alpha=0.5",
        "--set", "family.eps=0.05", "--set", "trial.x0=0.5", "--set", "trial.alpha=0.5",
    ],
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
            "report.json": "ff1bc44e52515d23a86973664860ca687824aea54474064a364cc29c26180196",
            "table.csv": "a4be35909c87bc28fef0d48b4b39d4e46618b2d7133e36a8e88d62a56463bbbf",
        },
        "bound": {
            "bound.csv": "8e147f62a6e39194275880d2ce7b8c187ec983d108781bcabe5fe11a4b804e24",
            "bound.json": "1ab841643b992a69e5956cb2a2b3237f7cb5c8caebae946cf798af556200418e",
        },
        "evaluate": {
            "evaluate.json": "282139b9fe84bbf477ab7b41c9e4aa7f9e98f57fae79e44ebd21084ae82138c2",
            "evaluate_n16.csv": "3cb5e402ccff87a1725f2891b048dba622d9e41aa503f292226225a872faceda",
            "evaluate_n64.csv": "5e9d38c7c19be22dc0dc65cf3a81e3a4fcb182dcb4295623393cd4bfa2932250",
        },
        "modulus": {
            "modulus.csv": "3ac28989ce5dd0a00935dade02969d3beb7d2eb644c49607bea6475471555e78",
            "modulus.json": "93a779badddcd5f66c7175da4590e39022cf332cce9813e5c324a08ae422a195",
        },
        "tail": {
            "tail.csv": "9599110b616e1b55a5185ccbb82fe7dfecc3351cd9419cbfb5aaca5a54baab2c",
            "tail.json": "c2677934b39828a47b459fb97c125c2d5524f623bf8d27effcec1a0b1a2ebf80",
        },
    },
    "bern-cusp": {
        "run": {
            "report.json": "3f5328b95137570928458c9ab6149c38ba5db12702ae66e632f70098d345c35c",
            "table.csv": "b1c212cdc16a8c660f756c28d1236d37d2ca337e896c849a0783ff95a3d4b84f",
        },
        "bound": {
            "bound.csv": "f45af55fa8b63e67f8a2a66695c7cc3640f91be1e734a1ca0b8b6201c95d54e3",
            "bound.json": "c32ee372d0d89675f15b755e2406a046f276101388a6a69406acd22a767fc865",
        },
        "evaluate": {
            "evaluate.json": "f707219c1dad8e8f836b044381ea6073d64db6d6a06d5408b05a4b42263b81d0",
            "evaluate_n16.csv": "8388c3e15d353af14520ae36cbbd744e81aad5ba497846fa435cd85733949f08",
            "evaluate_n64.csv": "06f49250b75373d5f89a61afef345dfce15aa27c8fe1f37aa2b243af11765ebc",
        },
        "modulus": {
            "modulus.csv": "54727fb0529a34c780a96d47fdb11944aeeeef47f5fd85d5aaa65b2438c59aa0",
            "modulus.json": "5ccaf4279fa26e31ffd5d543f1278fd3900de63905b50a526f6432d539151a1e",
        },
        "tail": {
            "tail.csv": "e3d064e40ac45577f05adb88843c71fca64aaf0e740d20056a22e9b0c1254ca5",
            "tail.json": "eaae4ed0c666e6728a3d3274055102f5921fe9595ccb653941ad3b7da6d3e5e7",
        },
    },
    "poisson-exp": {
        "run": {
            "report.json": "0484e5818171232508c62ba85775f0fa4b6f5bdaf704e74df2079ec133a16cee",
            "table.csv": "75b13acdf43209b0dad98805953c0838e7f7234b1c8645821513fc47882d3f55",
        },
        "bound": {
            "bound.csv": "a8b17ae7b0b5d1bc913d3b1c820bae8f3a81247da27731ab1fc8e0ae906bcfd9",
            "bound.json": "3f8239e81c5234dba1967517e119485ce0722b4ad1d3cd67c85553c7992bf091",
        },
        "evaluate": {
            "evaluate.json": "16490a9aa2aa46c7ecf8843a57c28045f1cbb2aef39b934b7e679145ce0c0abe",
            "evaluate_n16.csv": "e53019ec889c25322e664513ff23fbfc3c606f3e66c35ac5220a0a6ebde7a755",
            "evaluate_n64.csv": "e2ff2fb2c8cd8483eda2cfa963257448f5476a65e7dc7a2a915563996b810914",
        },
        "modulus": {
            "modulus.csv": "d08b0383e54bf05ca8b5803ee61821c792cc1fe4c6a7ff4ac92802026dd17fbe",
            "modulus.json": "a21447a1f975cc67492bbdea38e9a28cef37ce75b9b8151341285bd84aae2d64",
        },
        "tail": {
            "tail.csv": "67d53ee5f782bdecbe7d483716d6478ecfc84e4caa72c841461f49ff4d0ff964",
            "tail.json": "01265d7f46c46ae7935674dda5ef4b244151e35daf985d3aff66d05939262ba7",
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
