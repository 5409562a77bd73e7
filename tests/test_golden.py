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
            "modulus.csv": "3ac28989ce5dd0a00935dade02969d3beb7d2eb644c49607bea6475471555e78",
            "modulus.json": "0c1158374f8127d902204a4ad7403c920c600376331d72336f5e1a2688a181b8",
        },
        "tail": {
            "tail.csv": "9599110b616e1b55a5185ccbb82fe7dfecc3351cd9419cbfb5aaca5a54baab2c",
            "tail.json": "78cd31f920e7a44b8e7814d1a9c7d93dfd043eb72dac34cfe18314aeeec8a04d",
        },
    },
    "bern-cusp": {
        "run": {
            "report.json": "f6bcefe5da45ab1e4a1711668d4ca98021001467c8e2ae5f9b987315fccda487",
            "table.csv": "b1c212cdc16a8c660f756c28d1236d37d2ca337e896c849a0783ff95a3d4b84f",
        },
        "bound": {
            "bound.csv": "f45af55fa8b63e67f8a2a66695c7cc3640f91be1e734a1ca0b8b6201c95d54e3",
            "bound.json": "a88bf56275e42f31c582d6102d073d0d38e99061ec386a0e206428df7d3cc2f6",
        },
        "evaluate": {
            "evaluate.json": "8c5c25569774b03d4c91fb1a6c71ccf5f901bf393224ba609cbddb37a7404a56",
            "evaluate_n16.csv": "8388c3e15d353af14520ae36cbbd744e81aad5ba497846fa435cd85733949f08",
            "evaluate_n64.csv": "06f49250b75373d5f89a61afef345dfce15aa27c8fe1f37aa2b243af11765ebc",
        },
        "modulus": {
            "modulus.csv": "54727fb0529a34c780a96d47fdb11944aeeeef47f5fd85d5aaa65b2438c59aa0",
            "modulus.json": "29da57a749eb78a17b4f96e78a1b2dadeddf918aee29b2a1e3de464706b8aa16",
        },
        "tail": {
            "tail.csv": "e3d064e40ac45577f05adb88843c71fca64aaf0e740d20056a22e9b0c1254ca5",
            "tail.json": "d8c52c7986801b46d9e08b41d8591643c7f8c826e97e3e6438288910d6d53cb0",
        },
    },
    "bern-cusp-cap": {
        "run": {
            "report.json": "25f98b6fe65b128438d729d777950ec6da888c184725e003994a325ca5614f06",
            "table.csv": "9e7ca09af6f4187252ebcaf247d34da931c36108fa82534272409cfa77694fcd",
        },
        "bound": {
            "bound.csv": "5a14b9d594089ba0ab20bad627a59e6a3b1e804e8fd6f2fb8a7c78689ae189a9",
            "bound.json": "616692031399714a96198d1009805e21aee626d993417171fb418b4cb85bc8c6",
        },
        "evaluate": {
            "evaluate.json": "2f78b051a41ea67a89004cd553607cf7d57547f14174170fb3c5b17e7151009e",
            "evaluate_n16.csv": "8388c3e15d353af14520ae36cbbd744e81aad5ba497846fa435cd85733949f08",
            "evaluate_n64.csv": "06f49250b75373d5f89a61afef345dfce15aa27c8fe1f37aa2b243af11765ebc",
        },
        "modulus": {
            "modulus.csv": "54727fb0529a34c780a96d47fdb11944aeeeef47f5fd85d5aaa65b2438c59aa0",
            "modulus.json": "b07e15ea753d512c48a219865b0228001a08bc403137cad7f6190cd4f9acbee0",
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
            "modulus.csv": "d08b0383e54bf05ca8b5803ee61821c792cc1fe4c6a7ff4ac92802026dd17fbe",
            "modulus.json": "374026c1dbd8603643f2b294edd56c6c9b5fd2ef6ff7ab1eb292272c098a76a4",
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
