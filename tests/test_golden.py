"""Golden bytes: SHA-256 digests of every canonical file the five subcommands
write, on two small configs.

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
}

GOLDEN = {
    "bern-cusp": {
        "run": {
            "report.json": "22d5573225606c0dc6e893947d430bb0096ac6ae7b36cfda1ba79ac69a901caa",
            "table.csv": "a74e5c4b4b65c20736373b41fbcccc2c67a5c463f9d39b5d827e13bbf7b97075",
        },
        "bound": {
            "bound.csv": "7e1417cb281a0d3a5ca4c2dbdfe4eadbbb2fa2b5b2a150d3df0246d59d85adc1",
            "bound.json": "199fe29aae1c223734b6868b0121d0cd4b63f07a8edaa3a5b02922a75a852e77",
        },
        "evaluate": {
            "evaluate.json": "c314d1f2974869403af4669d26abac212ac66ce4a9139ff9b352e3731ae596f0",
            "evaluate_n16.csv": "2bf82333bcf332f4cbeb9162390a39b3475b2d3e965e92557e63ade6281545d0",
            "evaluate_n64.csv": "8ae959d75778f9c0a8c5df04884c26360896197f0665024c5821013f27510371",
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
            "report.json": "a85d96e6d6f83073d28196d7284e15871404220abb765d6efae278c853a23f99",
            "table.csv": "f62a2394c7c41ea1ea8bc831d0c11e29ff277e8c0f6b29b343327470850eb394",
        },
        "bound": {
            "bound.csv": "fd4c69d4bca87867831b0c89fa6f9d5d3d3c0f50ac02e27ef010a7fed1e0ddbe",
            "bound.json": "aef7fea1c9869ab7604a61f98b18330db3feefe084de51d1d533e8c02fc4e920",
        },
        "evaluate": {
            "evaluate.json": "280896a970a866a0982cc8abc4778534831aa72ecbfc972c1cb2810f28ce01ca",
            "evaluate_n16.csv": "c29c1f086d510237118f22ceb57b5d06341bfefc895b21ddc4ac30f8c3779cd1",
            "evaluate_n64.csv": "faa0e4fa687c9f72e4e6ee105a3aa2af5853be9a0f64a62d0508248e9176a03f",
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
