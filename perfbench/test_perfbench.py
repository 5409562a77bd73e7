"""The benchmark's own tests: python3 -m pytest -q perfbench (from the repo root)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import checks
from workloads import SMOKE_OVERRIDES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Tiny reports from the real CLI for the two workloads with analytic checks."""
    out = {}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name in ("bern-square-bound", "poisson-szasz-run"):
        wl = WORKLOADS[name]
        d = tmp_path_factory.mktemp(name)
        sets = [a for kv in wl.overrides + SMOKE_OVERRIDES for a in ("--set", kv)]
        subprocess.run(
            [sys.executable, "-m", "bernapprox.cli", wl.command, *sets, "--out", str(d)],
            cwd=ROOT, env=env, check=True, capture_output=True, timeout=170,
        )
        out[name] = d
    return out


def _corrupt_digit(text: str, key: str, position: int) -> str:
    """Change the digit at `position` of the first value of `key`."""
    m = re.search(rf'"{key}": ([0-9.e-]+)', text)
    start = m.start(1) + [i for i, c in enumerate(m.group(1)) if c.isdigit()][position]
    digit = str((int(text[start]) + 1) % 10)
    return text[:start] + digit + text[start + 1:]


@pytest.mark.parametrize("workload", ["bern-square-bound", "poisson-szasz-run"])
def test_checker_accepts_real_report(reports, workload):
    wl = WORKLOADS[workload]
    assert checks.check_report(wl, checks.load_report(wl, reports[workload])) == []


@pytest.mark.parametrize("workload", ["bern-square-bound", "poisson-szasz-run"])
def test_checker_rejects_one_corrupted_digit(reports, workload, tmp_path):
    wl = WORKLOADS[workload]
    good = (reports[workload] / wl.report).read_text()
    key = checks.empirical_key(wl)
    # a leading digit breaks the analytic identity
    bad = json.loads(_corrupt_digit(good, key, 2))
    assert checks.check_report(wl, bad)
    # the last digit is below every tolerance, but not below the byte comparison
    last = _corrupt_digit(good, key, -1)
    assert last != good
    assert checks.compare_reports({wl.report: good.encode()}, {wl.report: last.encode()})
    assert checks.compare_reports({wl.report: good.encode()}, {wl.report: good.encode()}) == []


def test_run_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poisson-szasz-run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
