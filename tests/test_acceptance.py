"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import POISSON_PHI, exp_tail_curve, fenchel_conjugate, hdt_bound_exp, law_breakpoints

from bernapprox.bounds import hdt_bound, lower_bound_constant
from bernapprox.cli import main as cli_main
from bernapprox.experiments import ExperimentConfig, Study, validity_check
from bernapprox.families import bernoulli_family, poisson_conjugate, poisson_family
from bernapprox.functions import HolderSpec, builtin_catalog, trial_function
from bernapprox.operators import sup_error
from bernapprox.tails import exact_law_curve

# x = 0.01 .. 0.99 in steps of 0.01: the x-domain ends short of 0 and 1, where sigma vanishes
MATRIX_FAMILY = bernoulli_family(0.01)
X_MATRIX = np.linspace(*MATRIX_FAMILY.x_domain, 99)
N_MATRIX = (1, 2, 10, 100, 1000)


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_affine_reproduction():
    f = builtin_catalog("identity")
    t0 = time.perf_counter()
    worst = max(float(np.max(np.abs(sup_error(f, MATRIX_FAMILY, n, X_MATRIX).values - X_MATRIX)))
                for n in N_MATRIX)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, ok, f"affine reproduction, max dev {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_variance_identity():
    f = builtin_catalog("square")
    worst = 0.0
    for n in N_MATRIX:
        got = sup_error(f, MATRIX_FAMILY, n, X_MATRIX).values - X_MATRIX**2
        worst = max(worst, float(np.max(np.abs(got - X_MATRIX * (1.0 - X_MATRIX) / n))))
    ok = worst <= 1e-10
    _report(2, ok, f"variance identity x(1-x)/n, max dev {worst:.3e}")


def test_criterion_3_szasz_mgf_identity():
    f = builtin_catalog("exp-decay")
    t0 = time.perf_counter()
    fam = poisson_family(0.5, 4.0)
    xs = np.linspace(*fam.x_domain, 36)  # steps of 0.1
    worst = 0.0
    for n in (1, 4, 16):
        got = sup_error(f, fam, n, xs, tail_tol=1e-12).values
        worst = max(worst, float(np.max(np.abs(got - np.exp(n * xs * (math.exp(-1.0 / n) - 1.0))))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(3, ok, f"Szasz MGF identity, max dev {worst:.3e}, {elapsed:.2f}s")


def test_criterion_4_poisson_conjugate_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for u in np.linspace(0.0, 20.0, 200):
        worst = max(worst, abs(fenchel_conjugate(POISSON_PHI, float(u)) - poisson_conjugate(float(u))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(4, ok, f"Poisson conjugate closed form, max dev {worst:.3e}, {elapsed:.2f}s")


def test_criterion_5_bound_validity():
    t0 = time.perf_counter()
    n_grid = (16, 64, 256, 1024, 4096)
    violations = []
    for alpha in (0.5, 1.0):
        cfg = ExperimentConfig(
            function_name="power-cusp", function_x0=0.5, function_alpha=alpha,
            family_kind="bernoulli", family_eps=0.05, n_grid=n_grid,
        )
        summary = validity_check(Study(cfg).table(trial=True))
        violations.extend(summary.violations)
    cfg = ExperimentConfig(
        function_name="exp-decay", family_kind="poisson", n_grid=n_grid,
    )
    summary = validity_check(Study(cfg).table(trial=True))
    violations.extend(summary.violations)
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 300.0
    _report(5, ok, f"bound validity over 3 functions x 5 n, "
                   f"{len(violations)} violations, {elapsed:.1f}s")


def test_criterion_6_rate_windows():
    t0 = time.perf_counter()
    slopes = {}
    for alpha in (0.5, 1.0):
        cfg = ExperimentConfig(
            function_name="power-cusp", function_x0=0.5, function_alpha=alpha,
            family_kind="bernoulli",
            n_grid=tuple(2**k for k in range(4, 13)),
        )
        slopes[alpha] = Study(cfg).table(trial=True).fit.slope
    elapsed = time.perf_counter() - t0
    ok = all(-a / 2 - 0.1 <= s <= -a / 2 + 0.1 for a, s in slopes.items()) and elapsed < 300.0
    _report(6, ok, f"log-log slopes {slopes[0.5]:.3f} (target -0.25), "
                   f"{slopes[1.0]:.3f} (target -0.5), {elapsed:.1f}s")


def exact_binomial_mad(n: int) -> float:
    total = 0
    c = 1
    for k in range(n + 1):
        total += c * abs(2 * k - n)
        c = c * (n - k) // (k + 1)
    return float(Fraction(total, 2 * n) / Fraction(2) ** n)


def test_criterion_7_lower_bound_constant_and_trajectory():
    g1 = lower_bound_constant(1.0)
    ok_value = abs(g1 - 0.797885) <= 1e-6

    rng = np.random.Generator(np.random.PCG64(20240809))
    draws = np.abs(rng.standard_normal(1_000_000))
    mc = float(np.mean(draws))
    se = float(np.std(draws, ddof=1)) / 1000.0
    ok_mc = abs(g1 - mc) <= 4.0 * se

    g = trial_function(0.5, 1.0)
    fam = bernoulli_family()
    study = Study(ExperimentConfig(trial_x0=0.5, trial_alpha=1.0, n_grid=(4096,)))
    ratio = study.row(4096, trial=True).lower_ratio
    target = 0.5 * g1
    ok_traj = 0.98 * target <= ratio <= 1.02 * target
    delta = sup_error(g, fam, 4096, np.linspace(*fam.x_domain, 257)).delta
    ok_oracle = abs(delta - exact_binomial_mad(4096)) <= 1e-12

    ok = ok_value and ok_mc and ok_traj and ok_oracle
    _report(7, ok, f"G(1)={g1:.6f} (mc {mc:.6f}), sqrt(n) Delta_4096 = {ratio:.6f} "
                   f"vs 0.5 G(1) = {target:.6f}")


def test_criterion_8_atf_dominance():
    # Hoeffding holds exactly for Rademacher sums, so the exact law at x = 1/2, n = 1..64, lies at
    # or below min(1, 2 exp(-u^2/2)) with no allowance; a tolerance of 1e-300, which no window of
    # these n reaches, keeps the curve the law itself.  Each step is read at its right end
    t0 = time.perf_counter()
    fam, ns = bernoulli_family(), range(1, 65)
    breaks = np.unique(np.concatenate([law_breakpoints(fam, 0.5, n, 1e-300) for n in ns]))
    us = np.nextafter(breaks[1:], 0.0)
    excess = exact_law_curve(fam, 0.5, ns, 1e-300).at(us) - np.minimum(1.0, 2.0 * np.exp(-us * us / 2.0))
    worst_excess = float(np.max(excess))
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 0.0 and elapsed < 60.0
    _report(8, ok, f"exact tail law below min(1, 2exp(-u^2/2)) at {us.size} step ends, "
                   f"worst excess {worst_excess:.3e}, {elapsed:.1f}s")


def test_criterion_9_formula_discrepancy_ledger():
    res = hdt_bound_exp(HolderSpec(1.0, 1.0), 2.0, 0.5, 1)
    direct_expected = math.sqrt(math.pi / 2.0)
    printed_expected = math.sqrt(2.0 * math.pi)
    # the certified upper sum the CLI reports, against the same curve
    certified = hdt_bound(HolderSpec(1.0, 1.0), exp_tail_curve(2.0, 0.5), 1).value
    ok = (
        abs(res.direct - direct_expected) <= 1e-6 * direct_expected
        and abs(res.printed_formula - printed_expected) <= 1e-6 * printed_expected
        and abs(res.ratio - 2.0) <= 1e-6
        and res.direct <= certified <= 1.01 * res.direct
    )
    _report(9, ok, f"direct {res.direct:.6f} vs printed {res.printed_formula:.6f}, "
                   f"flagged ratio q = {res.ratio:.6f}, certified upper sum {certified:.6f}")


def test_criterion_10_demo_determinism(tmp_path):
    from click.testing import CliRunner

    runner = CliRunner()
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = runner.invoke(cli_main, ["run", "--config", "demo:bernstein", "--out", str(out)])
        assert res.exit_code == 0, res.output
        outputs.append(out)
    same_csv = (outputs[0] / "table.csv").read_bytes() == (outputs[1] / "table.csv").read_bytes()
    same_json = (outputs[0] / "report.json").read_bytes() == (outputs[1] / "report.json").read_bytes()
    ok = same_csv and same_json
    _report(10, ok, f"demo reruns byte-identical: csv={same_csv}, json={same_json}")
