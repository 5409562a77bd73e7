import json
from dataclasses import replace

import numpy as np
import pytest

from bernapprox.bounds import lower_bound_constant
from bernapprox.errors import InsufficientDataError, ParameterError
from bernapprox.experiments import (
    ConvergenceRow,
    ConvergenceTable,
    ExperimentConfig,
    Study,
    rate_fit,
    validity_check,
    write_csv,
    write_json,
    write_report,
    write_timings,
)
from bernapprox.operators import MAX_BERNSTEIN_N


def make_table(rows, fit=None):
    return ConvergenceTable(rows=tuple(rows), config={"demo": True}, seed=1, fit=fit)


def synthetic_row(n, delta, upper=1.0, ratio=None):
    return ConvergenceRow(
        n=n, empirical_delta=delta, argmax_x=0.5, error_radius=0.0,
        lower_bracket=0.0, upper_stieltjes=upper, upper_bracket=upper, lower_ratio=ratio,
    )


class TestExperimentConfig:
    def test_defaults_valid(self):
        ExperimentConfig()

    def test_n_grid_must_increase(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(n_grid=(16, 16))

    @pytest.mark.parametrize("name", ["tail_source", "tail_p", "tail_k"])
    def test_no_field_picks_another_tail_curve(self, name):
        # the study's tail curve is its family's certified one, so no field names another
        with pytest.raises(TypeError, match=name):
            ExperimentConfig(**{name: "power-tail" if name == "tail_source" else 2.0})

    def test_trial_fields_together(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(trial_x0=0.5)

    @pytest.mark.parametrize("name", ["square", "sine", "power-cusp", "constant", "identity"])
    def test_function_interval_holds_the_x_domain(self, name):
        with pytest.raises(ParameterError, match=f"function.name={name} .*family.kind=poisson"):
            ExperimentConfig(function_name=name, family_kind="poisson")
        # a Poisson x-domain inside [0, 1] is held, and exp-decay holds every x-domain
        ExperimentConfig(function_name=name, family_kind="poisson", family_x_min=0.25, family_x_max=0.75)
        for kind in ("bernoulli", "poisson"):
            ExperimentConfig(function_name="exp-decay", family_kind=kind)


@pytest.mark.parametrize("x_max", [8.0, 200.0])  # not the default 64
def test_poisson_modulus_window_follows_the_x_domain(x_max):
    # the bound is applied at every x of [x_min, x_max], so the modulus x-sup covers it
    study = Study(ExperimentConfig(family_kind="poisson", function_name="exp-decay", family_x_max=x_max,
                                   x_grid_size=33, delta_grid_size=9, n_grid=(16, 64)))
    assert study.profile.metadata["x_window"] == (0.0, x_max)


class TestRunConvergence:
    def test_constant_function_all_zero(self):
        cfg = ExperimentConfig(
            function_name="constant", n_grid=(16, 64), x_grid_size=65,
            delta_grid_size=17, z_grid_size=65, tail_lambda_size=301,
        )
        table = Study(cfg).table(trial=True)
        assert all(r.empirical_delta <= 1e-12 for r in table.rows)
        assert all(r.upper_bracket >= 0.0 for r in table.rows)

    def test_square_closed_form_deltas(self):
        cfg = ExperimentConfig(
            function_name="square", n_grid=(10, 40), x_grid_size=65,
            delta_grid_size=17, z_grid_size=65, tail_lambda_size=301,
        )
        table = Study(cfg).table(trial=True)
        assert table.rows[0].empirical_delta == pytest.approx(0.025, abs=1e-12)
        assert table.rows[1].empirical_delta == pytest.approx(0.00625, abs=1e-12)
        assert table.rows[0].argmax_x == pytest.approx(0.5, abs=1e-12)

    def test_trial_deltas_strictly_decreasing(self):
        cfg = ExperimentConfig(
            function_name="power-cusp", function_alpha=0.5,
            trial_x0=0.5, trial_alpha=0.5,
            n_grid=(16, 64, 256), x_grid_size=65,
            delta_grid_size=17, z_grid_size=65, tail_lambda_size=301,
        )
        table = Study(cfg).table(trial=True)
        deltas = [r.empirical_delta for r in table.rows]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))
        assert all(r.lower_ratio is not None for r in table.rows)

    def test_cusp_trial_ratio_at_the_largest_n(self):
        # Delta_n[g] n^{1/4} for g = |x - 1/2|^{1/2} tends to G(1/2) sigma(1/2)^{1/2};
        # measured 3.9e-6 below it at n = 2^22
        cfg = ExperimentConfig(
            function_name="power-cusp", function_alpha=0.5, family_eps=0.05,
            trial_x0=0.5, trial_alpha=0.5, n_grid=(MAX_BERNSTEIN_N,),
        )
        ratio = Study(cfg).row(MAX_BERNSTEIN_N, trial=True).lower_ratio
        assert ratio == pytest.approx(lower_bound_constant(0.5) * 0.5**0.5, abs=1e-4)

    def test_validity_on_real_run(self):
        cfg = ExperimentConfig(
            function_name="square", n_grid=(16, 64, 256), x_grid_size=65,
            delta_grid_size=17, z_grid_size=65, tail_lambda_size=301,
        )
        summary = validity_check(Study(cfg).table(trial=True))
        assert summary.passed and not summary.violations


class TestRateFit:
    def test_exact_power_law(self):
        rows = [synthetic_row(n, n**-0.5) for n in (16, 64, 256, 1024)]
        fit = rate_fit(make_table(rows))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-10)

    def test_square_on_bernoulli_rate(self):
        cfg = ExperimentConfig(
            function_name="square", n_grid=(8, 16, 32, 64, 128), x_grid_size=65,
            delta_grid_size=17, z_grid_size=65, tail_lambda_size=301,
        )
        table = Study(cfg).table(trial=True)
        # Lipschitz guarantees only -1/2; the observed rate is the faster -1
        assert table.fit.slope == pytest.approx(-1.0, abs=1e-10)

    def test_zero_rows_excluded_and_minimum_enforced(self):
        rows = [synthetic_row(n, 0.0) for n in (16, 64, 256, 1024)]
        with pytest.raises(InsufficientDataError):
            rate_fit(make_table(rows))
        rows = [synthetic_row(16, 0.0)] + [synthetic_row(n, n**-1.0) for n in (64, 256, 1024)]
        with pytest.raises(InsufficientDataError):
            rate_fit(make_table(rows))

    def test_slope_window_for_trials(self):
        for alpha in (0.5, 1.0):
            cfg = ExperimentConfig(
                function_name="power-cusp", function_alpha=alpha,
                n_grid=tuple(2**k for k in range(4, 13)), x_grid_size=129,
                delta_grid_size=17, z_grid_size=65, tail_lambda_size=301,
            )
            table = Study(cfg).table(trial=True)
            assert -alpha / 2 - 0.1 <= table.fit.slope <= -alpha / 2 + 0.1


class TestValidityCheck:
    def test_violation_reported_with_context(self):
        rows = [synthetic_row(16, 0.5), synthetic_row(64, 2.0)]
        summary = validity_check(make_table(rows))
        assert not summary.passed
        assert len(summary.violations) == 1
        assert summary.violations[0]["n"] == 64
        assert summary.violations[0]["excess"] == pytest.approx(1.0)

    def test_radius_allowance(self):
        row = synthetic_row(16, 1.05)._replace(error_radius=0.1)
        assert validity_check(make_table([row])).passed

    def test_empty_table_vacuous_pass(self):
        summary = validity_check(make_table([]))
        assert summary.passed
        assert summary.violations == ()


class TestReports:
    def fixture_table(self):
        rows = [synthetic_row(16, 0.5, ratio=0.4), synthetic_row(64, 0.25, ratio=None)]
        return ConvergenceTable(
            rows=tuple(rows), config={"function_name": "square", "n_grid": (16, 64)},
            seed=7, wall_times=(0.1, 0.2),
        )

    def test_empty_table_header_only(self, tmp_path):
        write_report(make_table([]), "csv", tmp_path / "t.csv")
        text = (tmp_path / "t.csv").read_text()
        assert text.splitlines() == [
            "n,empirical_delta,argmax_x,error_radius,lower_bracket,"
            "upper_stieltjes,upper_bracket,lower_ratio"
        ]

    def test_identical_tables_identical_bytes(self, tmp_path):
        t = self.fixture_table()
        write_report(t, "csv", tmp_path / "a.csv")
        write_report(t, "csv", tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        write_report(t, "json", tmp_path / "a.json")
        write_report(t, "json", tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_wall_times_never_in_canonical_outputs(self, tmp_path):
        t = self.fixture_table()
        write_report(t, "csv", tmp_path / "t.csv")
        write_report(t, "json", tmp_path / "t.json")
        assert "wall" not in (tmp_path / "t.csv").read_text()
        assert "wall" not in (tmp_path / "t.json").read_text()
        write_timings(t, tmp_path / "timings.csv")
        assert "wall_time_s" in (tmp_path / "timings.csv").read_text()

    def test_json_keys_sorted(self, tmp_path):
        t = self.fixture_table()
        write_report(t, "json", tmp_path / "t.json")
        payload = json.loads((tmp_path / "t.json").read_text())
        assert list(payload.keys()) == sorted(payload.keys())

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            write_report(make_table([]), "xml", tmp_path / "t.xml")

    def test_seventeen_digit_floats(self, tmp_path):
        rows = [synthetic_row(16, 1 / 3)]
        write_report(make_table(rows), "csv", tmp_path / "t.csv")
        assert "0.33333333333333331" in (tmp_path / "t.csv").read_text()

    def test_non_finite_floats_are_null_in_json_and_inf_in_csv(self, tmp_path):
        rows = [{"n": 16, "closed_form": float("inf"), "ratio": 0.5},
                {"n": 64, "closed_form": float("nan"), "ratio": -float("inf")}]

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        write_json(tmp_path / "t.json", {"rows": rows, "pair": (1.0, float("inf"))})
        payload = json.loads((tmp_path / "t.json").read_text(), parse_constant=refuse)
        assert payload == {"rows": [{"n": 16, "closed_form": None, "ratio": 0.5},
                                    {"n": 64, "closed_form": None, "ratio": None}],
                           "pair": [1.0, None]}
        write_csv(tmp_path / "t.csv", ["n", "closed_form", "ratio"], [list(r.values()) for r in rows])
        assert (tmp_path / "t.csv").read_text().splitlines() == [
            "n,closed_form,ratio", "16,inf,0.5", "64,nan,-inf"]

    def test_rows_must_be_sorted(self):
        with pytest.raises(ParameterError):
            make_table([synthetic_row(64, 0.1), synthetic_row(16, 0.2)])


def test_full_run_determinism():
    cfg = ExperimentConfig(
        function_name="square", n_grid=(16, 64), x_grid_size=65,
        delta_grid_size=17, z_grid_size=65, tail_lambda_size=301,
    )
    t1 = Study(cfg).table(trial=True)
    t2 = Study(cfg).table(trial=True)
    assert t1 == t2


def test_monte_carlo_mode_run():
    cfg = ExperimentConfig(
        function_name="square", n_grid=(16, 64), x_grid_size=65,
        delta_grid_size=17, z_grid_size=65, tail_lambda_size=301,
        mode="monte-carlo", mc_trials=2000, trial_x0=0.5, trial_alpha=0.5,
    )
    table = Study(cfg).table(trial=True)
    assert all(r.error_radius > 0 for r in table.rows)
    assert validity_check(table).passed
    # the trial cusp takes the exact path in either mode
    exact = Study(replace(cfg, mode="exact")).table(trial=True)
    assert [r.lower_ratio for r in table.rows] == [r.lower_ratio for r in exact.rows]


def test_write_report_io_error(tmp_path):
    from bernapprox.errors import ReportIOError

    with pytest.raises(ReportIOError, match="missing"):
        write_report(make_table([]), "csv", tmp_path / "missing" / "t.csv")


def test_profile_evaluates_f_once_per_grid_point():
    # f(x) once, then f once per (x, h) point of each nonzero delta: the slack
    # is read off these points, with no second pass over a half grid
    cfg = ExperimentConfig()
    study = Study(cfg)
    evaluator, count = study.f.evaluator, [0]

    def counting(x):
        count[0] += np.size(x)
        return evaluator(x)

    study.f = study.f._replace(evaluator=counting)
    _ = study.profile
    assert count[0] <= cfg.x_grid_size * (1 + (cfg.delta_grid_size - 1) * cfg.h_grid_size) == 802_097
