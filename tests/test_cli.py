import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from condmoments import bwspace, cli, conditioning


DROP = object()  # an override that removes the field


def tiny_config(**overrides):
    experiment = {
        "experiment_id": "pinv-small",
        "estimator_id": "pinv_moment",
        "params": {"r": 1, "m": 3, "alpha": 2.0, "norm": "frobenius"},
        "samples": 4000,
        "seed": 99,
        "tolerance_sigmas": 4.0,
        "closed_form_id": "pinv_moment_value",
    }
    experiment.update(overrides)
    experiment = {k: v for k, v in experiment.items() if v is not DROP}
    return {"version": 1, "experiments": [experiment]}


class TestConfigParsing:
    def test_integer_tolerance_is_stored_as_float(self):
        tol = cli.parse_config(tiny_config(tolerance_sigmas=4))[0].tolerance_sigmas
        assert type(tol) is float and tol == 4.0

    def test_round_trip_is_idempotent(self):
        exps = cli.parse_config(tiny_config())
        doc = cli.config_to_dict(exps)
        again = cli.parse_config(doc)
        assert cli.config_to_dict(again) == doc

    def test_empty_experiment_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            cli.parse_config({"version": 1, "experiments": []})

    def test_duplicate_ids_rejected(self):
        doc = tiny_config()
        doc["experiments"].append(dict(doc["experiments"][0]))
        with pytest.raises(ValueError, match="duplicate"):
            cli.parse_config(doc)

    def test_alpha_outside_moment_range_names_constraint(self):
        doc = tiny_config(params={"n": 1, "degrees": [2], "alpha": 5.0,
                                  "relative": False, "norm": "frobenius"},
                          estimator_id="poly_moment",
                          closed_form_id="main_theorem_value")
        with pytest.raises(ValueError, match="alpha < 4 for a finite mean"):
            cli.parse_config(doc)

    def test_fractional_base_seed_rejected(self):
        doc = tiny_config()
        doc["seed"] = 2.5
        del doc["experiments"][0]["seed"]
        with pytest.raises(ValueError, match="seed must be an integer, got 2.5"):
            cli.parse_config(doc)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            cli.parse_config(tiny_config(estimator_id="bogus"))

    def test_default_suite_validates(self):
        exps = cli.default_suite()
        ids = [e.experiment_id for e in exps]
        assert len(ids) == len(set(ids))
        for e in exps:
            cli._validate_experiment(e)
        probes = [e for e in exps if e.probe]
        assert len(probes) == 2


POLY = {"experiment_id": "poly-small", "estimator_id": "poly_moment",
        "params": {"n": 2, "degrees": [2], "alpha": 2.0, "relative": False,
                   "norm": "frobenius"},
        "samples": 50, "closed_form_id": "main_theorem_value"}
SCALING_PAIR = {"experiment_id": "scaling-small", "estimator_id": "poly_scaling_pair",
                "params": {"n": 1, "degrees": [2], "alpha": 2.0, "norm": "frobenius"},
                "samples": 50}
PINV_PARAMS = tiny_config()["experiments"][0]["params"]

INVALID_EXPERIMENTS = {
    "unknown-norm": ({"params": {**PINV_PARAMS, "norm": "spectral"}}, "norm must be one of"),
    "no-closed-form": ({"closed_form_id": None}, "closed_form_id must be one of"),
    "espnormrest-fractional-alpha": (
        {"estimator_id": "espnormrest", "params": {"n": 3, "alpha": 1.5, "beta": 2.0},
         "closed_form_id": None}, "nonnegative integer"),
    "string-r": ({"params": {**PINV_PARAMS, "r": "1"}}, "r must be an integer, got '1'"),
    "float-r": ({"params": {**PINV_PARAMS, "r": 1.0}}, "r must be an integer"),
    "string-lines": ({**POLY, "lines_per_system": "8"},
                     "lines_per_system must be an integer, got '8'"),
    "zero-lines": ({**POLY, "lines_per_system": 0}, "lines_per_system must be >= 1"),
    "closed-form-on-pair": ({**SCALING_PAIR, "closed_form_id": "main_theorem_value"},
                            "take no closed_form_id"),
    "closed-form-of-other-estimator": (
        {"estimator_id": "espnormrest", "params": {"n": 3, "alpha": 1, "beta": 2.0},
         "closed_form_id": "espnorm_value"}, "espnorm_value checks espnorm,"),
    "pinv-value-off-alpha-two": ({"params": {**PINV_PARAMS, "alpha": 1.0}},
                                 "holds only at alpha = 2.0"),
    "main-theorem-relative": ({**POLY, "params": {**POLY["params"], "relative": True}},
                              "holds only at relative = False"),
    "espnorm-nan-alpha": ({"estimator_id": "espnorm", "params": {"n": 2, "alpha": math.nan},
                           "closed_form_id": "espnorm_value"}, "alpha must be finite"),
    "espnormrest-nan-beta": (
        {"estimator_id": "espnormrest", "params": {"n": 3, "alpha": 1, "beta": math.nan},
         "closed_form_id": "espnormrest_sum"}, "beta must be finite"),
    "square-infinite-k": (
        {"estimator_id": "detweighted_square",
         "params": {"r": 2, "k": math.inf, "alpha": 2.0, "norm": "frobenius"},
         "closed_form_id": "invnor2mdet_value"}, "k must be finite"),
    # a bool is not a real parameter: each of these ran at value 1
    "rect-pair-bool-alpha": (
        {"experiment_id": "rect-small", "estimator_id": "detweighted_rect_pair",
         "params": {"r": 2, "n": 3, "alpha": True, "norm": "frobenius"}, "closed_form_id": None},
        "rect-small: alpha must be a number, got True"),
    "scaling-pair-bool-alpha": (
        {**SCALING_PAIR, "params": {**SCALING_PAIR["params"], "alpha": True},
         "closed_form_id": None}, "scaling-small: alpha must be a number, got True"),
    "espnorm-bool-alpha": (
        {"experiment_id": "espnorm-small", "estimator_id": "espnorm",
         "params": {"n": 2, "alpha": True}, "closed_form_id": "espnorm_value"},
        "espnorm-small: alpha must be a number, got True"),
    "espnormrest-bool-beta": (
        {"experiment_id": "espnormrest-small", "estimator_id": "espnormrest",
         "params": {"n": 3, "alpha": 1, "beta": True}, "closed_form_id": "espnormrest_sum"},
        "espnormrest-small: beta must be a number, got True"),
    "square-bool-k": (
        {"experiment_id": "square-small", "estimator_id": "detweighted_square",
         "params": {"r": 2, "k": True, "alpha": 2.0, "norm": "frobenius"},
         "closed_form_id": "invnor2mdet_value"}, "square-small: k must be a number, got True"),
    "probe-string": ({"probe": "false"}, "probe must be true or false, got 'false'"),
    "tol-inf": ({"tolerance_sigmas": math.inf}, "tolerance_sigmas must be finite and positive"),
    "tol-nan": ({"tolerance_sigmas": math.nan}, "tolerance_sigmas must be finite and positive"),
    "tol-zero": ({"tolerance_sigmas": 0}, "tolerance_sigmas must be finite and positive"),
    "tol-bool": ({"tolerance_sigmas": True},
                 "pinv-small: tolerance_sigmas must be a number, got True"),
    "tol-string": ({"tolerance_sigmas": "3"},
                   "pinv-small: tolerance_sigmas must be a number, got '3'"),
    "fractional-samples": ({"samples": 2.5}, "samples must be an integer, got 2.5"),
    "bool-samples": ({"samples": True}, "samples must be an integer, got True"),
    "negative-seed": ({"seed": -1}, "unsigned 64-bit"),
    "huge-seed": ({"seed": 2**70}, "unsigned 64-bit"),
    "pair-negative-seed": ({**SCALING_PAIR, "seed": -1}, "unsigned 64-bit"),
    "fractional-seed": ({"seed": 99.5}, "seed must be an integer, got 99.5"),
    "fractional-lines": ({**POLY, "lines_per_system": 2.5},
                         "lines_per_system must be an integer, got 2.5"),
    "bool-lines": ({**POLY, "lines_per_system": True},
                   "lines_per_system must be an integer, got True"),
    "missing-samples": ({"samples": DROP}, "pinv-small: missing field 'samples'"),
    "missing-id-and-params": ({"experiment_id": DROP, "params": DROP},
                              "#0: missing field 'experiment_id', 'params'"),
    "params-not-object": ({"params": 5}, "pinv-small: params must be a JSON object, got 5"),
    # not a dict of overrides: the experiment itself
    "experiment-not-object": (7, "#0: experiment must be a JSON object, got 7"),
    # a key or param no table names: each once ran as if it were absent
    "misspelt-tolerance": ({"tolerance_sigma": 9.0}, "pinv-small: unknown field 'tolerance_sigma'"),
    "poly-misspelt-relative": ({**POLY, "params": {**POLY["params"], "relatve": True}},
                               "poly-small: unknown param 'relatve'"),
    "square-pair-misspelt-norm": (
        {"experiment_id": "square-pair", "estimator_id": "detweighted_square_pair",
         "params": {"r": 2, "n": 3, "nrom": "operator"}, "closed_form_id": None},
        "square-pair: unknown param 'nrom'"),
    "matrix-pair-relative": (
        {"experiment_id": "matrix-pair", "estimator_id": "poly_matrix_pair",
         "params": {"n": 2, "degrees": [2], "alpha": 2.0, "norm": "frobenius",
                    "matrix_samples": 100, "relative": False},
         "samples": 50, "closed_form_id": None},
        "matrix-pair: unknown param 'relative'"),
    # a param the estimator needs, left out or misspelt: once only "x: 'm'"
    "pinv-missing-m": ({"params": {"r": 1, "alpha": 2.0, "norm": "frobenius"}},
                       "pinv-small: missing param 'm': pinv_moment takes r, m, alpha, norm"),
    "pinv-misspelt-m": ({"params": {"r": 1, "mm": 3, "alpha": 2.0, "norm": "frobenius"}},
                        "pinv-small: unknown param 'mm'; missing param 'm': "
                        "pinv_moment takes r, m, alpha, norm"),
    "matrix-pair-missing-samples": (
        {"experiment_id": "matrix-pair", "estimator_id": "poly_matrix_pair",
         "params": {"n": 2, "degrees": [2], "alpha": 2.0, "norm": "frobenius"},
         "samples": 50, "closed_form_id": None},
        "matrix-pair: missing param 'matrix_samples'"),
}


@pytest.mark.parametrize("overrides, message", INVALID_EXPERIMENTS.values(),
                         ids=INVALID_EXPERIMENTS.keys())
def test_invalid_config_rejected_at_parse_exit_two(tmp_path, capsys, overrides, message):
    doc = (tiny_config(**overrides) if isinstance(overrides, dict)
           else {"version": 1, "experiments": [overrides]})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "rep")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_unknown_top_level_field_exit_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**tiny_config(), "sed": 5}))
    assert cli.main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "rep")]) == 2
    assert "unknown config field 'sed'" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_readme_config_example_parses():
    # the README's example config is held to the parser it documents
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("A config file looks like:", 1)[1]
    example = example.split("```json\n", 1)[1].split("```", 1)[0]
    assert [e.experiment_id for e in cli.parse_config(json.loads(example))] == ["pinv-r2m4"]


def test_run_experiment_looks_functions_up_at_call_time(monkeypatch):
    # the tables must reach montecarlo and formulas through the module, so a
    # function replaced there after import (as a layer tracer does) still runs
    from condmoments import formulas, montecarlo

    exp = cli.parse_config(tiny_config(samples=500))[0]
    seen = []
    estimate, closed_form = montecarlo.estimate_pinv_moment, formulas.pinv_moment_value
    monkeypatch.setattr(montecarlo, "estimate_pinv_moment",
                        lambda *args: seen.append("estimate") or estimate(*args))
    monkeypatch.setattr(formulas, "pinv_moment_value",
                        lambda *args: seen.append("closed_form") or closed_form(*args))
    comp = cli.run_experiment(exp)
    assert seen == ["estimate", "closed_form"]
    assert comp.estimate.n_samples == 500


# closed_form_id -> the formulas subcommand name giving its value, and the
# field read where that name returns both espnormrest forms
CLOSED_FORM_FORMULAS = {
    "pinv_moment_value": ("pinv_moment", None),
    "invnor2mdet_value": ("invnor2mdet", None),
    "main_theorem_value": ("main_theorem", None),
    "espnorm_value": ("espnorm", None),
    "espnormrest_closed": ("espnormrest", "closed_form"),
    "espnormrest_sum": ("espnormrest", "sum_form"),
}


@pytest.mark.parametrize("cf_id", list(CLOSED_FORM_FORMULAS))
def test_closed_form_reads_the_formulas_value(cf_id):
    # a verify row and the formulas subcommand read one value for each id
    assert set(CLOSED_FORM_FORMULAS) == set(cli._CLOSED_FORMS)
    exps = [e for e in cli.default_suite() if e.closed_form_id == cf_id]
    assert exps
    name, field = CLOSED_FORM_FORMULAS[cf_id]
    for exp in exps:
        expected = cli.run_formulas(name, exp.params)
        if field is not None:
            expected = expected[field]
        assert dataclasses.asdict(cli._closed_form(exp)) == expected


class TestRunVerify:
    def test_tiny_run_passes_and_writes_reports(self, tmp_path):
        exps = cli.parse_config(tiny_config())
        report = cli.run_verify(exps)
        assert report.overall_pass
        assert len(report.rows) == 1
        json_path, csv_path = cli.write_report(report, str(tmp_path))
        with open(json_path) as fh:
            data = json.load(fh)
        assert data["overall_pass"] is True
        assert data["comparisons"][0]["experiment_id"] == "pinv-small"
        with open(csv_path) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["experiment_id", "estimator_id", "params", "n_samples",
                          "mean", "stderr", "closed_form", "z", "pass"]

    def test_csv_reproducible(self):
        exps = cli.parse_config(tiny_config())
        a = cli.report_csv(cli.run_verify(exps))
        b = cli.report_csv(cli.run_verify(exps))
        assert a == b

    def test_probe_rows_excluded_from_overall(self):
        doc = tiny_config(
            experiment_id="probe-closed",
            estimator_id="espnormrest",
            params={"n": 3, "alpha": 1, "beta": 0.0},
            samples=20_000,
            closed_form_id="espnormrest_closed",
            tolerance_sigmas=5.0,
        )
        doc["experiments"][0]["probe"] = True
        report = cli.run_verify(cli.parse_config(doc))
        row = report.rows[0]
        assert row["probe"] and not row["pass"]
        assert report.overall_pass  # probes do not count

    def test_estimator_error_recorded(self):
        # a config edited after validation can still fail at run time; the
        # report records the error instead of crashing
        exps = cli.parse_config(tiny_config())
        import dataclasses

        broken = dataclasses.replace(exps[0], params={"r": 2, "m": 2, "alpha": 2.0,
                                                      "norm": "frobenius"})
        report = cli.run_verify([broken])
        assert not report.overall_pass
        assert report.rows[0]["error"]

    def test_samples_override(self):
        exps = cli.parse_config(tiny_config())
        report = cli.run_verify(exps, samples_override=2000)
        assert report.rows[0]["n_samples"] == 2000

    def test_samples_override_equal_to_own_count_replaces_matrix_samples(self):
        exp = next(e for e in cli.default_suite() if e.experiment_id == "relative-vs-matrix-n2d2")
        exp = dataclasses.replace(exp, samples=500)
        row = cli.run_verify([exp], samples_override=exp.samples).rows[0]
        assert exp.params["matrix_samples"] == 100_000
        assert (row["attempted"], row["reference_attempted"]) == (500, 500)


class TestDroppedSystems:
    def test_json_row_counts_dropped_systems_on_both_sides(self, monkeypatch):
        # a point of system 500 is moved off the zero set, to e_0, on both
        # sides of the pair: each side drops that one system of 1,000
        import numpy as np

        from condmoments import montecarlo

        real = montecarlo.roots.sample_zero_sets

        def move_a_point(seed, systems, n, d, lines):
            coeffs, pts, failed = real(seed, systems, n, d, lines)
            if 500 in systems:
                pts[systems.index(500), 0] = np.eye(n + 1)[0]
            return coeffs, pts, failed

        monkeypatch.setattr(montecarlo.roots, "sample_zero_sets", move_a_point)
        doc = tiny_config(experiment_id="scaling", estimator_id="poly_scaling_pair",
                          params={"n": 1, "degrees": [2], "alpha": 2.0, "norm": "frobenius"},
                          samples=1000, closed_form_id=DROP, lines_per_system=1)
        doc["experiments"].append(tiny_config(samples=1000)["experiments"][0])
        rows = cli.report_json(cli.run_verify(cli.parse_config(doc)))["comparisons"]
        assert rows[0]["n_samples"] == 999
        assert (rows[0]["attempted"], rows[0]["dropped"]) == (1000, 1)
        assert (rows[0]["reference_attempted"], rows[0]["reference_dropped"]) == (1000, 1)
        assert (rows[1]["attempted"], rows[1]["dropped"]) == (1000, 0)
        assert rows[1]["reference_attempted"] is None


class TestVerifyFanOut:
    """Rows of more than one block run in one process per usable CPU; the
    CPUs are forced through os.sched_getaffinity."""

    pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    @staticmethod
    def experiments():
        """Three multi-block rows, two small ones, a multi-block row that
        errors at run time and a second row under the first row's id."""
        def exp(eid, estimator_id, params, samples, closed_form_id):
            return tiny_config(experiment_id=eid, estimator_id=estimator_id, params=params,
                               samples=samples, closed_form_id=closed_form_id,
                               seed=DROP)["experiments"][0]

        pinv = {"r": 1, "m": 3, "alpha": 2.0, "norm": "frobenius"}
        doc = {"seed": 5, "experiments": [
            exp("pinv-big", "pinv_moment", pinv, 5000, "pinv_moment_value"),
            exp("pinv-small", "pinv_moment", pinv, 300, "pinv_moment_value"),
            exp("espnorm-big", "espnorm", {"n": 3, "alpha": 4.0}, 5000, "espnorm_value"),
            exp("espnorm-small", "espnorm", {"n": 2, "alpha": 2.0}, 200, "espnorm_value"),
            exp("pinv-big-r2", "pinv_moment", {**pinv, "r": 2, "m": 4}, 5000,
                "pinv_moment_value"),
        ]}
        exps = cli.parse_config(doc)
        # an edit after validation fails in its row: r x m = 2 x 2 has no finite moment
        broken = dataclasses.replace(exps[4], experiment_id="broken",
                                     params={**pinv, "r": 2, "m": 2})
        return exps + [broken, dataclasses.replace(exps[2], seed=11)]

    def run(self, monkeypatch, n, exps=None):
        """The report of a run on n CPUs and the verdict lines verify prints for it."""
        self.cpus(monkeypatch, n)
        report = cli.run_verify(self.experiments() if exps is None else exps)
        return report, [cli._verdict_line(row) for row in report.rows]

    def test_rows_and_echo_match_one_process(self, monkeypatch, capsys):
        one, one_lines = self.run(monkeypatch, 1)
        assert capsys.readouterr().out == ""  # run_verify returns its rows and prints nothing
        assert one.processes == 1
        assert [row["experiment_id"] for row in one.rows] == [
            "pinv-big", "pinv-small", "espnorm-big", "espnorm-small", "pinv-big-r2",
            "broken", "espnorm-big"]
        assert one.rows[5]["error"] and not one.rows[6]["error"]
        assert one.rows[2]["mean"] != one.rows[6]["mean"]
        for n in (2, 3):
            fanned, lines = self.run(monkeypatch, n)
            assert fanned.processes == n
            assert cli.report_csv(fanned) == cli.report_csv(one)
            assert lines == one_lines

    def test_processes_count_multi_block_rows(self, monkeypatch):
        exps = self.experiments()[:4]  # two multi-block rows
        self.cpus(monkeypatch, 3)
        assert cli.report_json(cli.run_verify(exps))["processes"] == 2
        self.cpus(monkeypatch, 1)
        assert cli.report_json(cli.run_verify(exps))["processes"] == 1

    @staticmethod
    def poly_experiments(n, d, samples):
        """Two poly_moment rows at (n, d) of `samples` systems each, 8 lines at n = 2."""
        doc = {"seed": 5, "experiments": [
            tiny_config(experiment_id=eid, estimator_id="poly_moment",
                        params={"n": n, "degrees": [d], "alpha": 2.0, "norm": "frobenius"},
                        samples=samples, closed_form_id="main_theorem_value",
                        seed=DROP)["experiments"][0]
            for eid in ("poly-a", "poly-b")]}
        return cli.parse_config(doc)

    def test_poly_rows_of_several_ranges_fan_out(self, monkeypatch):
        # 700 systems of 8 lines at d = 2 run 3 ranges of 341 systems, far
        # below montecarlo.BLOCK_SAMPLES samples
        exps = self.poly_experiments(2, 2, 700)
        one, one_lines = self.run(monkeypatch, 1, exps)
        fanned, lines = self.run(monkeypatch, 2, exps)
        assert (one.processes, fanned.processes) == (1, 2)
        assert cli.report_csv(fanned) == cli.report_csv(one)
        assert lines == one_lines
        assert not any(row["error"] for row in fanned.rows)

    def test_poly_rows_of_one_range_stay_in_the_caller(self, monkeypatch):
        # an n = 1, d = 2 range holds 8192 // 3 = 2730 systems
        self.cpus(monkeypatch, 2)
        assert cli.run_verify(self.poly_experiments(1, 2, 2730)).processes == 1
        assert cli.run_verify(self.poly_experiments(1, 2, 2731)).processes == 2

    @pytest.mark.parametrize("degrees, lines", [([], None), ([2], 0)],
                             ids=["no-degrees", "no-lines"])
    def test_poly_rows_edited_after_validation_error_in_their_row(self, monkeypatch,
                                                                  degrees, lines):
        # a range count that cannot be taken deals the row to the caller
        exps = self.experiments()[:5]
        broken = dataclasses.replace(
            exps[4], experiment_id="broken", estimator_id="poly_moment", lines_per_system=lines,
            params={"n": 2, "degrees": degrees, "alpha": 2.0, "norm": "frobenius"})
        self.cpus(monkeypatch, 2)
        report = cli.run_verify(exps + [broken])
        assert report.processes == 2
        assert [bool(row["error"]) for row in report.rows] == [False] * 5 + [True]
        assert "ValueError" in report.rows[5]["error"]

    @pytest.mark.parametrize("in_worker, first_row", [(True, "espnorm-big"), (False, "pinv-big")])
    def test_row_exception_reraised_with_its_type(self, monkeypatch, in_worker, first_row):
        # raised in the worker's first row, or in the parent's while the worker runs
        parent = os.getpid()
        real = cli.run_experiment

        def fail(exp, samples_override=None):
            if (os.getpid() != parent) == in_worker:
                raise RuntimeError(f"failed on {exp.experiment_id}")
            return real(exp, samples_override)

        monkeypatch.setattr(cli, "run_experiment", fail)
        with pytest.raises(RuntimeError, match=f"failed on {first_row}$"):
            self.run(monkeypatch, 2)

    def test_worker_that_dies_raises_and_names_its_rows(self, monkeypatch):
        parent = os.getpid()
        real = cli.run_experiment

        def die_in_worker(exp, samples_override=None):
            if os.getpid() != parent:
                os._exit(3)
            return real(exp, samples_override)

        monkeypatch.setattr(cli, "run_experiment", die_in_worker)
        with pytest.raises(RuntimeError, match="status 3 and no result; its rows espnorm-big, broken did not"):
            self.run(monkeypatch, 2)


class TestMain:
    def test_verify_with_config_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config()))
        code = cli.main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "rep")])
        assert code == 0
        assert (tmp_path / "rep" / "verify-report.csv").exists()
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_seed_flag_overrides_config_seeds(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(samples=2000)))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cli.main(["verify", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert cli.main(["verify", "--config", str(cfg_path), "--seed", "4242",
                         "--out", str(out_b)]) == 0
        row_a = json.loads((out_a / "verify-report.json").read_text())["comparisons"][0]
        row_b = json.loads((out_b / "verify-report.json").read_text())["comparisons"][0]
        assert row_a["seed"] == 99
        assert row_b["seed"] != 99
        assert row_a["mean"] != row_b["mean"]

    def test_seed_flag_on_dumped_suite_matches_suite_seed(self, tmp_path, capsys):
        # --seed 7 on a dump of the suite reseeds experiment i to mix64(7, i + 1),
        # the seed default_suite(7) gives it
        cfg_path = tmp_path / "suite.json"
        cfg_path.write_text(json.dumps(cli.config_to_dict(cli.default_suite())))
        common = ["--seed", "7", "--samples", "1000"]
        cli.main(["verify", "--config", str(cfg_path), *common, "--out", str(tmp_path / "a")])
        cli.main(["verify", *common, "--out", str(tmp_path / "b")])
        csv_a = (tmp_path / "a" / "verify-report.csv").read_bytes()
        assert csv_a == (tmp_path / "b" / "verify-report.csv").read_bytes()
        seeds = [row["seed"] for row in json.loads(
            (tmp_path / "a" / "verify-report.json").read_text())["comparisons"]]
        assert seeds == [cli.mix64(7, i + 1) for i in range(len(seeds))]

    def test_verify_bad_config_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{\"version\": 1, \"experiments\": []}")
        assert cli.main(["verify", "--config", str(cfg_path)]) == 2

    def test_verify_missing_file_exit_two(self):
        assert cli.main(["verify", "--config", "/nonexistent/x.json"]) == 2

    @pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--samples", "-5")])
    def test_verify_bad_override_exit_two_before_sampling(self, tmp_path, capsys, flag, value):
        out = tmp_path / "rep"
        assert cli.main(["verify", flag, value, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"{flag[2:]} must be >= 1, got {value}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_verify_out_file_exit_two_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before --out was checked")

        monkeypatch.setattr(cli, "run_experiment", no_sampling)
        out = tmp_path / "rep"
        out.write_text("")
        assert cli.main(["verify", "--samples", "10", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and captured.out == ""

    def test_estimate_prints_result(self, capsys):
        code = cli.main(["estimate", "--estimator", "pinv_moment", "--r", "1",
                         "--m", "3", "--samples", "2000", "--seed", "5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["estimator_id"] == "pinv_moment"
        assert out["n_samples"] == 2000

    def test_estimate_bad_params_exit_two(self, capsys):
        code = cli.main(["estimate", "--estimator", "pinv_moment", "--r", "3",
                         "--m", "2", "--samples", "10"])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--samples", "--lines"])
    def test_estimate_zero_count_exit_two(self, capsys, flag):
        argv = ["estimate", "--estimator", "poly_moment", "--n", "2", "--degrees", "2",
                "--samples", "10", flag, "0"]
        assert cli.main(argv) == 2
        assert "must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["espnorm", "--n", "2", "--alpha", "nan"], "alpha must be finite"),
        (["espnorm", "--n", "2", "--alpha", "inf"], "alpha must be finite"),
        (["espnormrest", "--n", "3", "--alpha", "inf", "--beta", "2"], "alpha must be finite"),
        (["espnormrest", "--n", "3", "--alpha", "1", "--beta", "nan"], "beta must be finite"),
        (["detweighted_square", "--r", "2", "--k", "inf"], "k must be finite"),
    ])
    def test_estimate_non_finite_param_exit_two(self, capsys, argv, message):
        assert cli.main(["estimate", "--estimator", *argv, "--samples", "10"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["espnorm", "--n", "2", "--alpha", "nan"], "alpha must be finite"),
        (["espnormrest", "--n", "3", "--alpha", "1", "--beta", "inf"], "beta must be finite"),
        (["invnor2mdet", "--r", "2", "--k", "nan"], "k must be finite"),
    ])
    def test_formulas_non_finite_param_exit_two(self, capsys, argv, message):
        assert cli.main(["formulas", *argv]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["espnormrest", "--n", "3", "--alpha", "1.5", "--beta", "2"], "nonnegative integer"),
        (["volumes", "--n", "1", "--k", "1.5", "--l", "3", "--degrees", "1"],
         "k must be an integer"),
    ])
    def test_formulas_fractional_integer_param_exit_two(self, capsys, argv, message):
        assert cli.main(["formulas", *argv]) == 2
        assert message in capsys.readouterr().err

    def test_formulas_main_theorem(self, capsys):
        code = cli.main(["formulas", "main_theorem", "--n", "2", "--degrees", "2"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(2.5)

    def test_formulas_volumes(self, capsys):
        code = cli.main(["formulas", "volumes", "--n", "1", "--k", "1", "--l", "2",
                         "--degrees", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["vol_grassmann"]["value"] == pytest.approx(3.141592653589793)

    def test_formulas_espnormrest_flags_disagreement(self, capsys):
        code = cli.main(["formulas", "espnormrest", "--n", "3", "--alpha", "1",
                         "--beta", "0"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["forms_agree"] is False
        assert out["sum_form"]["value"] == pytest.approx(3.0)
        assert out["closed_form"]["value"] == pytest.approx(2.0)

    def test_formulas_domain_error_exit_two(self, capsys):
        assert cli.main(["formulas", "espnorm", "--n", "2", "--alpha", "-4"]) == 2
        assert "domain error" in capsys.readouterr().err

    def test_env_seed_override(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "777")
        cli.main(["estimate", "--estimator", "espnorm", "--n", "2",
                  "--alpha", "2", "--samples", "1000"])
        out = json.loads(capsys.readouterr().out)
        assert out["seed"] == 777

    @pytest.mark.parametrize("argv", [
        ["verify", "--samples", "10"],
        ["estimate", "--estimator", "espnorm", "--n", "2", "--samples", "100"],
        ["selftest"],
    ])
    def test_non_integer_env_seed_exit_two(self, monkeypatch, tmp_path, capsys, argv):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert f"{cli.SEED_ENV_VAR} must be an integer, got 'abc'" in captured.err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("argv, env, message", [
        (["verify", "--seed", "-1", "--samples", "10"], None, "--seed must be in [0, 2^64), got -1"),
        (["verify", "--config", "cfg.json", "--seed", str(2**64)], None,
         f"--seed must be in [0, 2^64), got {2**64}"),
        (["estimate", "--estimator", "espnorm", "--n", "2", "--samples", "10", "--seed", "-1"],
         None, "--seed must be in [0, 2^64), got -1"),
        (["selftest", "--seed", "-1"], None, "--seed must be in [0, 2^64), got -1"),
        (["verify", "--samples", "10"], "-7", f"{cli.SEED_ENV_VAR} must be in [0, 2^64), got -7"),
        (["estimate", "--estimator", "espnorm", "--n", "2", "--samples", "10"], str(2**64),
         f"{cli.SEED_ENV_VAR} must be in [0, 2^64), got {2**64}"),
        (["selftest"], "-7", f"{cli.SEED_ENV_VAR} must be in [0, 2^64), got -7"),
    ])
    def test_out_of_range_seed_exit_two(self, monkeypatch, tmp_path, capsys, argv, env, message):
        # a seed outside [0, 2^64) is rejected, not masked by mix64 into another seed
        if env is not None:
            monkeypatch.setenv(cli.SEED_ENV_VAR, env)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(tiny_config(samples=100)))
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not (tmp_path / "report").exists()

    def test_workers_flag_is_a_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(samples=100)))
        for argv in (["verify", "--config", str(cfg_path), "--out", str(tmp_path / "rep")],
                     ["estimate", "--estimator", "espnorm", "--n", "2", "--samples", "100"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--workers", "2"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["formulas", "main_theorem", "--n", "3", "--degrees", "4"],
        ["estimate", "--estimator", "espnorm", "--n", "2", "--samples", "100", "--seed", "5"],
        ["selftest"],
        ["verify", "--samples", "200", "--out", "rep"],
    ], ids=lambda argv: argv[0])
    def test_closed_stdout_exits_one_quietly(self, tmp_path, argv):
        # the reader closes the pipe before the child has imported numpy, so
        # every write to an unbuffered stdout fails
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONUNBUFFERED="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, "-m", "condmoments.cli", *argv], cwd=tmp_path,
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait() == 1
        assert err == b""
        if argv[0] == "verify":
            # the report is written before the first line is printed
            assert (tmp_path / "rep" / "verify-report.json").is_file()
            assert (tmp_path / "rep" / "verify-report.csv").is_file()


class TestSvdFailure:
    """A LAPACK failure on finite matrices is a NumericError, never a parameter error."""

    @pytest.fixture
    def failing_svd(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)

    def test_estimate_reports_an_estimator_failure(self, failing_svd, capsys):
        argv = ["estimate", "--estimator", "pinv_moment", "--r", "3", "--m", "5",
                "--norm", "operator", "--samples", "100", "--seed", "5"]
        assert cli.main(argv) == 1
        assert "estimator failure: SVD did not converge" in capsys.readouterr().err

    def test_mu_at_r_two_raises_numeric_error(self, failing_svd):
        # h = (x_0, x_1) vanishes at e_3
        rows = np.eye(4, dtype=complex)[:2]
        h = bwspace.make_system(3, (1, 1), list(rows))
        with pytest.raises(conditioning.NumericError, match="did not converge"):
            conditioning.mu(h, np.eye(4, dtype=complex)[3])


def _reject_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


class TestStandardJson:
    def test_one_sample_report_parses_as_standard_json(self, tmp_path):
        # one sample gives zero-dispersion rows, whose z is infinite
        cli.main(["verify", "--samples", "1", "--out", str(tmp_path)])
        text = (tmp_path / "verify-report.json").read_text()
        rows = json.loads(text, parse_constant=_reject_constant)["comparisons"]
        with open(tmp_path / "verify-report.csv") as f:
            csv_z = {r["experiment_id"]: r["z"] for r in csv.DictReader(f)}
        infinite = [row for row in rows if row["z"] in ("inf", "-inf")]
        assert infinite
        for row in infinite:
            assert csv_z[row["experiment_id"]] == row["z"]

    def test_non_finite_floats_print_as_csv_strings(self):
        obj = {"a": math.inf, "b": [-math.inf, math.nan, 1.5], "c": (np.float64(-np.inf),)}
        out = json.loads(cli._json_text(obj), parse_constant=_reject_constant)
        assert out == {"a": "inf", "b": ["-inf", "nan", 1.5], "c": ["-inf"]}

    def test_finite_values_print_as_json_dumps(self):
        obj = {"mean": 0.1 + 0.2, "n": 3, "ok": True, "none": None, "rows": [{"z": -1e-300}]}
        assert cli._json_text(obj) == json.dumps(obj, indent=2)

    def test_estimate_prints_standard_json(self, monkeypatch, capsys):
        # a singular draw makes the pseudoinverse moment infinite: a zero
        # Bartlett factor, as randgeom.gaussian_gram returns it (sq, phased)
        monkeypatch.setattr(cli.montecarlo, "_draws", lambda seed, samples, r, m: (
            {(i, k): np.zeros(len(samples)) for i in range(r) for k in range(i + 1)}, {}))
        assert cli.main(["estimate", "--estimator", "pinv_moment", "--r", "1", "--m", "3",
                         "--samples", "10", "--seed", "5"]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert out["mean"] == "inf" and out["stderr"] == "inf"


class TestSelftest:
    def test_all_suites_pass(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "gamma-telescoping" in out

    def test_run_selftest_returns_every_suite_and_prints_nothing(self, capsys):
        results = cli.run_selftest()
        assert capsys.readouterr().out == ""
        assert [name for name, _, _ in results] == [name for name, _ in cli._SELFTEST_SUITES]
        assert all(ok and isinstance(detail, str) for _, ok, detail in results)

    def test_gaussian_convention_mutation_detected(self, monkeypatch):
        # doubling the variance must trip the convention suite
        ok, _ = cli._suite_gaussian_convention(12345)
        assert ok
        draw = cli.randgeom.complex_gaussian_array
        monkeypatch.setattr(cli.randgeom, "complex_gaussian_array",
                            lambda rng, shape: draw(rng, shape) * math.sqrt(2.0))
        ok, _ = cli._suite_gaussian_convention(12345)
        assert not ok

    def test_every_suite_returns_a_python_bool(self):
        assert len(cli._SELFTEST_SUITES) == 8
        for index, (name, fn) in enumerate(cli._SELFTEST_SUITES):
            ok, _ = fn(cli.mix64(cli.DEFAULT_SEED, index + 1))
            assert type(ok) is bool, name

    def test_selftest_exit_code(self):
        assert cli.main(["selftest"]) == 0
