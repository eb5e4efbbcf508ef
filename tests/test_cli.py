import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from gridmc.cli import main
from tests.conftest import example_path

PROJECT = example_path("project-npv.json")
HARDCODE = example_path("project-npv-hardcode.json")
CORRELATED = example_path("project-npv-correlated.json")
SQRT_TRAP = example_path("sqrt-trap.json")


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestUsage:
    def test_no_command(self):
        assert main([]) == 3

    def test_unknown_command(self):
        assert main(["explode"]) == 3

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/model.json"]) == 3
        assert "no such file" in capsys.readouterr().err

    def test_zero_trials(self, tmp_path):
        assert main(["run", PROJECT, "--trials", "0",
                     "--out", str(tmp_path)]) == 3

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 3
        assert "not valid JSON" in capsys.readouterr().err


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", PROJECT]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_schema_error_exits_3(self, tmp_path, capsys):
        doc = json.load(open(PROJECT))
        del doc["cells"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 3
        assert "schema error" in capsys.readouterr().err

    def test_cycle_exits_1(self, tmp_path, capsys):
        doc = {
            "name": "loop",
            "cells": [
                {"address": "A1", "formula": "=A2"},
                {"address": "A2", "formula": "=A1"},
                {"address": "A3", "label": "f", "formula": "=A1"},
            ],
            "forecasts": [{"cell": "A3", "label": "f"}],
        }
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        assert "cycle" in capsys.readouterr().err.lower()


class TestRun:
    def test_artifacts_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", PROJECT, "--trials", "500",
                     "--out", str(out1)]) == 0
        assert main(["run", PROJECT, "--trials", "500",
                     "--out", str(out2)]) == 0
        for name in ("trials.csv", "report.json", "histogram-ProjectNPV.csv"):
            assert (out1 / name).exists()
            assert read(out1 / name) == read(out2 / name)

    def test_report_contents(self, tmp_path):
        assert main(["run", PROJECT, "--trials", "300", "--seed", "9",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads(read(tmp_path / "report.json"))
        assert payload["model"] == "project-npv"
        assert payload["seed"] == 9
        assert payload["completed"] == 300
        fc = payload["forecasts"][0]
        assert fc["forecast"] == "ProjectNPV"
        assert fc["stats"]["n"] == 300
        assert len(fc["certainty"]) == 1
        assert 0.0 <= fc["certainty"][0]["p"] <= 1.0
        assert len(fc["sensitivity"]) == 4
        assert len(fc["tornado"]["bars"]) == 4
        with open(tmp_path / "trials.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "Year1Sales", "SalesGrowth",
                           "COGSGrowth", "OpexPct", "ProjectNPV"]
        assert len(rows) == 301

    def test_sqrt_trap_halts_with_dossier(self, tmp_path, capsys):
        assert main(["run", SQRT_TRAP, "--out", str(tmp_path)]) == 1
        assert "halted at trial" in capsys.readouterr().out
        dossier = json.loads(read(tmp_path / "dossier.json"))
        assert dossier["kind"] == "DomainError"
        assert dossier["cell"] == "A2"
        assert len(dossier["assumptions"]) == 1
        # trials.csv holds the complete prefix before the halt
        with open(tmp_path / "trials.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == dossier["trial"]

    @pytest.mark.parametrize("command", ["run", "audit"])
    def test_integral_floats_in_run_block(self, tmp_path, capsys, command):
        # the schema counts 200.0 as an integer; the run must too
        doc = json.load(open(PROJECT))
        results = []
        for name, run_block in (("int", {"trials": 200, "seed": 3}),
                                ("float", {"trials": 200.0, "seed": 3.0})):
            out = tmp_path / name
            out.mkdir()
            path = write_doc(tmp_path, dict(doc, run=run_block), f"{name}.json")
            code = main([command, path, "--out", str(out)])
            files = {f: read(out / f) for f in sorted(os.listdir(out))}
            results.append((code, capsys.readouterr(), files))
        assert results[0] == results[1]
        assert results[0][2]

    def test_continue_on_error_records_census(self, tmp_path):
        assert main(["run", SQRT_TRAP, "--trials", "400",
                     "--continue-on-error", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "errors.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "kind", "cell"]
        assert all(r[1] == "DomainError" and r[2] == "A2" for r in rows[1:])
        payload = json.loads(read(tmp_path / "report.json"))
        assert payload["completed"] + payload["errors"] == 400


    def test_outputs_do_not_depend_on_hash_order(self, tmp_path):
        # the evaluator walks sets of cells to free columns, and PYTHONHASHSEED
        # changes the iteration order of string-keyed sets: no byte may move
        noclamp = example_path("project-npv-noclamp.json")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        seen = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.path.abspath(src))
            outputs = {}
            for command in ("run", "audit"):
                out = tmp_path / f"{command}-{hash_seed}"
                proc = subprocess.run(
                    [sys.executable, "-m", "gridmc", command, noclamp, "--trials", "2000",
                     "--out", str(out)], capture_output=True, text=True, env=env)
                outputs[command] = (proc.returncode, proc.stdout, proc.stderr,
                                    {f: read(out / f) for f in sorted(os.listdir(out))})
            seen.append(outputs)
        assert seen[0] == seen[1]
        assert seen[0]["run"][3] and seen[0]["audit"][3]


class TestTornado:
    def test_artifacts(self, tmp_path, capsys):
        assert main(["tornado", PROJECT, "--out", str(tmp_path)]) == 0
        payload = json.loads(read(tmp_path / "tornado.json"))
        assert payload["forecast"] == "ProjectNPV"
        assert len(payload["bars"]) == 4
        swings = [b["swing"] for b in payload["bars"]]
        assert swings == sorted(swings, reverse=True)
        with open(tmp_path / "tornado.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", "low", "high"]
        assert len(rows) == 5
        assert "base" in capsys.readouterr().out

    def test_bad_quantiles(self, tmp_path, capsys):
        assert main(["tornado", PROJECT, "--low", "0.9", "--high", "0.1",
                     "--out", str(tmp_path)]) == 3
        assert "need 0 < --low < --high < 1" in capsys.readouterr().err


class TestScenario:
    def test_filter_and_apply_paste_back(self, tmp_path):
        out = str(tmp_path)
        assert main(["scenario", PROJECT, "--trials", "200", "--min", "0",
                     "--out", out]) == 0
        with open(tmp_path / "scenario.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "expected at least one positive-NPV trial"
        pick = rows[0]
        trial = pick["trial"]

        assert main(["scenario", PROJECT, "--trials", "200", "--min", "0",
                     "--apply", trial, "--out", out]) == 0
        baked_path = tmp_path / f"project-npv.scenario{trial}.json"
        assert baked_path.exists()
        baked = json.loads(read(baked_path))
        assert "assumptions" not in baked

        # paste-back: a single-trial run of the baked document reproduces
        # the scenario row's forecast bit for bit
        out2 = tmp_path / "baked"
        assert main(["run", str(baked_path), "--trials", "1",
                     "--out", str(out2)]) == 0
        with open(out2 / "trials.csv") as fh:
            baked_rows = list(csv.DictReader(fh))
        assert baked_rows[0]["ProjectNPV"] == pick["ProjectNPV"]

    def test_apply_outside_subset(self, tmp_path, capsys):
        assert main(["scenario", PROJECT, "--trials", "100", "--min", "1e9",
                     "--apply", "0", "--out", str(tmp_path)]) == 3
        assert "not in the scenario subset" in capsys.readouterr().err

    def test_bad_bounds(self, tmp_path, capsys):
        assert main(["scenario", PROJECT, "--min", "10", "--max", "0",
                     "--out", str(tmp_path)]) == 3
        assert "--min must be <= --max" in capsys.readouterr().err


class TestAudit:
    def test_clean_model_exits_0(self, tmp_path, capsys):
        assert main(["audit", PROJECT, "--out", str(tmp_path)]) == 0
        assert "no findings" in capsys.readouterr().out
        payload = json.loads(read(tmp_path / "audit.json"))
        assert payload["findings"] == []
        assert payload["thresholds"] == {"z": 2.58, "epsilon": 1e-6}

    def test_defect_exits_2(self, tmp_path, capsys):
        assert main(["audit", HARDCODE, "--out", str(tmp_path)]) == 2
        assert "Disconnected" in capsys.readouterr().out
        payload = json.loads(read(tmp_path / "audit.json"))
        assert payload["counts"] == {"Disconnected": 1}

    def test_warning_only_exits_0(self, tmp_path):
        assert main(["audit", CORRELATED, "--out", str(tmp_path)]) == 0
        payload = json.loads(read(tmp_path / "audit.json"))
        assert payload["counts"] == {"CorrelationMasking": 1}

    def test_history_backcast(self, tmp_path):
        hist = tmp_path / "history.csv"
        hist.write_text(
            "Year1Sales,SalesGrowth,COGSGrowth,OpexPct\n"
            "100,0.05,0.03,0.25\n"
            "110,0.06,0.02,0.22\n")
        assert main(["audit", PROJECT, "--history", str(hist),
                     "--out", str(tmp_path)]) == 0

    def test_history_bad_header(self, tmp_path, capsys):
        hist = tmp_path / "history.csv"
        hist.write_text("Wrong,Header\n1,2\n")
        assert main(["audit", PROJECT, "--history", str(hist),
                     "--out", str(tmp_path)]) == 3
        assert "history error" in capsys.readouterr().err

    def test_history_missing_file(self, tmp_path, capsys):
        assert main(["audit", PROJECT, "--history",
                     str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "no such file" in err and "nope.csv" in err


def one_error_line(capsys, prefix):
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), err
    return lines[0]


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


ALL_FAIL = {
    "name": "all-fail",
    "cells": [{"address": "A1", "label": "X", "formula": 1},
              {"address": "A2", "label": "Y", "formula": "=1/(A1-A1)"}],
    "assumptions": [{"cell": "X", "distribution":
                     {"type": "uniform", "min": 0.5, "max": 1.5}}],
    "forecasts": [{"cell": "A2", "label": "Y"}],
    "run": {"trials": 200, "seed": 1},
}


class TestErrorExits:
    """Each failure ends in a documented exit code and one stderr line."""

    def test_correlation_pair_naming_one_cell_twice(self, tmp_path, capsys):
        doc = json.load(open(PROJECT))
        doc["correlations"] = [{"a": "SalesGrowth", "b": "SalesGrowth", "rho": -1}]
        path = write_doc(tmp_path, doc)
        assert main(["validate", path]) == 1
        one_error_line(capsys, "error:")
        assert main(["run", path, "--out", str(tmp_path)]) == 1
        one_error_line(capsys, "error:")

    def test_self_paired_correlation_names_the_label(self, tmp_path, capsys):
        doc = json.load(open(PROJECT))
        doc["correlations"] = [{"a": "SalesGrowth", "b": "B3", "rho": 0.5}]
        path = write_doc(tmp_path, doc)
        assert main(["validate", path]) == 1
        assert one_error_line(capsys, "error:") == (
            "error: correlation: SalesGrowth is paired with itself")

    @pytest.mark.parametrize("command", [["run", "--trials", "100"], ["tornado"],
                                         ["audit", "--trials", "100"]])
    def test_tornado_base_case_failure(self, tmp_path, capsys, command):
        # the median of X is 0, so the tornado's base case divides by zero
        doc = dict(ALL_FAIL, cells=[ALL_FAIL["cells"][0],
                                    {"address": "A2", "label": "Inv", "formula": "=1/A1"}],
                   assumptions=[{"cell": "X", "distribution":
                                 {"type": "normal", "mean": 0, "sd": 1}}],
                   forecasts=[{"cell": "A2", "label": "Inv"}])
        path = write_doc(tmp_path, doc)
        assert main([command[0], path, *command[1:], "--out", str(tmp_path)]) == 1
        assert one_error_line(capsys, "error:") == (
            "error: tornado base case failed: DivByZero at A2: division by zero")

    def test_too_few_trials_for_correlation(self, tmp_path, capsys):
        assert main(["run", CORRELATED, "--trials", "5", "--out", str(tmp_path)]) == 1
        assert "at least 40 trials" in one_error_line(capsys, "error:")

    def test_every_trial_failing_run(self, tmp_path, capsys):
        path = write_doc(tmp_path, ALL_FAIL)
        assert main(["run", path, "--continue-on-error", "--out", str(tmp_path)]) == 1
        assert "every trial failed" in one_error_line(capsys, "error:")

    def test_every_trial_failing_audit(self, tmp_path, capsys):
        path = write_doc(tmp_path, ALL_FAIL)
        assert main(["audit", path, "--out", str(tmp_path)]) == 1
        assert "every trial failed" in one_error_line(capsys, "error:")

    def test_overflow_halts_with_dossier(self, tmp_path, capsys):
        doc = dict(ALL_FAIL, cells=[ALL_FAIL["cells"][0],
                                    {"address": "A2", "label": "Y", "formula": "=A1*1e308*10"}])
        path = write_doc(tmp_path, doc)
        assert main(["run", path, "--out", str(tmp_path)]) == 1
        assert "non-finite result inf" in capsys.readouterr().out
        dossier = json.loads(read(tmp_path / "dossier.json"))
        assert (dossier["kind"], dossier["cell"], dossier["trial"]) == ("DomainError", "A2", 0)

    @pytest.mark.parametrize("command", ["run", "audit", "tornado", "step"])
    def test_lognormal_overflow_is_a_build_error(self, tmp_path, capsys, monkeypatch,
                                                 command):
        doc = json.load(open(PROJECT))
        doc["assumptions"][3]["distribution"] = {"type": "lognormal",
                                                 "log_mean": 800, "log_sd": 1}
        path = write_doc(tmp_path, doc)
        monkeypatch.setattr("sys.stdin", io.StringIO("step\nquit\n"))
        out = [] if command == "step" else ["--out", str(tmp_path)]
        assert main([command, path, *out]) == 1
        assert one_error_line(capsys, "build error: assumption OpexPct: lognormal")

    @pytest.mark.parametrize("index, dist, message", [
        (2, {"type": "normal", "mean": 0, "sd": 1e308}, "COGSGrowth: normal"),
        (3, {"type": "uniform", "min": -1e308, "max": 1e308}, "OpexPct: uniform"),
    ], ids=["normal", "uniform"])
    def test_overflowing_variates_are_a_build_error(self, tmp_path, capsys,
                                                    index, dist, message):
        doc = json.load(open(PROJECT))
        doc["assumptions"][index]["distribution"] = dist
        path = write_doc(tmp_path, doc)
        assert main(["run", path, "--trials", "200", "--out", str(tmp_path)]) == 1
        line = one_error_line(capsys, f"build error: assumption {message}")
        assert line.endswith("beyond the float range")
        assert not (tmp_path / "dossier.json").exists()

    def test_audit_with_under_10_completed_trials(self, tmp_path, capsys):
        doc = json.load(open(SQRT_TRAP))
        doc["assumptions"][0]["distribution"] = {"type": "normal", "mean": -3, "sd": 1}
        path = write_doc(tmp_path, doc)
        assert main(["audit", path, "--trials", "5000", "--out", str(tmp_path)]) == 1
        assert one_error_line(capsys, "error:") == (
            "error: sensitivity needs at least 10 completed trials, got 4")

    def test_audit_with_under_100_completed_trials(self, tmp_path, capsys):
        assert main(["audit", PROJECT, "--trials", "50", "--out", str(tmp_path)]) == 1
        assert one_error_line(capsys, "error:") == (
            "error: disconnection detection needs at least 100 completed trials, got 50")

    @pytest.mark.parametrize("literal, edit", [
        ("NaN", lambda d: d["correlations"][0].update(rho=math.nan)),
        ("NaN", lambda d: d["assumptions"][0].update(distribution={
            "type": "lognormal", "log_mean": math.nan, "log_sd": 0.1})),
        ("Infinity", lambda d: d["assumptions"][3]["distribution"].update(max=math.inf)),
        ("NaN", lambda d: d["forecasts"][0]["target"].update(lo=math.nan)),
        ("-Infinity", lambda d: d["cells"][0].update(formula=-math.inf)),
    ], ids=["rho", "log_mean", "uniform-max", "target-lo", "cell-formula"])
    def test_non_finite_literal_is_not_json(self, tmp_path, capsys, literal, edit):
        doc = json.load(open(CORRELATED))
        edit(doc)
        path = write_doc(tmp_path, doc)  # json.dumps writes NaN and Infinity
        assert main(["run", path, "--out", str(tmp_path)]) == 3
        assert one_error_line(capsys, "error:") == (
            f"error: not valid JSON: {literal} is not a JSON number")
        assert os.listdir(tmp_path) == ["doc.json"]

    @pytest.mark.parametrize("row", ["100,0.05,abc,0.25", "100,0.05,0.03"])
    def test_history_bad_row(self, tmp_path, capsys, row):
        hist = tmp_path / "history.csv"
        hist.write_text("Year1Sales,SalesGrowth,COGSGrowth,OpexPct\n" + row + "\n")
        assert main(["audit", PROJECT, "--history", str(hist),
                     "--out", str(tmp_path)]) == 3
        assert "line 2" in one_error_line(capsys, "history error:")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_history_non_finite_value(self, tmp_path, capsys, cell):
        hist = tmp_path / "history.csv"
        hist.write_text("Year1Sales,SalesGrowth,COGSGrowth,OpexPct\n"
                        "100,0.05,0.03,0.25\n"
                        f"100,0.05,{cell},0.25\n")
        assert main(["audit", PROJECT, "--history", str(hist),
                     "--out", str(tmp_path)]) == 3
        assert one_error_line(capsys, "history error:") == (
            f"history error: line 3: non-finite value '{cell}'")
        assert not (tmp_path / "audit.json").exists()

    @pytest.mark.parametrize("option, value, message", [
        ("--z", "nan", "must be finite and > 0"),
        ("--z", "inf", "must be finite and > 0"),
        ("--z", "-1", "must be finite and > 0"),
        ("--z", "0", "must be finite and > 0"),
        ("--epsilon", "nan", "must be finite and >= 0"),
        ("--epsilon", "inf", "must be finite and >= 0"),
        ("--epsilon", "-0.5", "must be finite and >= 0"),
    ])
    def test_audit_threshold_out_of_range(self, tmp_path, capsys, option, value, message):
        assert main(["audit", HARDCODE, option, value, "--out", str(tmp_path)]) == 3
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: argument {option}: {message}"]
        assert not (tmp_path / "audit.json").exists()

    def test_audit_zero_epsilon_accepted(self, tmp_path):
        # the hard-coded Year1Sales swings the forecast by exactly 0
        assert main(["audit", HARDCODE, "--trials", "500", "--epsilon", "0",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["tornado", "scenario"])
    def test_unknown_forecast(self, tmp_path, capsys, monkeypatch, command):
        # the name is resolved before any simulation or sweep runs
        def never(*args, **kwargs):
            raise AssertionError("simulated an unknown forecast")
        monkeypatch.setattr("gridmc.cli.run", never)
        monkeypatch.setattr("gridmc.analytics.tornado", never)
        assert main([command, PROJECT, "--forecast", "Nope", "--out", str(tmp_path)]) == 3
        assert one_error_line(capsys, "error:") == "error: unknown forecast 'Nope'"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option", ["--min", "--max"])
    def test_scenario_bound_not_finite(self, tmp_path, capsys, option, value):
        assert main(["scenario", PROJECT, f"{option}={value}", "--out", str(tmp_path)]) == 3
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: argument {option}: must be finite"]
        assert not os.path.exists(tmp_path / "scenario.csv")

    @pytest.mark.parametrize("command, option, message", [
        ("run", "--trials", "not an integer: 'abc'"),
        ("audit", "--z", "not a number: 'abc'"),
        ("audit", "--epsilon", "not a number: 'abc'"),
        ("scenario", "--min", "not a number: 'abc'"),
    ])
    def test_unparseable_option_names_the_text(self, tmp_path, capsys,
                                               command, option, message):
        assert main([command, PROJECT, option, "abc", "--out", str(tmp_path)]) == 3
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: argument {option}: {message}"]


class TestStep:
    def run_step(self, monkeypatch, script, path=PROJECT, extra=()):
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        return main(["step", path, *extra])

    def test_session_commands(self, monkeypatch, capsys):
        script = ("step\n"
                  "show ProjectNPV\n"
                  "trace ProjectNPV\n"
                  "run 2\n"
                  "reset\n"
                  "bogus\n"
                  "quit\n")
        assert self.run_step(monkeypatch, script) == 0
        out = capsys.readouterr().out
        assert "trial 0:" in out and "trial 2:" in out
        assert "ProjectNPV = " in out
        assert "=NPV(B1,A14:E14)-B8" in out
        assert "reset to trial 0" in out
        assert "commands:" in out  # help on unknown input

    def test_unknown_cell_reports_error(self, monkeypatch, capsys):
        assert self.run_step(monkeypatch, "show Nope\nquit\n") == 0
        assert "error:" in capsys.readouterr().out

    def test_correlated_notice(self, monkeypatch, capsys):
        assert self.run_step(monkeypatch, "quit\n", path=CORRELATED) == 0
        assert "uncorrelated" in capsys.readouterr().out

    def test_eof_ends_session(self, monkeypatch):
        assert self.run_step(monkeypatch, "step\n") == 0


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("gridmc") is None,
                        reason="gridmc console script is not installed on PATH")
    def test_entry_point_installed(self):
        proc = subprocess.run(["gridmc", "validate", PROJECT],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ok"
