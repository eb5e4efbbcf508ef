import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gridmc import cli, report, simulate
from gridmc.audit import FindingKind
from gridmc.cells import parse_cell
from gridmc.cli import main
from gridmc.document import ModelDocument
from gridmc.formula import MAX_DEPTH
from tests.conftest import EXAMPLES, example_path, portfolio_documents
from tests.test_formula import DEPTH_CASES

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

    def test_moment_too_large_for_a_float_is_null(self, tmp_path, capsys):
        # the variance of values near 1e160 is past the float range; the other
        # moments are not, and are taken on values scaled by a power of two
        stats, x, values = run_scaled(tmp_path, capsys, "1e160")
        assert stats["variance"] is None
        assert_moments_follow(stats, x, values, 1e160)

    @pytest.mark.parametrize("scale", ["1e-170", "1e-300"])
    def test_tiny_forecast_has_its_moments(self, tmp_path, capsys, scale):
        # unscaled, the squares of deviations near 1e-170 underflow to 0:
        # sd 0.0 beside a range width of 1e-170, and a pearson of 0.0
        stats, x, values = run_scaled(tmp_path, capsys, scale)
        assert stats["variance"] is None  # below the smallest float
        assert_moments_follow(stats, x, values, float(scale))
        with open(tmp_path / "out" / "report.json") as fh:
            entry = json.load(fh)["forecasts"][0]["sensitivity"][0]
        assert entry["spearman"] == 1.0
        assert entry["pearson"] == pytest.approx(1.0, abs=1e-12)

    def test_tiny_assumption_is_not_degenerate(self, tmp_path, capsys):
        # the variance of X near 1e-170 underflows to 0, yet X varies and
        # drives F: a zero sd once made X degenerate, with a spearman and a
        # pearson of 0.0, and gave Y a contribution of -1.0
        doc = {"name": "tiny-x",
               "cells": [{"address": "A1", "label": "X", "formula": 1.5e-170},
                         {"address": "A2", "label": "Y", "formula": 0.0005},
                         {"address": "A3", "label": "F", "formula": "=A1*1e170+A2"}],
               "assumptions": [{"cell": "X", "distribution":
                                {"type": "uniform", "min": 1e-170, "max": 2e-170}},
                               {"cell": "Y", "distribution":
                                {"type": "uniform", "min": 0, "max": 0.001}}],
               "forecasts": [{"cell": "A3", "label": "F"}]}
        path = write_doc(tmp_path, doc)
        assert main(["run", path, "--trials", "300", "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        with open(tmp_path / "out" / "report.json") as fh:
            sens = json.load(fh)["forecasts"][0]["sensitivity"]
        by = {e["label"]: e for e in sens}
        assert "degenerate" not in by["X"]
        assert by["X"]["spearman"] > 0.999
        assert by["X"]["pearson"] > 0.999
        assert by["X"]["contribution"] > 0.99
        assert abs(by["Y"]["contribution"]) < 0.01

    @pytest.mark.parametrize("formula", ["=A1*0+1e20", "=1e20+A1*1e5"])
    def test_histogram_of_a_range_too_narrow_for_its_bins(self, tmp_path, capsys, formula):
        # a constant near 1e20 loses the +-0.5 widening to rounding, and
        # 1e20 + [1e5, 2e5] spans about 6 floats: neither has 15 distinct edges
        path = write_xy_doc(tmp_path, formula)
        assert main(["run", path, "--trials", "200", "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        hist = json.loads(read(tmp_path / "out" / "report.json"))["forecasts"][0]["histogram"]
        assert len(hist["counts"]) == 15
        assert all(a < b for a, b in zip(hist["edges"], hist["edges"][1:]))
        assert sum(hist["counts"]) == 200
        with open(tmp_path / "out" / "histogram-Y.csv") as fh:
            assert sum(int(row[1]) for row in list(csv.reader(fh))[1:]) == 200

    @pytest.mark.parametrize("formula", ["=(A1-1.5)*1e308*3", "=A1*0+1.7976931348623157e308"],
                             ids=["wider-than-the-float-range", "constant-at-the-largest-float"])
    def test_histogram_at_the_ends_of_the_float_range(self, tmp_path, capsys, formula):
        # max - min of the first overflows, and the second's edges cannot
        # widen above the largest float
        path = write_xy_doc(tmp_path, formula)
        assert main(["run", path, "--trials", "200", "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        with open(tmp_path / "out" / "report.json") as fh:
            hist = json.load(fh, parse_constant=pytest.fail)["forecasts"][0]["histogram"]
        assert all(math.isfinite(e) for e in hist["edges"])
        assert all(a < b for a, b in zip(hist["edges"], hist["edges"][1:]))
        assert sum(hist["counts"]) == 200

    def test_artifact_with_nan_is_not_written(self, tmp_path, monkeypatch):
        real = report.forecast_report
        monkeypatch.setattr(report, "forecast_report",
                            lambda *args: {**real(*args), "stats": math.nan})
        with pytest.raises(ValueError, match="not JSON compliant"):
            main(["run", PROJECT, "--trials", "300", "--out", str(tmp_path)])
        assert not (tmp_path / "report.json").exists()

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

    def test_halted_run_stops_at_the_block_of_its_error(self, tmp_path, monkeypatch):
        # sqrt-trap halts at trial 4: a 1M-trial run evaluates one block,
        # and writes the dossier and trials of a 10-trial run
        rows = []
        evaluate_batch = simulate.evaluate_batch
        monkeypatch.setattr(simulate, "evaluate_batch",
                            lambda *a, **kw: rows.append(a[2]) or evaluate_batch(*a, **kw))
        files = {}
        for trials in ("10", "1000000"):
            assert main(["run", SQRT_TRAP, "--trials", trials,
                         "--out", str(tmp_path / trials)]) == 1
            files[trials] = [read(tmp_path / trials / f) for f in ("dossier.json", "trials.csv")]
        assert rows == [10, simulate.TRIALS_BLOCK]
        assert files["10"] == files["1000000"]

    def test_halted_correlated_run_stops_at_its_first_block(self, tmp_path, monkeypatch):
        # the correlated trap fails in its first block: a 1M-trial run samples
        # and evaluates that block alone, and writes the dossier and trials of
        # a 2,048-trial run, whose first block is the same
        path = write_doc(tmp_path, CORRELATED_TRAP)
        sampled, evaluated = [], []
        sample_matrix, evaluate_batch = simulate._sample_matrix, simulate.evaluate_batch
        monkeypatch.setattr(simulate, "_sample_matrix",
                            lambda *a: sampled.append(a[1]) or sample_matrix(*a))
        monkeypatch.setattr(simulate, "evaluate_batch",
                            lambda *a, **kw: evaluated.append(a[2]) or evaluate_batch(*a, **kw))
        files = {}
        for trials in ("2048", "1000000"):
            assert main(["run", path, "--trials", trials,
                         "--out", str(tmp_path / trials)]) == 1
            files[trials] = [read(tmp_path / trials / f) for f in ("dossier.json", "trials.csv")]
        assert sampled == evaluated == 2 * [simulate.TRIALS_BLOCK]
        assert files["2048"] == files["1000000"]

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

    def test_failed_bar_prints_its_error(self, tmp_path, capsys):
        # a disconnected assumption prints swing 0.0 direction +0 too
        assert main(["tornado", SQRT_TRAP, "--out", str(tmp_path)]) == 0
        error = json.loads(read(tmp_path / "tornado.json"))["bars"][0]["error"]
        assert error.startswith("DomainError at A2: square root of -")
        assert capsys.readouterr().out.splitlines() == ["base 0.0", f"X: {error}"]

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

    @pytest.mark.parametrize("name, stem", [("../escape", "___escape"), ("a/b", "a_b")])
    def test_apply_writes_inside_out(self, tmp_path, name, stem):
        # the baked file is named after the document as histograms are after
        # labels: a name's path separators and dots cannot leave --out
        with open(PROJECT) as fh:
            doc = json.load(fh)
        doc["name"] = name
        path = write_doc(tmp_path, doc)
        out = tmp_path / "runs" / "out"
        assert main(["scenario", path, "--trials", "20", "--min=-1e9", "--apply", "0",
                     "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == sorted(["scenario.csv", f"{stem}.scenario0.json"])
        assert os.listdir(tmp_path / "runs") == ["out"]
        assert sorted(os.listdir(tmp_path)) == ["doc.json", "runs"]
        assert json.loads(read(out / f"{stem}.scenario0.json"))["name"] == f"{name}.scenario0"

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

    def test_every_finding_kind_holds_python_values(self, tmp_path, monkeypatch, capsys):
        # evidence and witnesses reach stdout through repr: numpy scalars
        # would print as np.float64(...)
        reports = []
        run_audit = cli.run_audit
        monkeypatch.setattr(cli, "run_audit",
                            lambda *a: reports.append(run_audit(*a)) or reports[-1])
        docs = ([example_path(name) for name in sorted(os.listdir(EXAMPLES))]
                + [write_doc(tmp_path, doc, f"portfolio-{seed}.json")
                   for seed, doc in zip((1, 5), portfolio_documents((1, 5)))])
        for path in docs:
            main(["audit", path, "--trials", "1000", "--out", str(tmp_path)])
        # one history row that fails and one that breaks the limits
        histories = {SQRT_TRAP: "X\n-1\n",
                     example_path("project-npv-noclamp.json"):
                         "Year1Sales,SalesGrowth,COGSGrowth,OpexPct\n84.7,-0.04,0.08,0.27\n"}
        for path, text in histories.items():
            hist = tmp_path / "history.csv"
            hist.write_text(text)
            main(["audit", path, "--trials", "1000", "--history", str(hist),
                  "--out", str(tmp_path)])

        def python_only(value):
            if isinstance(value, (list, tuple)):
                return all(python_only(v) for v in value)
            return type(value) in (int, float, str, bool, type(None))
        findings = [f for r in reports for f in r.findings]
        assert {f.kind.value for f in findings} == {k.value for k in FindingKind}
        assert {tuple(f.evidence) for f in findings if f.kind is FindingKind.BACKCAST_FAILURE} \
            == {("cell", "error_kind", "count", "rate", "first_row"),
                ("cell", "declared_min", "declared_max", "violations", "worst_value",
                 "worst_row")}
        for f in findings:
            assert all(python_only(v) for v in f.evidence.values()), f
            assert f.witness is None or python_only(f.witness), f
            assert "np." not in repr(f.evidence) + repr(f.witness)
        assert "np." not in capsys.readouterr().out

    def test_history_bad_header(self, tmp_path, capsys):
        hist = tmp_path / "history.csv"
        for bom in (b"", b"\xef\xbb\xbf"):
            hist.write_bytes(bom + b"Wrong, Header\n1,2\n")
            assert main(["audit", PROJECT, "--history", str(hist),
                         "--out", str(tmp_path)]) == 3
            assert one_error_line(capsys, "history error:") == (
                "history error: history header must start with assumption labels "
                "['Year1Sales', 'SalesGrowth', 'COGSGrowth', 'OpexPct'], got ['Wrong', 'Header']")

    def test_history_header_as_spreadsheets_write_it(self, tmp_path):
        # a byte-order mark, as Excel's "CSV UTF-8" writes, spaces around the
        # header's fields, and a label with a leading space read back from the
        # run's own trials.csv all give what the same rows written plainly give
        with open(example_path("project-npv-noclamp.json")) as fh:
            text = fh.read()
        plain_doc = write_doc(tmp_path, json.loads(text), "plain.json")
        spaced_doc = write_doc(tmp_path, json.loads(text.replace('"Year1Sales"', '" Year1Sales"')),
                               "spaced.json")
        assert main(["run", spaced_doc, "--trials", "30", "--out", str(tmp_path / "run")]) == 0
        trials = (tmp_path / "run" / "trials.csv").read_text(encoding="utf-8")
        round_trip = re.sub(r"(?m)^(trial|[0-9]+),", "", trials)
        assert round_trip.startswith(" Year1Sales,")
        rows = round_trip.split("\n", 1)[1]
        plain = "Year1Sales,SalesGrowth,COGSGrowth,OpexPct,ProjectNPV\n" + rows

        def audit(doc, data, tag):
            hist = tmp_path / f"{tag}.csv"
            hist.write_bytes(data)
            out = tmp_path / tag
            code = main(["audit", doc, "--trials", "200", "--history", str(hist),
                         "--out", str(out)])
            return code, read(out / "audit.json")
        expected = audit(plain_doc, plain.encode(), "plain")
        assert expected[0] == 2
        assert audit(plain_doc, b"\xef\xbb\xbf" + plain.encode(), "bom") == expected
        assert audit(plain_doc, plain.replace(",", ", ", 4).encode(), "spaces") == expected
        round_tripped = audit(spaced_doc, round_trip.encode(), "round-trip")
        assert round_tripped[0] == 2
        assert round_tripped == audit(spaced_doc, plain.encode(), "spaced-plain")

    def test_history_missing_file(self, tmp_path, capsys):
        assert main(["audit", PROJECT, "--history",
                     str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "no such file" in err and "nope.csv" in err


class TestHistoryMatrix:
    """A history is read into one n × k float matrix of its assumption
    columns. Trailing forecast columns, as in a run's trials.csv, are
    checked and dropped."""

    NOCLAMP = example_path("project-npv-noclamp.json")

    def write_history(self, tmp_path, rows, with_forecast):
        """A run's assumption rows, and its forecast column if asked, under
        their labels; returns (path, model, spec, the assumption matrix)."""
        model, spec = ModelDocument.load(self.NOCLAMP).build()
        store = simulate.run(model, replace(spec, trials=rows))
        table = store.assumption_matrix
        header = [model.label_of(c) for c in spec.assumption_cells]
        if with_forecast:
            table = np.hstack([table, store.forecast_matrix])
            header += [f.label for f in spec.forecasts]
        path = tmp_path / f"history-{with_forecast}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(table.tolist())
        return str(path), model, spec, store.assumption_matrix

    @pytest.mark.parametrize("with_forecast", [False, True])
    def test_reader_holds_the_values_alone(self, tmp_path, with_forecast):
        path, model, spec, rows = self.write_history(tmp_path, 20_000, with_forecast)
        cli._read_history(path, spec, model)  # what a first call sets up once
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            history = cli._read_history(path, spec, model)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 1.25 * 20_000 * 4 * 8 + 64 * 1024
        assert history.dtype == np.float64 and history.shape == (20_000, 4)
        assert np.array_equal(history, rows)

    def test_forecast_column_changes_no_byte(self, tmp_path, capsys):
        outcomes = []
        for with_forecast in (False, True):
            path = self.write_history(tmp_path, 3_000, with_forecast)[0]
            out = tmp_path / f"audit-{with_forecast}"
            code = main(["audit", self.NOCLAMP, "--trials", "1000", "--history", path,
                         "--out", str(out)])
            outcomes.append((code, capsys.readouterr(), read(out / "audit.json")))
        assert outcomes[0][0] == 2
        assert outcomes[0] == outcomes[1]
        assert b'"BackcastFailure"' in outcomes[0][2]


class TestNonAsciiLabel:
    """A document is read as UTF-8 under any locale, and a character that
    stdout's encoding cannot hold prints as a backslash escape."""

    def test_commands_under_an_ascii_locale(self, tmp_path):
        with open(HARDCODE, encoding="utf-8") as fh:
            text = fh.read().replace('"Year1Sales"', '"Ventes\u20ac"')
        doc = tmp_path / "ventes.json"
        doc.write_text(text, encoding="utf-8")
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}

        def child(argv, **settings):
            return subprocess.run([sys.executable, *argv], capture_output=True,
                                  env=dict(env, PYTHONPATH=os.path.abspath(src), **settings))

        ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        encoding = child(["-c", "import locale; print(locale.getpreferredencoding(False))"],
                         **ascii_locale).stdout.decode().strip()
        assert encoding.replace("-", "").lower() != "utf8"
        outcomes = {}
        for command in ("validate", "tornado", "audit"):
            argv = ["-m", "gridmc", command, str(doc)]
            if command != "validate":
                argv += ["--trials", "1000", "--out", str(tmp_path / command)]
            proc = child(argv, **ascii_locale)
            assert b"Traceback" not in proc.stderr, proc.stderr
            outcomes[command] = (proc.returncode, proc.stdout)
        assert {c: code for c, (code, _) in outcomes.items()} == \
            {"validate": 0, "tornado": 0, "audit": 2}
        assert b"Ventes\\u20ac: swing " in outcomes["tornado"][1]
        assert b"'assumption': 'Ventes\\u20ac'" in outcomes["audit"][1]
        # a UTF-8 stream prints the label's own bytes
        utf8 = child(["-m", "gridmc", "audit", str(doc), "--trials", "1000",
                      "--out", str(tmp_path / "utf8")], PYTHONUTF8="1")
        assert utf8.returncode == 2
        assert "'assumption': 'Ventes\u20ac'".encode("utf-8") in utf8.stdout


class TestByteOrderMark:
    """A document may start with a UTF-8 byte-order mark, as Notepad and
    Excel's "CSV UTF-8" write it: it reads as the same document."""

    def test_run_is_the_same_with_a_mark(self, tmp_path, capsys):
        with open(PROJECT, "rb") as fh:
            data = fh.read()
        marked = tmp_path / "project-npv.json"
        marked.write_bytes(b"\xef\xbb\xbf" + data)
        outcomes = []
        for path, out in ((PROJECT, tmp_path / "plain"), (str(marked), tmp_path / "marked")):
            code = main(["run", path, "--trials", "2000", "--out", str(out)])
            outcomes.append((code, capsys.readouterr().out))
            assert main(["validate", path]) == 0
            capsys.readouterr()
        assert outcomes[0] == outcomes[1] and outcomes[0][0] == 0
        names = sorted(os.listdir(tmp_path / "plain"))
        assert names == sorted(os.listdir(tmp_path / "marked"))
        assert "trials.csv" in names and "report.json" in names
        for name in names:
            with open(tmp_path / "plain" / name, "rb") as a, \
                    open(tmp_path / "marked" / name, "rb") as b:
                assert a.read() == b.read(), name


class TestQuotedLabels:
    """A label with a comma, a double quote or a line break is one quoted
    field of every CSV gridmc writes, and reads back as a history header."""

    SALES = 'Year 1 Sales, "EU"'
    NPV = "NPV\nafter tax"

    def doc(self, tmp_path):
        with open(PROJECT) as fh:  # every use of the label
            doc = json.loads(fh.read().replace('"Year1Sales"', json.dumps(self.SALES)))
        doc["forecasts"][0]["label"] = self.NPV
        return write_doc(tmp_path, doc)

    @staticmethod
    def rows(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    def test_tables_parse_to_equal_field_counts(self, tmp_path):
        path = self.doc(tmp_path)
        assert main(["run", path, "--trials", "50", "--out", str(tmp_path / "run")]) == 0
        assert main(["tornado", path, "--out", str(tmp_path / "tornado")]) == 0
        assert main(["scenario", path, "--trials", "50", "--min=-1e9",
                     "--out", str(tmp_path / "scenario")]) == 0
        trials = self.rows(tmp_path / "run" / "trials.csv")
        assert trials[0] == ["trial", self.SALES, "SalesGrowth", "COGSGrowth", "OpexPct",
                             self.NPV]
        scenario = self.rows(tmp_path / "scenario" / "scenario.csv")
        assert scenario[0] == trials[0]
        tornado = self.rows(tmp_path / "tornado" / "tornado.csv")
        assert self.SALES in [row[0] for row in tornado]
        for table, width in ((trials, 6), (scenario, 6), (tornado, 3)):
            assert len(table) > 1
            assert {len(row) for row in table} == {width}

    def test_history_with_quoted_header(self, tmp_path):
        path = self.doc(tmp_path)
        assert main(["run", path, "--trials", "20", "--out", str(tmp_path)]) == 0
        # trials.csv without its trial column: the assumptions, then the
        # observed forecast, under gridmc's own header
        text = (tmp_path / "trials.csv").read_bytes().decode("utf-8")
        history = tmp_path / "history.csv"
        history.write_bytes(re.sub(r"(?m)^(trial|[0-9]+),", "", text).encode("utf-8"))
        assert self.rows(history)[0] == [self.SALES, "SalesGrowth", "COGSGrowth",
                                         "OpexPct", self.NPV]
        assert main(["audit", path, "--history", str(history),
                     "--out", str(tmp_path / "audit")]) == 0

    @pytest.mark.parametrize("rows, message", [
        ("100,0.05,0.03,0.25,1\n100,0.05,abc,0.25,1\n",
         "line 4: could not convert string to float: 'abc'"),
        ("100,0.05,0.03,0.25,1\n100,0.05,0.03,0.25\n", "line 4 has 4 values, the header has 5"),
        ("100,0.05,0.03,0.25,inf\n", "line 3: non-finite value 'inf'"),
        ("100,0.05,0.03,0.25,1\n1_00,0.05,0.03,0.25,1\n",
         "line 4: could not convert string to float: '1_00'"),
        ("\u0661\u0660\u0660,0.05,0.03,0.25,1\n",
         "line 3: could not convert string to float: '\u0661\u0660\u0660'"),
    ], ids=["not-a-number", "short-row", "non-finite", "underscore", "arabic-indic-digits"])
    def test_history_errors_name_the_line_of_the_file(self, tmp_path, capsys, rows, message):
        # the quoted line break of the forecast's label makes the header two lines
        path = self.doc(tmp_path)
        header = io.StringIO()
        csv.writer(header, lineterminator="\n").writerow(
            [self.SALES, "SalesGrowth", "COGSGrowth", "OpexPct", self.NPV])
        history = tmp_path / "history.csv"
        history.write_text(header.getvalue() + rows, encoding="utf-8")
        assert main(["audit", path, "--history", str(history), "--out", str(tmp_path)]) == 3
        assert one_error_line(capsys, "history error:") == "history error: " + message


class TestCachedParser:
    """main parses every call with the one parser build_parser caches, so
    no option of one call may carry over to the next."""

    # (argv of each call, the exit code of each)
    SEQUENCES = {
        "continue-on-error-then-halt": (
            [["run", SQRT_TRAP, "--trials", "200", "--continue-on-error"],
             ["run", SQRT_TRAP, "--trials", "200"]], [0, 1]),
        "thresholds-then-defaults": (
            [["audit", CORRELATED, "--trials", "500", "--z", "3", "--epsilon", "0.1"],
             ["audit", CORRELATED, "--trials", "500"]], [0, 0]),
        "usage-error-between-good-calls": (
            [["run", PROJECT, "--trials", "100", "--seed", "7"],
             ["run", PROJECT, "--trials", "0"],
             ["run", PROJECT, "--trials", "100"]], [0, 3, 0]),
    }

    @staticmethod
    def outcome(capsys, argv, out):
        """(exit code, stdout, stderr, {file name: bytes}) of main(argv + --out out)."""
        out.mkdir()
        code = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        return (code, captured.out, captured.err,
                {p.name: read(p) for p in sorted(out.iterdir())})

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_back_to_back_calls_equal_lone_calls(self, tmp_path, capsys, name):
        calls, codes = self.SEQUENCES[name]
        lone = []
        for i, argv in enumerate(calls):
            cli.build_parser.cache_clear()  # a parser no call has used
            lone.append(self.outcome(capsys, argv, tmp_path / f"lone{i}"))
        assert [code for code, *_ in lone] == codes
        assert lone[0] != lone[-1]  # an option carried over would show
        cli.build_parser.cache_clear()
        back_to_back = [self.outcome(capsys, argv, tmp_path / f"next{i}")
                        for i, argv in enumerate(calls)]
        assert back_to_back == lone


def one_error_line(capsys, prefix):
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), err
    return lines[0]


NOT_JSON = "is not a JSON number"
TOO_BIG = "is beyond the float range"
BIG = "1" + "0" * 400  # a JSON integer no float can hold


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# X ~ Normal(0, 1) under =SQRT(A1), so about half the trials fail, and
# Y ~ U(0, 1) rank-correlated with X
CORRELATED_TRAP = {
    "name": "correlated-sqrt-trap",
    "cells": [{"address": "A1", "label": "X", "formula": 1},
              {"address": "A2", "label": "Root", "formula": "=SQRT(A1)"},
              {"address": "B1", "label": "Y", "formula": 0.5}],
    "assumptions": [{"cell": "X", "distribution": {"type": "normal", "mean": 0, "sd": 1}},
                    {"cell": "Y", "distribution": {"type": "uniform", "min": 0, "max": 1}}],
    "correlations": [{"a": "X", "b": "Y", "rho": 0.5}],
    "forecasts": [{"cell": "A2", "label": "Root"}],
}


def trial_rows(path):
    """The values of each row of a trials.csv, without its trial column."""
    with open(path) as fh:
        return [[float(v) for v in row[1:]] for row in list(csv.reader(fh))[1:]]


def stepped(lines):
    """(trial, values) of each step a session printed: its two lines hold the
    assumptions, then the forecasts, in trials.csv's column order."""
    steps = []
    for trial, forecasts in zip(lines[::2], lines[1::2]):
        head, assumptions = trial.split(": ", 1)
        steps.append((int(head.removeprefix("trial ")),
                      [float(part.split("=")[1])
                       for line in (assumptions, forecasts.split(": ", 1)[1])
                       for part in line.split(", ")]))
    return steps


def write_xy_doc(tmp_path, formula):
    """A document of X ~ uniform(1, 2) in A1 and the forecast Y = formula in A2."""
    doc = {"name": "scaled",
           "cells": [{"address": "A1", "label": "X", "formula": 1.5},
                     {"address": "A2", "label": "Y", "formula": formula}],
           "assumptions": [{"cell": "X", "distribution":
                            {"type": "uniform", "min": 1, "max": 2}}],
           "forecasts": [{"cell": "A2", "label": "Y"}]}
    return write_doc(tmp_path, doc)


def run_scaled(tmp_path, capsys, scale):
    """`gridmc run` of X ~ uniform(1, 2) and the forecast X * scale: the
    forecast's report stats, and the X and forecast columns of trials.csv."""
    path = write_xy_doc(tmp_path, f"=A1*{scale}")
    assert main(["run", path, "--trials", "300", "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    with open(tmp_path / "out" / "report.json") as fh:
        stats = json.load(fh, parse_constant=pytest.fail)["forecasts"][0]["stats"]
    with open(tmp_path / "out" / "trials.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    return (stats, np.array([float(row[1]) for row in rows]),
            np.array([float(row[2]) for row in rows]))


def assert_moments_follow(stats, x, values, scale):
    """The forecast's moments are those of X, scaled back."""
    centered = x - x.mean()
    sd = math.sqrt(float((centered ** 2).mean()))
    assert stats["sd"] == pytest.approx(sd * scale, rel=1e-12)
    assert stats["standard_error"] == pytest.approx(sd * scale / math.sqrt(len(x)), rel=1e-12)
    assert stats["skewness"] == pytest.approx(float((centered ** 3).mean()) / sd ** 3,
                                              rel=1e-9)
    assert stats["kurtosis"] == pytest.approx(float((centered ** 4).mean()) / sd ** 4 - 3.0,
                                              rel=1e-9)
    assert stats["mean"] == pytest.approx(float(x.mean()) * scale, rel=1e-12)
    assert stats["range_width"] == float(values.max() - values.min())


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

    @pytest.mark.parametrize("command", ["run", "audit", "scenario", "step"])
    def test_trial_count_too_large_to_hold(self, tmp_path, capsys, monkeypatch, command):
        if command == "step":
            # a session holds one block, so it steps; its trial 0 is that of
            # any run whose first block is whole
            assert main(["run", CORRELATED, "--trials", "2048", "--out", str(tmp_path)]) == 0
            capsys.readouterr()
            monkeypatch.setattr("sys.stdin", io.StringIO("step\nquit\n"))
            assert main(["step", CORRELATED, "--trials", str(10 ** 20)]) == 0
            assert stepped(capsys.readouterr().out.splitlines()) == [
                (0, trial_rows(tmp_path / "trials.csv")[0])]
            return
        # 10**20 rows are beyond numpy's largest dimension: nothing is allocated
        assert main([command, CORRELATED, "--trials", str(10 ** 20),
                     "--out", str(tmp_path)]) == 1
        assert one_error_line(capsys, "error:") == (
            f"error: {10 ** 20} trials are too many to hold in memory")
        assert os.listdir(tmp_path) == []

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

    @pytest.mark.parametrize("index, dist, message, ending", [
        (2, {"type": "normal", "mean": 0, "sd": 1e308}, "COGSGrowth: normal",
         "beyond the float range"),
        (3, {"type": "uniform", "min": -1e308, "max": 1e308}, "OpexPct: uniform",
         "beyond the float range"),
        (3, {"type": "triangular", "min": -1e308, "mode": 0, "max": 1e308},
         "OpexPct: triangular", "beyond the float range"),
        (3, {"type": "triangular", "min": 0, "mode": 1e200, "max": 2e200},
         "OpexPct: triangular", "beyond the float range"),
        (3, {"type": "discrete_uniform", "lo": -1e308, "hi": 1e308},
         "OpexPct: discrete uniform", "where integers are distinct floats"),
        (3, {"type": "discrete_uniform", "lo": 10 ** 20, "hi": 10 ** 20 + 5},
         "OpexPct: discrete uniform", "where integers are distinct floats"),
    ], ids=["normal", "uniform", "triangular-wide", "triangular-huge",
            "discrete-uniform-wide", "discrete-uniform-1e20"])
    def test_overflowing_variates_are_a_build_error(self, tmp_path, capsys,
                                                    index, dist, message, ending):
        doc = json.load(open(PROJECT))
        doc["assumptions"][index]["distribution"] = dist
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", path, "--trials", "200", "--out", str(out)]) == 1
        line = one_error_line(capsys, f"build error: assumption {message}")
        assert line.endswith(ending)
        assert not out.exists()

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

    @pytest.mark.parametrize("literal, reason, edit", [
        ("NaN", NOT_JSON, lambda d, x: d["correlations"][0].update(rho=x)),
        ("NaN", NOT_JSON, lambda d, x: d["assumptions"][0].update(distribution={
            "type": "lognormal", "log_mean": x, "log_sd": 0.1})),
        ("Infinity", NOT_JSON, lambda d, x: d["assumptions"][3]["distribution"].update(max=x)),
        ("NaN", NOT_JSON, lambda d, x: d["forecasts"][0]["target"].update(lo=x)),
        ("-Infinity", NOT_JSON, lambda d, x: d["cells"][0].update(formula=x)),
        (BIG, TOO_BIG, lambda d, x: d["assumptions"][3]["distribution"].update(max=x)),
        ("1e400", TOO_BIG, lambda d, x: d["assumptions"][3]["distribution"].update(max=x)),
        ("-" + BIG, TOO_BIG, lambda d, x: d["forecasts"][0]["target"].update(lo=x)),
        (BIG, TOO_BIG, lambda d, x: d["limits"][0].update(max=x)),
    ], ids=["rho", "log_mean", "uniform-max", "target-lo", "cell-formula",
            "uniform-max-int", "uniform-max-float", "target-lo-int", "limit-max-int"])
    def test_non_finite_literal_is_not_json(self, tmp_path, capsys, literal, reason, edit):
        doc = json.load(open(CORRELATED))
        edit(doc, "@literal")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc).replace('"@literal"', literal))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert one_error_line(capsys, "error:") == (
            f"error: not valid JSON: {literal} {reason}")
        assert os.listdir(tmp_path) == ["doc.json"]

    @pytest.mark.parametrize("row", ["100,0.05,abc,0.25", "100,0.05,0.03"])
    def test_history_bad_row(self, tmp_path, capsys, row):
        hist = tmp_path / "history.csv"
        hist.write_text("Year1Sales,SalesGrowth,COGSGrowth,OpexPct\n" + row + "\n")
        assert main(["audit", PROJECT, "--history", str(hist),
                     "--out", str(tmp_path)]) == 3
        assert "line 2" in one_error_line(capsys, "history error:")

    def test_history_header_only(self, tmp_path, capsys):
        hist = tmp_path / "history.csv"
        hist.write_text("Year1Sales,SalesGrowth,COGSGrowth,OpexPct\n")
        assert main(["audit", PROJECT, "--history", str(hist),
                     "--out", str(tmp_path)]) == 3
        assert one_error_line(capsys, "history error:") == (
            "history error: history CSV has a header but no rows")
        assert not (tmp_path / "audit.json").exists()

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

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_document_that_is_a_directory(self, tmp_path, capsys, command):
        out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        assert main([command, str(tmp_path), *out]) == 3
        assert one_error_line(capsys, "error:") == f"error: is a directory: {tmp_path}"

    def test_history_that_is_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["audit", PROJECT, "--history", str(tmp_path), "--out", str(out)]) == 3
        assert one_error_line(capsys, "error:") == f"error: is a directory: {tmp_path}"
        assert not out.exists()

    def test_history_not_utf8(self, tmp_path, capsys):
        hist = tmp_path / "history.csv"
        hist.write_bytes(b"Year1Sales,SalesGrowth,COGSGrowth,OpexPct\n100,0.05,0.03,0.25\xff\n")
        assert main(["audit", PROJECT, "--history", str(hist),
                     "--out", str(tmp_path)]) == 3
        assert one_error_line(capsys, "history error: not UTF-8 text:")
        assert not (tmp_path / "audit.json").exists()

    def test_out_naming_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("kept")
        assert main(["run", PROJECT, "--trials", "100", "--out", str(out)]) == 3
        assert one_error_line(capsys, "error:") == f"error: file exists: {out}"
        assert out.read_text() == "kept"

    def test_cycle_through_1500_cells(self, tmp_path, capsys):
        n = 1500
        doc = {"name": "ring",
               "cells": [{"address": f"A{i}", "formula": f"=A{i % n + 1}"}
                         for i in range(1, n + 1)],
               "forecasts": [{"cell": "A1", "label": "f"}]}
        assert main(["validate", write_doc(tmp_path, doc)]) == 1
        assert one_error_line(capsys, "build error:") == (
            "build error: cycle detected: " + "->".join(f"A{i}" for i in [*range(1, n + 1), 1]))

    @pytest.mark.parametrize("formula, message", [
        ("=" + "+".join(["A1"] * 600), "formula nested more than 500 levels deep"),
        ("=" + "(" * 3000 + "A1" + ")" * 3000, "formula nested more than 500 levels deep"),
        ("=" + "-" * 3000 + "A1", "formula nested more than 500 levels deep"),
        *[(make(MAX_DEPTH + 1), "formula nested more than 500 levels deep")
          for make, _ in DEPTH_CASES.values()],
    ], ids=["600-term-sum", "3000-parentheses", "3000-minuses",
            *[f"past-the-limit-{name}" for name in DEPTH_CASES]])
    def test_formula_too_deep_is_a_build_error(self, tmp_path, capsys, formula, message):
        out = tmp_path / "out"
        assert main(["run", write_xy_doc(tmp_path, formula), "--out", str(out)]) == 1
        assert one_error_line(capsys, f"build error: A2: {message} (at position ")
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["1_000", "٣"])
    def test_bare_literal_outside_the_number_grammar_is_a_build_error(
            self, tmp_path, capsys, literal):
        assert main(["validate", write_xy_doc(tmp_path, literal)]) == 1
        assert one_error_line(capsys, "build error:") == (
            "build error: A2: expected '=' formula or numeric literal (at position 0)")

    def test_number_beyond_the_float_range_is_a_build_error(self, tmp_path, capsys):
        assert main(["validate", write_xy_doc(tmp_path, "=A1+1e400")]) == 1
        assert one_error_line(capsys, "build error:") == (
            "build error: A2: 1e400 is beyond the float range (at position 4)")

    @pytest.mark.parametrize("formula, value", [
        ("=" + "+".join(["A1"] * 400), lambda x: 400 * x),
        ("=" + "IF(A1>0," * 100 + "A1" + ",0)" * 100, lambda x: x),
        *[(make(MAX_DEPTH), lambda x, v=v: x * v / 2.0) for make, v in DEPTH_CASES.values()],
    ], ids=["400-term-sum", "100-deep-IF", *[f"at-the-limit-{name}" for name in DEPTH_CASES]])
    def test_deep_formula_runs(self, tmp_path, capsys, formula, value):
        out = tmp_path / "out"
        assert main(["run", write_xy_doc(tmp_path, formula), "--trials", "100",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        with open(out / "trials.csv") as fh:
            rows = [[float(v) for v in row[1:]] for row in list(csv.reader(fh))[1:]]
        assert len(rows) == 100
        assert all(y == pytest.approx(value(x), rel=1e-12) for x, y in rows)

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

    UNPARSEABLE = [
        ("run", "--trials", "abc", "not an integer: 'abc'"),
        ("audit", "--z", "abc", "not a number: 'abc'"),
        ("audit", "--epsilon", "abc", "not a number: 'abc'"),
        ("scenario", "--min", "abc", "not a number: 'abc'"),
        # Python's float and int read these; a cell's literal does not
        ("audit", "--z", "1_0", "not a number: '1_0'"),
        ("run", "--trials", "1_000", "not an integer: '1_000'"),
        ("tornado", "--low", "0.1_0", "not a number: '0.1_0'"),
    ]

    @pytest.mark.parametrize("command, option, text, message", UNPARSEABLE,
                             ids=[f"{c}-{o}-{m}" for c, o, _, m in UNPARSEABLE])
    def test_unparseable_option_names_the_text(self, tmp_path, capsys,
                                               command, option, text, message):
        assert main([command, PROJECT, option, text, "--out", str(tmp_path)]) == 3
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == [f"error: argument {option}: {message}"]


    @pytest.mark.parametrize("formula, message", [
        ("=ABS(A1:A1)", "ABS takes no range as argument 1 (at position 5)"),
        ("=NPV(A1:A1,1)", "NPV takes no range as argument 1 (at position 5)"),
        ("=IF(A1:A1,1,2)", "IF takes no range as argument 1 (at position 4)"),
        ("=IRR(A1:A1,A1:A1)", "IRR takes no range as argument 2 (at position 11)"),
        ("=LOOKUP(A1:A1,B1:C1,0)", "LOOKUP takes no range as argument 1 (at position 8)"),
        ("=LOOKUP(A1,A1,0)", "LOOKUP needs a two-column range (at position 11)"),
        ("=IRR(A1)", "IRR needs a range of cashflows (at position 5)"),
    ])
    @pytest.mark.parametrize("command", ["validate", "run", "audit"])
    def test_formula_argument_shape(self, tmp_path, capsys, command, formula, message):
        doc = dict(ALL_FAIL, cells=[ALL_FAIL["cells"][0],
                                    {"address": "B1", "formula": 2},
                                    {"address": "C1", "formula": 3},
                                    {"address": "A2", "label": "Y", "formula": formula}])
        path = write_doc(tmp_path, doc)
        out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        assert main([command, path, *out]) == 1
        assert one_error_line(capsys, "build error:") == f"build error: A2: {message}"
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(expected_intervals=[{"forecast": "A10", "lo": -100, "hi": 100}]),
         "expected interval names unknown forecast A10"),
        (lambda d: d["forecasts"][0].update(target={"lo": 5, "hi": 0}),
         "forecast ProjectNPV target bounds out of order: 5 > 0"),
        (lambda d: d["limits"][0].update(min=1, max=0),
         "limit A15 bounds out of order: 1 > 0"),
        (lambda d: d.update(expected_intervals=[{"forecast": "ProjectNPV",
                                                 "lo": 100, "hi": -100}]),
         "expected interval B16 bounds out of order: 100 > -100"),
        (lambda d: d["forecasts"].append({"cell": "E14", "label": "ProjectNPV"}),
         "duplicate forecast label 'ProjectNPV'"),
    ], ids=["interval-on-non-forecast", "inverted-target", "inverted-limit",
            "inverted-interval", "duplicate-forecast-label"])
    @pytest.mark.parametrize("command", ["validate", "run", "audit"])
    def test_declaration_out_of_shape(self, tmp_path, capsys, command, edit, message):
        doc = json.load(open(PROJECT))
        edit(doc)
        path = write_doc(tmp_path, doc)
        out = [] if command == "validate" else ["--trials", "300", "--out", str(tmp_path / "out")]
        assert main([command, path, *out]) == 1
        assert one_error_line(capsys, "build error:") == f"build error: {message}"
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command", ["validate", "run", "audit", "tornado",
                                         "scenario", "step"])
    def test_forecast_labels_sharing_a_histogram_file(self, tmp_path, monkeypatch,
                                                      capsys, command):
        # both labels map to histogram-Net_Value.csv: one would overwrite the other
        doc = json.load(open(PROJECT))
        doc["forecasts"][0]["label"] = "Net Value"
        doc["forecasts"].append({"cell": "E14", "label": "Net_Value"})
        path = write_doc(tmp_path, doc)
        options = {"validate": [], "step": ["--trials", "300"]}.get(
            command, ["--trials", "300", "--out", str(tmp_path / "out")])
        monkeypatch.setattr("sys.stdin", io.StringIO("step\nquit\n"))
        assert main([command, path, *options]) == 1
        assert one_error_line(capsys, "build error:") == (
            "build error: forecast labels 'Net Value' and 'Net_Value' "
            "both write histogram-Net_Value.csv")
        assert not os.path.exists(tmp_path / "out")


# A3's label spells the address of A2, so "A2" would name two cells
SHADOWED = {
    "name": "shadowed",
    "cells": [{"address": "A1", "label": "In", "formula": 1},
              {"address": "A2", "formula": "=A1*2"},
              {"address": "A3", "label": "A2", "formula": 3}],
    "assumptions": [{"cell": "A1", "distribution": {"type": "uniform", "min": 0, "max": 1}}],
    "forecasts": [{"cell": "A2", "label": "Out"}],
}


class TestNameMeaningTwoCells:
    @pytest.mark.parametrize("edit, message", [
        (lambda d: None, "label 'A2' names 2 cells: A2, A3"),
        (lambda d: d["cells"][2].update(label="a2"), "label 'a2' names 2 cells: A2, A3"),
        (lambda d: d["cells"][2].update(label="Out"),
         "label 'Out' names 2 cells: A2, A3"),
        (lambda d: d["cells"][2].update(label="C3") or d["forecasts"][0].update(label="A3"),
         "label 'A3' names 2 cells: A2, A3"),
        # build_model checks the cell labels before any forecast label
        (lambda d: d.update(forecasts=[{"cell": "A1", "label": "Out"},
                                       {"cell": "A3", "label": "Out"}]),
         "label 'A2' names 2 cells: A2, A3"),
    ], ids=["label-spells-address", "label-spells-lower-address",
            "forecast-label-is-a-cell-label", "forecast-label-is-an-address",
            "label-before-duplicate-forecast-label"])
    @pytest.mark.parametrize("command", ["validate", "run", "audit", "tornado", "step"])
    def test_build_error(self, tmp_path, capsys, monkeypatch, command, edit, message):
        doc = json.loads(json.dumps(SHADOWED))
        edit(doc)
        path = write_doc(tmp_path, doc)
        monkeypatch.setattr("sys.stdin", io.StringIO("step\nquit\n"))
        out = [] if command in ("validate", "step") else ["--out", str(tmp_path / "out")]
        assert main([command, path, *out]) == 1
        assert one_error_line(capsys, "build error:") == f"build error: {message}"
        assert capsys.readouterr().out == ""
        assert not os.path.exists(tmp_path / "out")

    def test_address_shaped_label_of_an_undefined_cell(self, capsys):
        # the portfolio labels A10..A24 as X10..X24 and defines no X cell
        doc = json.loads(json.dumps(SHADOWED))
        doc["cells"][2]["label"] = "X2"
        _, spec = ModelDocument(doc).build()
        assert spec.forecasts[0].cell == parse_cell("A2")


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

    def test_count_of_non_ascii_digits_prints_help(self, monkeypatch, capsys):
        # "²".isdigit() holds, but int("²") raises
        assert self.run_step(monkeypatch, "run ²\nrun ٣\nquit\n") == 0
        out = capsys.readouterr().out
        assert out == (cli._STEP_HELP + "\n") * 2

    def test_unknown_cell_reports_error(self, monkeypatch, capsys):
        assert self.run_step(monkeypatch, "show Nope\nquit\n") == 0
        assert "error:" in capsys.readouterr().out

    def test_correlated_steps_equal_run_rows(self, monkeypatch, capsys, tmp_path):
        # steps 0..199 are the 200-trial run's rows; past its end, steps 200
        # and 201 are rows of a run whose first block is whole
        rows = {}
        for trials in ("200", "1024"):
            assert main(["run", CORRELATED, "--trials", trials, "--seed", "7",
                         "--out", str(tmp_path / trials)]) == 0
            rows[trials] = trial_rows(tmp_path / trials / "trials.csv")
        assert len(rows["200"]) == 200 and rows["1024"][:200] != rows["200"]
        capsys.readouterr()
        assert self.run_step(monkeypatch, "run 201\nstep\nreset\nstep\nquit\n",
                             path=CORRELATED, extra=["--trials", "200", "--seed", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines.pop(404) == "reset to trial 0"
        assert stepped(lines) == [*enumerate(rows["200"]), (200, rows["1024"][200]),
                                  (201, rows["1024"][201]), (0, rows["200"][0])]

    def test_correlated_session_needs_the_run_trials(self, monkeypatch, capsys, tmp_path):
        assert main(["run", CORRELATED, "--trials", "20", "--out", str(tmp_path)]) == 1
        line = one_error_line(capsys, "error:")
        assert self.run_step(monkeypatch, "step\nquit\n", path=CORRELATED,
                             extra=["--trials", "20"]) == 1
        assert one_error_line(capsys, "error:") == line
        assert capsys.readouterr().out == ""

    def test_eof_ends_session(self, monkeypatch):
        assert self.run_step(monkeypatch, "step\n") == 0


def npv_named_doc():
    """project-npv with a forecast label ("NPV") that differs from the
    label of its cell B16 ("ProjectNPV")."""
    doc = json.load(open(PROJECT))
    doc["forecasts"][0]["label"] = "NPV"
    return doc


class TestNames:
    """Each name form means B16 wherever a name is read, and giving the
    name to another cell is a build error."""

    @pytest.mark.parametrize("name, give_away", [
        ("NPV", lambda d: d["cells"][32].update(label="NPV")),
        ("ProjectNPV", lambda d: d["forecasts"].append({"cell": "E14", "label": "ProjectNPV"})),
        ("B16", lambda d: d["cells"][32].update(label="B16")),
        ("b16", lambda d: d["cells"][32].update(label="b16")),
    ], ids=["forecast-label", "cell-label", "address", "lower-address"])
    def test_name_means_one_cell(self, tmp_path, monkeypatch, capsys, name, give_away):
        doc = npv_named_doc()
        path = write_doc(tmp_path, doc)

        declared = json.loads(json.dumps(doc))
        for e in declared["expectations"]:
            e["forecast"] = name
        declared["expected_intervals"] = [{"forecast": name, "lo": -1e9, "hi": 1e9}]
        declared["limits"] = [{"cell": name, "min": -1e12}]
        _, spec = ModelDocument(declared).build()
        assert {e.forecast for e in spec.expectations} == {parse_cell("B16")}
        assert spec.expected_intervals[0].forecast == parse_cell("B16")
        assert spec.limits[0].cell == parse_cell("B16")

        outputs = {}
        for tag, forecast in (("default", []), ("named", ["--forecast", name])):
            out = tmp_path / tag
            assert main(["tornado", path, *forecast, "--out", str(out)]) == 0
            assert main(["scenario", path, "--trials", "200", "--min", "0",
                         *forecast, "--out", str(out)]) == 0
            with open(out / "scenario.csv") as fh:
                scenario = list(csv.reader(fh))
            outputs[tag] = (read(out / "tornado.csv"), scenario[0][:-1], scenario[1:])
        assert outputs["named"] == outputs["default"]
        assert scenario[0][-1] == name

        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(
            f"step\nshow {name}\ntrace {name}\nshow B16\ntrace B16\nquit\n"))
        assert main(["step", path]) == 0
        lines = capsys.readouterr().out.splitlines()[2:]
        half = len(lines) // 2
        assert half >= 2 and lines[0].startswith(f"{name} = ")
        strip = [line.removeprefix(name).removeprefix("B16") for line in lines]
        assert strip[:half] == strip[half:]

        assert doc["cells"][32]["address"] == "E14"
        give_away(doc)
        assert main(["validate", write_doc(tmp_path, doc, "given-away.json")]) == 1
        line = one_error_line(capsys, "build error:")
        assert line.endswith(f"'{name}' names 2 cells: E14, B16")


class TestConsoleScript:
    @pytest.mark.skipif(shutil.which("gridmc") is None,
                        reason="gridmc console script is not installed on PATH")
    def test_entry_point_installed(self):
        proc = subprocess.run(["gridmc", "validate", PROJECT],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ok"
