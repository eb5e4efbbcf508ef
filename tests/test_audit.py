import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmc import analytics
from gridmc.audit import (
    AuditFinding,
    FindingKind,
    Thresholds,
    backcast,
    check_intervals,
    check_limits,
    detect_disconnected,
    error_census,
    run_audit,
)
from gridmc.cells import parse_cell
from gridmc.cli import main
from gridmc.distributions import Uniform
from gridmc.document import ModelDocument
from gridmc.model import CalcError, build_model, evaluate_batch
from gridmc.simulate import (
    ExpectedInterval,
    Forecast,
    Limit,
    SimulationSpec,
    replay,
    run,
    run_blocks,
    sample_assumptions,
)
from tests.conftest import portfolio_documents
from tests.inverse_cdf_oracle import inverse_cdf


def C(text):
    return parse_cell(text)


def bits(values) -> list:
    """The bit patterns of a sequence of floats."""
    return np.array(list(values), dtype=float).view(np.uint64).tolist()


def audit_of(doc, seed=42):
    model, spec = doc.build(seed=seed)
    return model, spec, run_audit(model, spec)


class TestFixtureAudits:
    def test_correct_model_is_clean(self, project_doc):
        _, _, report = audit_of(project_doc)
        assert report.findings == []
        assert not report.has_errors

    def test_hardcode_flags_disconnected(self, hardcode_doc):
        model, spec, report = audit_of(hardcode_doc)
        assert report.counts == {"Disconnected": 1}
        finding = report.findings[0]
        assert finding.severity == "error"
        assert finding.evidence["assumption"] == "Year1Sales"
        assert finding.evidence["forecast"] == "ProjectNPV"
        assert abs(finding.evidence["spearman"]) < finding.evidence["spearman_threshold"]
        assert finding.evidence["tornado_swing"] <= finding.evidence["swing_threshold"]
        # the witness (all-median vector) evaluates cleanly
        assert not isinstance(replay(model, spec, finding.witness), CalcError)

    def test_signflip_flags_sign_mismatch(self, signflip_doc):
        _, _, report = audit_of(signflip_doc)
        assert report.counts == {"SignMismatch": 1}
        finding = report.findings[0]
        assert finding.severity == "error"
        assert finding.evidence["assumption"] == "COGSGrowth"
        assert finding.evidence["declared_sign"] == -1
        assert finding.evidence["tornado_direction"] == 1

    def test_correlated_flags_masking_only(self, correlated_doc):
        _, _, report = audit_of(correlated_doc)
        assert report.counts == {"CorrelationMasking": 1}
        finding = report.findings[0]
        assert finding.severity == "warning"
        assert not report.has_errors  # warnings do not fail the audit
        assert finding.evidence["assumption"] == "COGSGrowth"
        # masked: isolation agrees with the declaration, ranks disagree
        assert finding.evidence["tornado_direction"] == -1
        assert finding.evidence["spearman"] > 0

    def test_noclamp_flags_limit_violations(self, noclamp_doc):
        model, spec, report = audit_of(noclamp_doc)
        kinds = set(report.counts)
        assert kinds == {"LimitViolation"}
        assert report.has_errors
        for finding in report.findings:
            # witness replays to a value that actually breaks the limit
            result = replay(model, spec, finding.witness)
            cell = C(finding.evidence["cell"])
            assert result[cell] == finding.evidence["worst_value"]
            assert result[cell] < finding.evidence["declared_min"]

    def test_clamped_control_has_no_limit_findings(self, project_doc):
        model, spec = project_doc.build()
        store = run(model, replace(spec, stop_on_error=False))
        assert check_limits(store) == []

    def test_sqrt_trap_census_rate(self, sqrt_trap_doc):
        _, _, report = audit_of(sqrt_trap_doc)
        assert set(report.counts) == {"ErrorCensus"}
        finding = [f for f in report.findings if f.kind is FindingKind.ERROR_CENSUS][0]
        assert finding.evidence["error_kind"] == "DomainError"
        assert finding.evidence["cell"] == "A2"
        # half of all Normal(0,1) draws are negative
        assert abs(finding.evidence["rate"] - 0.5) <= 0.02

    def test_report_json_deterministic(self, noclamp_doc):
        _, _, r1 = audit_of(noclamp_doc)
        _, _, r2 = audit_of(noclamp_doc)
        assert r1.to_json() == r2.to_json()
        assert r1.to_json()["thresholds"] == {"z": 2.58, "epsilon": 1e-6}
        assert r1.to_json()["run"] == {"seed": 42, "trials": 5000}


class TestDisconnected:
    def test_dead_if_branch(self):
        # A2 only matters when A1 > 2, which Uniform(0,1) never reaches
        model = build_model([
            ("A1", "x", 0.5), ("A2", "y", 0.5),
            ("A3", "f", "=IF(A1>2,A2,A1)"),
        ])
        spec = SimulationSpec(
            assumptions=[(C("A1"), Uniform(0, 1)), (C("A2"), Uniform(0, 1))],
            forecasts=[Forecast(C("A3"), "f")], trials=2000, seed=42)
        report = run_audit(model, spec)
        disc = [f for f in report.findings if f.kind is FindingKind.DISCONNECTED]
        assert len(disc) == 1
        assert disc[0].evidence["assumption"] == "y"

    def test_connected_assumption_not_flagged(self):
        model = build_model([("A1", "x", 0.5), ("A2", "f", "=2*A1")])
        spec = SimulationSpec(assumptions=[(C("A1"), Uniform(0, 1))],
                              forecasts=[Forecast(C("A2"), "f")],
                              trials=500, seed=42)
        report = run_audit(model, spec)
        assert report.findings == []

    def test_requires_both_conditions(self):
        # the forecast only reacts in the extreme tails, so the tornado
        # (quantiles 0.1/0.9) sees zero swing while the ranks clearly move;
        # a flat tornado alone must not trigger the finding
        model = build_model([
            ("A1", "x", 0.5),
            ("A2", "f", "=IF(A1>0.95,0-1,IF(A1<0.05,1,0))"),
        ])
        spec = SimulationSpec(assumptions=[(C("A1"), Uniform(0, 1))],
                              forecasts=[Forecast(C("A2"), "f")],
                              trials=4000, seed=42)
        store = run(model, replace(spec, stop_on_error=False))
        sens = analytics.sensitivity(store)
        assert abs(sens["f"][0].spearman) > 2.58 / math.sqrt(store.completed)
        torn = analytics.tornado(model, spec)["f"]
        assert torn.bar("x").swing == 0.0
        report = run_audit(model, spec)
        assert [f for f in report.findings if f.kind is FindingKind.DISCONNECTED] == []

    @staticmethod
    def with_second_forecast(doc):
        # a forecast that depends on SalesGrowth alone, by design
        data = json.loads(json.dumps(doc.data))
        data["cells"].append({"address": "B17", "label": "Root",
                              "formula": "=SQRT(B3+0.06)"})
        data["forecasts"].append({"cell": "B17", "label": "Root"})
        return ModelDocument.from_json(data).build(trials=1000)

    def test_second_forecast_flags_nothing_connected(self, project_doc):
        model, spec = self.with_second_forecast(project_doc)
        report = run_audit(model, spec)
        assert [f for f in report.findings if f.kind is FindingKind.DISCONNECTED] == []

    def test_disconnected_from_every_forecast_flagged_against_each(self, hardcode_doc):
        model, spec = self.with_second_forecast(hardcode_doc)
        found = [f for f in run_audit(model, spec).findings if f.kind is FindingKind.DISCONNECTED]
        assert [(f.evidence["assumption"], f.evidence["forecast"]) for f in found] == [
            ("Year1Sales", "ProjectNPV"), ("Year1Sales", "Root")]

    def test_witness_is_the_tornados_row_of_medians(self, hardcode_doc):
        # every shape's median: the witness is taken from the tornado's sweep,
        # and both equal the per-element oracle's bit for bit
        docs = [hardcode_doc] + [ModelDocument.from_json(data)
                                 for data in portfolio_documents((1, 2, 3))]
        shapes = set()
        for doc in docs:
            model, spec = doc.build(trials=1000)
            shapes |= {type(d).__name__ for d in spec.distributions}
            medians = bits(inverse_cdf(d, 0.5) for d in spec.distributions)
            torn = analytics.tornado(model, spec)
            found = [f for f in run_audit(model, spec).findings
                     if f.kind is FindingKind.DISCONNECTED]
            assert found
            for finding in found:
                assert bits(finding.witness) == bits(torn[finding.evidence["forecast"]].medians)
                assert bits(finding.witness) == medians
        assert shapes == {"Uniform", "Triangular", "Normal", "Lognormal",
                          "DiscreteUniform", "Custom"}

    def test_minimum_trial_count(self):
        model = build_model([("A1", "x", 0.5), ("A2", "f", "=A1")])
        spec = SimulationSpec(assumptions=[(C("A1"), Uniform(0, 1))],
                              forecasts=[Forecast(C("A2"), "f")],
                              trials=50, seed=1)
        store = run(model, spec)
        sens = analytics.sensitivity(store)
        torn = analytics.tornado(model, spec)
        with pytest.raises(ValueError, match="at least 100"):
            detect_disconnected(store, sens, torn)

    def test_threshold_scales_with_z(self, hardcode_doc):
        # an absurdly small z leaves nothing inside the independence band
        model, spec = hardcode_doc.build()
        report = run_audit(model, spec, thresholds=Thresholds(z=1e-12))
        assert [f for f in report.findings if f.kind is FindingKind.DISCONNECTED] == []

    def test_forecast_range_wider_than_the_largest_float(self, tmp_path):
        # Y spans about 3e308, more than the largest float; Z moves nothing
        doc = {
            "name": "wide",
            "cells": [{"address": "A1", "label": "X", "formula": 1.5},
                      {"address": "A2", "label": "Z", "formula": 0.5},
                      {"address": "A3", "label": "Y", "formula": "=(A1-1.5)*1e308*3"}],
            "assumptions": [
                {"cell": "X", "distribution": {"type": "uniform", "min": 1, "max": 2}},
                {"cell": "Z", "distribution": {"type": "uniform", "min": 0, "max": 1}}],
            "forecasts": [{"cell": "A3", "label": "Y"}],
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["audit", str(path), "--trials", "500",
                         "--out", str(tmp_path / "out")]) == 2
        assert caught == []

        def strict(constant):
            raise ValueError(f"{constant} in audit.json")
        audit = json.loads((tmp_path / "out" / "audit.json").read_text(),
                           parse_constant=strict)
        [finding] = audit["findings"]
        assert finding["kind"] == "Disconnected"
        assert finding["evidence"]["assumption"] == "Z"
        assert 1e302 < finding["evidence"]["swing_threshold"] < 1e303


class TestIntervals:
    def _store(self, lo, hi):
        model = build_model([("A1", "x", 0.5), ("A2", "f", "=A1")])
        spec = SimulationSpec(
            assumptions=[(C("A1"), Uniform(0, 1))],
            forecasts=[Forecast(C("A2"), "f")],
            expected_intervals=[ExpectedInterval(C("A2"), lo, hi)],
            trials=500, seed=3)
        return run(model, spec)

    def test_breach_reports_observed_range(self):
        store = self._store(0.2, 0.8)
        findings = check_intervals(store)
        assert len(findings) == 1
        ev = findings[0].evidence
        assert ev["declared"] == [0.2, 0.8]
        v = store.forecast_values("f")
        assert ev["observed"] == [float(v.min()), float(v.max())]
        expected_frac = float(np.mean((v < 0.2) | (v > 0.8)))
        assert ev["exceedance_fraction"] == expected_frac
        # Python scalars only, so the evidence prints cleanly on stdout
        assert type(ev["exceedance_fraction"]) is float
        assert "np." not in repr(findings[0].evidence)

    def test_containing_interval_is_clean(self):
        assert check_intervals(self._store(-1.0, 2.0)) == []


class TestErrorCensus:
    def test_irr_nonconvergent_witness(self):
        # flows (A1, B1): all-positive whenever A1 > 0 -> NonConvergent
        model = build_model([
            ("A1", "flow0", -10), ("B1", "flow1", 100),
            ("C1", "rate", "=IRR(A1:B1)"),
        ])
        spec = SimulationSpec(
            assumptions=[(C("A1"), Uniform(-50, 50))],
            forecasts=[Forecast(C("C1"), "rate")],
            trials=400, seed=42, stop_on_error=False)
        store = run(model, spec)
        findings = error_census(store)
        assert len(findings) == 1
        ev = findings[0].evidence
        assert ev["error_kind"] == "NonConvergent"
        assert ev["cell"] == "C1"
        assert abs(ev["rate"] - 0.5) < 0.1
        assert ev["count"] == len(store.errors)
        # witness replays to the same error; it is a positive first flow
        result = replay(model, spec, findings[0].witness)
        assert isinstance(result, CalcError)
        assert findings[0].witness[0] > 0

    def test_cells_listed_row_major(self):
        # A1 < -0.5 fails at B9 and A1 > 0.5 at B10: B9 comes first, as in
        # the evaluation order, although "B10" < "B9" as text
        model = build_model([("A1", "x", 1), ("B9", None, "=SQRT(A1+0.5)"),
                             ("B10", None, "=SQRT(0.5-A1)"), ("C1", "f", "=A1")])
        spec = SimulationSpec(
            assumptions=[(C("A1"), Uniform(-1, 1))],
            forecasts=[Forecast(C("C1"), "f")],
            trials=200, seed=42, stop_on_error=False)
        findings = error_census(run(model, spec))
        assert [f.evidence["cell"] for f in findings] == ["B9", "B10"]
        assert [f.cells for f in findings] == [("B9",), ("B10",)]

    def test_no_errors_no_findings(self, project_doc):
        model, spec = project_doc.build()
        store = run(model, replace(spec, stop_on_error=False))
        assert error_census(store) == []


class TestBackcast:
    def _linear(self):
        model = build_model([
            ("A1", "x", 0.5), ("A2", "y", 0.5), ("A3", "f", "=3*A1-2*A2"),
        ])
        spec = SimulationSpec(
            assumptions=[(C("A1"), Uniform(0, 1)), (C("A2"), Uniform(0, 1))],
            forecasts=[Forecast(C("A3"), "f")], trials=100, seed=42)
        return model, spec

    def test_self_consistency_zero_residuals(self):
        model, spec = self._linear()
        store = run(model, spec)
        history = [list(r) for r in store.assumption_matrix[:5]]
        observed = [[v] for v in store.forecast_matrix[:5, 0]]
        result = backcast(model, spec, history, observed)
        assert result.findings == []
        assert all(row["f"] == 0.0 for row in result.residuals)
        assert result.mean_abs_residual == {"f": 0.0}

    def test_residual_hand_oracle(self):
        model, spec = self._linear()
        history = [[0.1, 0.2], [0.5, 0.5], [0.9, 0.1]]
        observed = [[0.0], [0.4], [2.0]]
        result = backcast(model, spec, history, observed)
        expected = [3 * a - 2 * b - o[0]
                    for (a, b), o in zip(history, observed)]
        got = [row["f"] for row in result.residuals]
        assert got == pytest.approx(expected, abs=1e-12)
        assert result.mean_abs_residual["f"] == pytest.approx(
            sum(abs(e) for e in expected) / 3)

    def test_error_row_becomes_failure_finding(self):
        model = build_model([("A1", "x", 1.0), ("A2", "f", "=SQRT(A1)")])
        spec = SimulationSpec(assumptions=[(C("A1"), Uniform(0, 1))],
                              forecasts=[Forecast(C("A2"), "f")],
                              trials=10, seed=1)
        result = backcast(model, spec, [[4.0], [-1.0], [9.0], [-4.0]])
        assert len(result.findings) == 1
        f = result.findings[0]
        assert f.kind is FindingKind.BACKCAST_FAILURE
        assert f.cells == ("A2",)
        assert f.evidence == {"cell": "A2", "error_kind": "DomainError", "count": 2,
                              "rate": 0.5, "first_row": 1}
        assert f.witness == (-1.0,)

    def test_limit_violation_row(self):
        model, spec = self._linear()
        spec.limits = [Limit(C("A3"), min=0.0)]
        result = backcast(model, spec, [[0.9, 0.1], [0.0001, 0.9], [0.1, 0.2], [0.5, 0.5]])
        assert len(result.findings) == 1
        f = result.findings[0]
        assert f.cells == ("A3",)
        assert {k: f.evidence[k] for k in ("cell", "declared_min", "declared_max",
                                           "violations", "worst_row")} == \
            {"cell": "A3", "declared_min": 0.0, "declared_max": None, "violations": 2,
             "worst_row": 1}
        assert f.evidence["worst_value"] == 3 * 0.0001 - 2 * 0.9
        assert f.witness == (0.0001, 0.9)

    def test_validation(self):
        model, spec = self._linear()
        with pytest.raises(ValueError, match="at least one"):
            backcast(model, spec, [])
        with pytest.raises(ValueError, match="expected 2"):
            backcast(model, spec, [[0.5]])
        with pytest.raises(ValueError, match="observed"):
            backcast(model, spec, [[0.5, 0.5]], observed=[])
        # one observed value per row where there is one forecast, not a broadcast
        model, spec = TestBackcastBatch._model()
        with pytest.raises(ValueError,
                           match=r"^observed row 1 has 1 values, expected 2$"):
            backcast(model, spec, [[4.0, 1.0], [1.0, 2.0]], observed=[[0.0, 1.0], [0.0]])
        with pytest.raises(ValueError,
                           match=r"^observed row 0 has 1 values, expected 2$"):
            backcast(model, spec, [[4.0, 1.0], [1.0, 2.0]], observed=[[0.0], [1.1]])

    def test_run_audit_includes_backcast(self):
        model, spec = self._linear()
        # a wild observed value is not itself a failure; only calc errors
        # and limit breaks are findings
        assert backcast(model, spec, [[0.5, 0.5]], observed=[[99.0]]).findings == []
        report = run_audit(model, spec, history=[[0.5, 0.5]])
        assert [f for f in report.findings if f.kind is FindingKind.BACKCAST_FAILURE] == []
        model2 = build_model([("A1", "x", 1.0), ("A2", "f", "=SQRT(A1)")])
        spec2 = SimulationSpec(assumptions=[(C("A1"), Uniform(0, 1))],
                               forecasts=[Forecast(C("A2"), "f")],
                               trials=200, seed=42)
        report2 = run_audit(model2, spec2, history=[[-2.0]])
        assert len([f for f in report2.findings if f.kind is FindingKind.BACKCAST_FAILURE]) == 1


def replay_oracle(model, spec, history, observed=None):
    """Back-casting as one replay call per history row, grouped here: per
    limit, the rows that break it and the first of those farthest outside
    it; per (cell, error kind), the failed rows. Returns the findings, the
    residual rows and the mean absolute residuals."""
    results = [replay(model, spec, row) for row in history]
    findings = []
    for lim in spec.limits:
        breaches = []  # (distance outside the limit, row)
        for i, result in enumerate(results):
            if isinstance(result, CalcError):
                continue
            v = result[lim.cell]
            if lim.min is not None and v < lim.min:
                breaches.append((lim.min - v, i))
            elif lim.max is not None and v > lim.max:
                breaches.append((v - lim.max, i))
        if breaches:
            worst = max(breaches, key=lambda b: (b[0], -b[1]))[1]
            findings.append(AuditFinding(
                FindingKind.BACKCAST_FAILURE, (str(lim.cell),),
                {"cell": str(lim.cell), "declared_min": lim.min, "declared_max": lim.max,
                 "violations": len(breaches), "worst_value": results[worst][lim.cell],
                 "worst_row": worst},
                tuple(history[worst])))
    failed = {}
    for i, result in enumerate(results):
        if isinstance(result, CalcError):
            failed.setdefault((result.cell, result.kind.value), []).append(i)
    for (cell, kind), rows in sorted(failed.items()):
        findings.append(AuditFinding(
            FindingKind.BACKCAST_FAILURE, (str(cell),),
            {"cell": str(cell), "error_kind": kind, "count": len(rows),
             "rate": len(rows) / len(history), "first_row": rows[0]},
            tuple(history[rows[0]])))
    residual_rows = []
    abs_residuals = {f.label: [] for f in spec.forecasts}
    for i, result in enumerate(results):
        if observed is None or isinstance(result, CalcError):
            continue
        residuals = {"row": i}
        for fi, f in enumerate(spec.forecasts):
            residuals[f.label] = result[f.cell] - observed[i][fi]
            abs_residuals[f.label].append(abs(residuals[f.label]))
        residual_rows.append(residuals)
    mar = {label: (sum(v) / len(v) if v else None) for label, v in abs_residuals.items()}
    return findings, residual_rows, mar


class TestBackcastBatch:
    """backcast evaluates the rows TRIALS_BLOCK at a time; it must equal
    the row-by-row replay oracle bit for bit."""

    # clean, SQRT of a negative, A4 breach, B1 breach, SQRT(-0.0) with an
    # A2 breach, two breaches in one row, B1 breach
    MIXED = [[4.0, 1.0], [-1.0, 0.0], [1.0, 2.0], [9.0, 2.5],
             [-0.0, -2.0], [0.25, 4.0], [16.0, 0.5]]

    @staticmethod
    def _model():
        model = build_model([
            ("A1", "x", 1.0), ("A2", "y", 0.5),
            ("A3", "root", "=SQRT(A1)"), ("A4", "net", "=A3-A2"),
            ("A5", "f", "=2*A4+A2"), ("B1", "g", "=A1*A2"),
        ])
        spec = SimulationSpec(
            assumptions=[(C("A1"), Uniform(0, 1)), (C("A2"), Uniform(0, 1))],
            forecasts=[Forecast(C("A5"), "f"), Forecast(C("B1"), "g")],
            limits=[Limit(C("A4"), min=0.0), Limit(C("B1"), max=4.0),
                    Limit(C("A2"), min=-1.0, max=3.0)],
            trials=10, seed=1)
        return model, spec

    def _assert_matches_oracle(self, history, observed):
        model, spec = self._model()
        result = backcast(model, spec, history, observed)
        findings, residuals, mar = replay_oracle(model, spec, history, observed)
        # json text tells -0.0 from 0.0 and keeps the order of the findings
        assert [json.dumps(f.to_json()) for f in result.findings] == \
            [json.dumps(f.to_json()) for f in findings]
        assert repr(result.residuals) == repr(residuals)
        assert repr(result.mean_abs_residual) == repr(mar)
        return result

    # 400 copies: 2,800 rows, with errors and breaches in each of three passes
    @pytest.mark.parametrize("with_observed, copies, passes", [
        (False, 1, [7]), (True, 1, [7]),
        (False, 400, [1024, 1024, 752]), (True, 400, [1024, 1024, 752]),
    ], ids=["False", "True", "False-2800-rows", "True-2800-rows"])
    def test_mixed_history_matches_replay_oracle(self, monkeypatch, with_observed, copies,
                                                 passes):
        sizes = []
        monkeypatch.setattr("gridmc.simulate.evaluate_batch",
                            lambda *a: sizes.append(a[2]) or evaluate_batch(*a))
        history = self.MIXED * copies
        observed = ([[0.5 * i, -1.0 + i] for i in range(len(history))]
                    if with_observed else None)
        result = self._assert_matches_oracle(history, observed)
        assert sizes == passes
        # A4 breaks in rows 2 and 5, B1 in 3 and 6, A2 in 4 and 5 (one apart
        # from its limits in both, so the first is the worst), and A3 fails in row 1
        assert [(f.cells[0], f.evidence.get("violations", f.evidence.get("count")),
                 f.evidence.get("worst_row", f.evidence.get("first_row")))
                for f in result.findings] == [
            ("A4", 2 * copies, 5), ("B1", 2 * copies, 3), ("A2", 2 * copies, 4),
            ("A3", copies, 1)]
        offsets = range(0, len(history), len(self.MIXED))
        assert [r["row"] for r in result.residuals] == (
            [s + i for s in offsets for i in [0, 2, 3, 4, 5, 6]] if with_observed else [])

    def test_witnesses_replay_to_the_finding(self):
        model, spec = self._model()
        findings = backcast(model, spec, self.MIXED).findings
        assert len(findings) == 4
        for f in findings:
            result = replay(model, spec, f.witness)
            if "error_kind" in f.evidence:
                assert isinstance(result, CalcError)
                assert (str(result.cell), result.kind.value) == \
                    (f.evidence["cell"], f.evidence["error_kind"])
            else:
                value = result[C(f.evidence["cell"])]
                assert repr(value) == repr(f.evidence["worst_value"])

    def test_float_matrix_is_not_copied_and_gives_python_floats(self, monkeypatch):
        model, spec = self._model()
        history = np.array(self.MIXED * 400)  # three blocks
        blocks = []

        def spy(model, spec, pairs):
            pairs = list(pairs)
            blocks.extend(rows for _, rows in pairs)
            return run_blocks(model, spec, pairs)
        monkeypatch.setattr("gridmc.audit.run_blocks", spy)
        findings = backcast(model, spec, history).findings
        assert len(blocks) == 3 and all(np.shares_memory(b, history) for b in blocks)
        assert [json.dumps(f.to_json()) for f in findings] == \
            [json.dumps(f.to_json()) for f in backcast(model, spec, self.MIXED * 400).findings]
        for f in findings:
            assert [type(v) for v in f.witness] == [float, float]
            result = replay(model, spec, f.witness)
            if "error_kind" in f.evidence:
                assert (str(result.cell), result.kind.value) == \
                    (f.evidence["cell"], f.evidence["error_kind"])
            else:
                assert repr(result[C(f.evidence["cell"])]) == repr(f.evidence["worst_value"])

    def test_every_row_failing_is_no_error(self):
        # unlike a run, a history in which every row fails is a finding
        history = [[-1.0, 0.0], [-4.0, 1.0], [-0.5, 2.0]]
        result = self._assert_matches_oracle(history, [[0.0, 0.0]] * 3)
        assert [f.evidence for f in result.findings] == [
            {"cell": "A3", "error_kind": "DomainError", "count": 3, "rate": 1.0,
             "first_row": 0}]
        assert result.residuals == []
        assert result.mean_abs_residual == {"f": None, "g": None}

    def test_witnesses_are_the_callers_rows(self):
        model, spec = self._model()
        # three breaches in one row, a SQRT of a negative, a clean row
        findings = backcast(model, spec, [[4, 5], [-1, 0], [1, 1]]).findings
        assert [f.witness for f in findings] == [(4, 5)] * 3 + [(-1, 0)]
        assert [json.dumps(f.to_json()["witness"]) for f in findings] == \
            ["[4, 5]"] * 3 + ["[-1, 0]"]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 4.0]),
                  st.floats(-4.0, 25.0, allow_nan=False)),
        st.floats(-3.0, 5.0, allow_nan=False),
        st.floats(-10.0, 10.0, allow_nan=False),
        st.floats(-10.0, 10.0, allow_nan=False),
    ), min_size=1, max_size=12), st.booleans())
    def test_random_histories_match_replay_oracle(self, rows, with_observed):
        history = [[x, y] for x, y, _, _ in rows]
        observed = [[f, g] for _, _, f, g in rows] if with_observed else None
        self._assert_matches_oracle(history, observed)


class TestBackcastAgreesWithTheRun:
    """A history of a run's own sampled rows gives the run's limit and error
    findings, with rows for trials: one detector for both."""

    RENAMED = {"worst_trial": "worst_row", "first_trial": "first_row"}

    @pytest.mark.parametrize("fixture, expected", [
        ("noclamp_doc", [("D15", 25, 3178), ("E15", 150, 1791)]),
        ("sqrt_trap_doc", [("A2", 2415, 4)]),
    ])
    def test_history_of_the_sampled_rows(self, request, fixture, expected):
        model, spec = request.getfixturevalue(fixture).build(trials=5000)
        report = run_audit(model, spec)
        from_run = ([f for f in report.findings if f.kind is FindingKind.LIMIT_VIOLATION]
                    + [f for f in report.findings if f.kind is FindingKind.ERROR_CENSUS])
        from_history = backcast(model, spec, sample_assumptions(spec)).findings
        assert [f.kind for f in from_history] == [FindingKind.BACKCAST_FAILURE] * len(from_run)
        assert [(f.cells, json.dumps(f.to_json()["evidence"]), bits(f.witness))
                for f in from_history] == \
            [(f.cells, json.dumps({self.RENAMED.get(k, k): v
                                   for k, v in f.to_json()["evidence"].items()}),
              bits(f.witness)) for f in from_run]
        assert [(f.cells[0], f.evidence.get("violations", f.evidence.get("count")),
                 f.evidence.get("worst_row", f.evidence.get("first_row")))
                for f in from_history] == expected


class TestFindingSerialization:
    def test_witness_only_when_present(self):
        f = AuditFinding(FindingKind.SIGN_MISMATCH, ("B4", "B16"), {"a": 1})
        assert "witness" not in f.to_json()
        g = AuditFinding(FindingKind.LIMIT_VIOLATION, ("A15",), {}, (1.0,))
        assert g.to_json()["witness"] == [1.0]

    def test_counts(self, noclamp_doc):
        _, _, report = audit_of(noclamp_doc)
        total = sum(report.counts.values())
        assert total == len(report.findings)
        assert len([f for f in report.findings if f.kind is FindingKind.LIMIT_VIOLATION]) == \
            report.counts["LimitViolation"]
