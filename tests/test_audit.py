import json
import math
from dataclasses import replace

import numpy as np
import pytest

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
from gridmc.distributions import Uniform
from gridmc.document import ModelDocument
from gridmc.model import CalcError, build_model
from gridmc.simulate import (
    ExpectedInterval,
    Forecast,
    Limit,
    SimulationSpec,
    replay,
    run,
)


def C(text):
    return parse_cell(text)


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
        finding = report.by_kind(FindingKind.ERROR_CENSUS)[0]
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
        disc = report.by_kind(FindingKind.DISCONNECTED)
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
        torn = analytics.tornado(model, spec, "f")
        assert torn.bar("x").swing == 0.0
        report = run_audit(model, spec)
        assert report.by_kind(FindingKind.DISCONNECTED) == []

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
        assert run_audit(model, spec).by_kind(FindingKind.DISCONNECTED) == []

    def test_disconnected_from_every_forecast_flagged_against_each(self, hardcode_doc):
        model, spec = self.with_second_forecast(hardcode_doc)
        found = run_audit(model, spec).by_kind(FindingKind.DISCONNECTED)
        assert [(f.evidence["assumption"], f.evidence["forecast"]) for f in found] == [
            ("Year1Sales", "ProjectNPV"), ("Year1Sales", "Root")]

    def test_minimum_trial_count(self):
        model = build_model([("A1", "x", 0.5), ("A2", "f", "=A1")])
        spec = SimulationSpec(assumptions=[(C("A1"), Uniform(0, 1))],
                              forecasts=[Forecast(C("A2"), "f")],
                              trials=50, seed=1)
        store = run(model, spec)
        sens = analytics.sensitivity(store)
        torn = {"f": analytics.tornado(model, spec, "f")}
        with pytest.raises(ValueError, match="at least 100"):
            detect_disconnected(store, sens, torn)

    def test_threshold_scales_with_z(self, hardcode_doc):
        # an absurdly small z leaves nothing inside the independence band
        model, spec = hardcode_doc.build()
        report = run_audit(model, spec, thresholds=Thresholds(z=1e-12))
        assert report.by_kind(FindingKind.DISCONNECTED) == []


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
        result = backcast(model, spec, [[4.0], [-1.0], [9.0]])
        assert len(result.findings) == 1
        f = result.findings[0]
        assert f.kind is FindingKind.BACKCAST_FAILURE
        assert f.evidence["row"] == 1
        assert f.evidence["error_kind"] == "DomainError"
        assert f.witness == (-1.0,)

    def test_limit_violation_row(self):
        model, spec = self._linear()
        spec.limits = [Limit(C("A3"), min=0.0)]
        result = backcast(model, spec, [[0.9, 0.1], [0.0001, 0.9]])
        assert len(result.findings) == 1
        assert result.findings[0].evidence["row"] == 1
        assert result.findings[0].evidence["value"] < 0.0

    def test_validation(self):
        model, spec = self._linear()
        with pytest.raises(ValueError, match="at least one"):
            backcast(model, spec, [])
        with pytest.raises(ValueError, match="expected 2"):
            backcast(model, spec, [[0.5]])
        with pytest.raises(ValueError, match="observed"):
            backcast(model, spec, [[0.5, 0.5]], observed=[])

    def test_resampling_draws_from_history(self):
        model, spec = self._linear()
        history = [[0.1, 0.2], [0.5, 0.5]]
        observed = [[3 * 0.1 - 2 * 0.2], [3 * 0.5 - 2 * 0.5]]
        result = backcast(model, spec, history, observed, trials=50)
        assert len(result.residuals) == 50
        assert {row["row"] for row in result.residuals} <= {0, 1}
        assert result.mean_abs_residual["f"] == 0.0

    def test_run_audit_includes_backcast(self):
        model, spec = self._linear()
        report = run_audit(model, spec, history=[[0.5, 0.5]],
                           observed=[[99.0]])
        # a wild observed value is not itself a failure; only calc errors
        # and limit breaks are findings
        assert report.by_kind(FindingKind.BACKCAST_FAILURE) == []
        model2 = build_model([("A1", "x", 1.0), ("A2", "f", "=SQRT(A1)")])
        spec2 = SimulationSpec(assumptions=[(C("A1"), Uniform(0, 1))],
                               forecasts=[Forecast(C("A2"), "f")],
                               trials=200, seed=42)
        report2 = run_audit(model2, spec2, history=[[-2.0]])
        assert len(report2.by_kind(FindingKind.BACKCAST_FAILURE)) == 1


class TestFindingSerialization:
    def test_witness_only_when_present(self):
        f = AuditFinding(FindingKind.SIGN_MISMATCH, ("B4", "B16"), "error", {"a": 1})
        assert "witness" not in f.to_json()
        g = AuditFinding(FindingKind.LIMIT_VIOLATION, ("A15",), "error", {}, (1.0,))
        assert g.to_json()["witness"] == [1.0]

    def test_counts_and_by_kind(self, noclamp_doc):
        _, _, report = audit_of(noclamp_doc)
        total = sum(report.counts.values())
        assert total == len(report.findings)
        assert len(report.by_kind(FindingKind.LIMIT_VIOLATION)) == \
            report.counts["LimitViolation"]
