"""Logic-error detectors: turn simulation evidence into warnings.

Each detector is a pure function; findings that carry a witness vector
replay through the model to demonstrate the flagged behavior.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from . import analytics
from .model import Model, evaluate_batch
from .simulate import SimulationError, SimulationSpec, TrialStore, run


class FindingKind(str, Enum):
    DISCONNECTED = "Disconnected"
    SIGN_MISMATCH = "SignMismatch"
    CORRELATION_MASKING = "CorrelationMasking"
    LIMIT_VIOLATION = "LimitViolation"
    INTERVAL_BREACH = "IntervalBreach"
    ERROR_CENSUS = "ErrorCensus"
    BACKCAST_FAILURE = "BackcastFailure"


# Contradictions of user declarations are errors; purely statistical
# observations (masking) are warnings.
_SEVERITY = {
    FindingKind.DISCONNECTED: "error",
    FindingKind.SIGN_MISMATCH: "error",
    FindingKind.CORRELATION_MASKING: "warning",
    FindingKind.LIMIT_VIOLATION: "error",
    FindingKind.INTERVAL_BREACH: "error",
    FindingKind.ERROR_CENSUS: "error",
    FindingKind.BACKCAST_FAILURE: "error",
}


@dataclass(frozen=True)
class AuditFinding:
    kind: FindingKind
    cells: tuple  # subject cells / labels
    severity: str
    evidence: dict
    witness: Optional[tuple] = None  # assumption vector

    def to_json(self) -> dict:
        out = {
            "kind": self.kind.value,
            "severity": self.severity,
            "cells": list(self.cells),
            "evidence": self.evidence,
        }
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


@dataclass(frozen=True)
class Thresholds:
    z: float = 2.58  # ~99% normal quantile for Spearman rho under independence
    epsilon: float = 1e-6  # tornado swing floor, relative to forecast range


@dataclass
class AuditReport:
    findings: list
    thresholds: Thresholds
    seed: int
    trials: int

    @property
    def counts(self) -> dict:
        out = {}
        for f in self.findings:
            out[f.kind.value] = out.get(f.kind.value, 0) + 1
        return out

    def by_kind(self, kind: FindingKind) -> list:
        return [f for f in self.findings if f.kind == kind]

    @property
    def has_errors(self) -> bool:
        return any(f.severity == "error" for f in self.findings)

    def to_json(self) -> dict:
        return {
            "findings": [f.to_json() for f in self.findings],
            "counts": self.counts,
            "thresholds": {"z": self.thresholds.z, "epsilon": self.thresholds.epsilon},
            "run": {"seed": self.seed, "trials": self.trials},
        }


def detect_disconnected(store: TrialStore, sens: dict, torn: dict,
                        thresholds: Thresholds = Thresholds()) -> list:
    """Assumptions that move neither the rank correlation nor the tornado
    of any forecast.

    Both conditions must hold against every forecast: |rho| below the
    independence band and the isolation swing below epsilon of the
    forecast range. Such an assumption gets one finding per forecast; one
    that drives some forecast is not flagged against the others.
    "Disconnected" means disconnected over the sampled region; a
    never-taken IF branch counts.
    """
    n = store.completed
    if n < 100:
        raise SimulationError(f"disconnection detection needs at least 100 "
                              f"completed trials, got {n}")
    rho_threshold = thresholds.z * math.sqrt(1.0 / n)
    spec = store.spec
    medians = [d.median for d in spec.distributions]
    pairs = []  # (assumption index, finding) under both thresholds
    for f in spec.forecasts:
        values = store.forecast_values(f.label)
        frange = float(values.max() - values.min())
        swing_threshold = thresholds.epsilon * frange
        entries = {e.label: e for e in sens[f.label]}
        bars = {b.label: b for b in torn[f.label].bars}
        for j, cell in enumerate(spec.assumption_cells):
            label = store.model.label_of(cell)
            entry, bar = entries[label], bars[label]
            if abs(entry.spearman) < rho_threshold and bar.swing <= swing_threshold:
                pairs.append((j, AuditFinding(
                    kind=FindingKind.DISCONNECTED,
                    cells=(str(cell), str(f.cell)),
                    severity=_SEVERITY[FindingKind.DISCONNECTED],
                    evidence={
                        "assumption": label,
                        "forecast": f.label,
                        "spearman": entry.spearman,
                        "spearman_threshold": rho_threshold,
                        "tornado_swing": bar.swing,
                        "swing_threshold": swing_threshold,
                    },
                    witness=tuple(medians),
                )))
    hits = Counter(j for j, _ in pairs)
    return [finding for j, finding in pairs if hits[j] == len(spec.forecasts)]


def check_signs(sens: dict, torn: dict, store: TrialStore) -> list:
    """Compare declared causal signs with tornado (authoritative) and
    Spearman directions.

    Tornado contradicting the declaration is a SignMismatch (error).
    Tornado agreeing while the Spearman sign flips on a correlated
    assumption is CorrelationMasking (warning): the declared
    inter-assumption correlation is hiding the causal direction.
    """
    spec = store.spec
    forecast_by_cell = {f.cell: f for f in spec.forecasts}
    findings = []
    for e in spec.expectations:
        f = forecast_by_cell[e.forecast]  # spec.validate checked it
        a_label = store.model.label_of(e.assumption)
        bar = torn[f.label].bar(a_label)
        entry = next(s for s in sens[f.label] if s.label == a_label)
        declared = e.sign
        if bar.direction != 0 and bar.direction != declared:
            findings.append(AuditFinding(
                kind=FindingKind.SIGN_MISMATCH,
                cells=(str(e.assumption), str(e.forecast)),
                severity=_SEVERITY[FindingKind.SIGN_MISMATCH],
                evidence={
                    "assumption": a_label,
                    "forecast": f.label,
                    "declared_sign": declared,
                    "tornado_direction": bar.direction,
                    "tornado_low": bar.low,
                    "tornado_high": bar.high,
                    "spearman": entry.spearman,
                },
            ))
        elif (bar.direction == declared and entry.correlated
              and entry.spearman != 0.0
              and math.copysign(1, entry.spearman) != declared):
            findings.append(AuditFinding(
                kind=FindingKind.CORRELATION_MASKING,
                cells=(str(e.assumption), str(e.forecast)),
                severity=_SEVERITY[FindingKind.CORRELATION_MASKING],
                evidence={
                    "assumption": a_label,
                    "forecast": f.label,
                    "declared_sign": declared,
                    "tornado_direction": bar.direction,
                    "spearman": entry.spearman,
                    "note": "declared inter-assumption correlation masks the "
                            "causal direction; isolation agrees with the declaration",
                },
            ))
    return findings


def check_limits(store: TrialStore) -> list:
    """Theoretical-limit violations on monitored cells, one finding per
    cell with the worst trial as witness."""
    findings = []
    for j, lim in enumerate(store.spec.limits):
        col = store.monitored_matrix[:, j]
        exceed = np.zeros(len(col))
        if lim.min is not None:
            exceed = np.maximum(exceed, lim.min - col)
        if lim.max is not None:
            exceed = np.maximum(exceed, col - lim.max)
        violating = np.nonzero(exceed > 0)[0]
        if len(violating) == 0:
            continue
        worst = violating[int(np.argmax(exceed[violating]))]
        findings.append(AuditFinding(
            kind=FindingKind.LIMIT_VIOLATION,
            cells=(str(lim.cell),),
            severity=_SEVERITY[FindingKind.LIMIT_VIOLATION],
            evidence={
                "cell": str(lim.cell),
                "declared_min": lim.min,
                "declared_max": lim.max,
                "violations": int(len(violating)),
                "worst_value": float(col[worst]),
                "worst_trial": int(store.trial_indices[worst]),
            },
            witness=tuple(store.assumption_matrix[worst].tolist()),
        ))
    return findings


def check_intervals(store: TrialStore) -> list:
    """Declared expected output intervals vs the observed [min, max]."""
    findings = []
    for interval in store.spec.expected_intervals:
        f = next(f for f in store.spec.forecasts if f.cell == interval.forecast)
        values = store.forecast_values(f.label)
        lo, hi = float(values.min()), float(values.max())
        if lo >= interval.lo and hi <= interval.hi:
            continue
        outside = np.count_nonzero((values < interval.lo) | (values > interval.hi))
        findings.append(AuditFinding(
            kind=FindingKind.INTERVAL_BREACH,
            cells=(str(interval.forecast),),
            severity=_SEVERITY[FindingKind.INTERVAL_BREACH],
            evidence={
                "forecast": f.label,
                "declared": [interval.lo, interval.hi],
                "observed": [lo, hi],
                "exceedance_fraction": int(outside) / len(values),
            },
        ))
    return findings


def error_census(store: TrialStore) -> list:
    """Aggregate continue-mode trial errors per (cell, kind), each with a
    replayable dossier witness."""
    groups = {}
    for te in store.errors:
        key = (str(te.error.cell), te.error.kind.value)
        groups.setdefault(key, []).append(te)
    total = store.spec.trials
    findings = []
    for (cell, kind), tes in sorted(groups.items()):
        first = tes[0]
        findings.append(AuditFinding(
            kind=FindingKind.ERROR_CENSUS,
            cells=(cell,),
            severity=_SEVERITY[FindingKind.ERROR_CENSUS],
            evidence={
                "cell": cell,
                "error_kind": kind,
                "count": len(tes),
                "rate": len(tes) / total,
                "first_trial": first.trial,
            },
            witness=first.assumptions,
        ))
    return findings


@dataclass(frozen=True)
class BackcastResult:
    findings: list
    residuals: list  # {"row": i, "<forecast>": residual, ...}
    mean_abs_residual: dict  # forecast label -> MAR


def backcast(model: Model, spec: SimulationSpec, history,
             observed: Optional[list] = None) -> BackcastResult:
    """Replay historical assumption rows through the model, once each, in
    one batch evaluation.

    history: rows of assumption values matching spec's assumption order.
    observed: optional parallel rows of observed forecast values.
    Findings come row by row: a row's CalcError, or else each breached
    limit in spec order.
    """
    history = [list(r) for r in history]
    if not history:
        raise ValueError("history must have at least one row")
    k = len(spec.assumptions)
    for i, row in enumerate(history):
        if len(row) != k:
            raise ValueError(f"history row {i} has {len(row)} values, expected {k}")
    if observed is not None and len(observed) != len(history):
        raise ValueError("observed rows must match history rows")

    matrix = np.array(history, dtype=float)
    batch = evaluate_batch(
        model, {c: matrix[:, j] for j, c in enumerate(spec.assumption_cells)}, len(history),
        keep={lim.cell for lim in spec.limits} | {f.cell for f in spec.forecasts})

    findings = []
    residual_rows = []
    abs_residuals = {f.label: [] for f in spec.forecasts}
    for i, row in enumerate(history):
        error = batch.errors.get(i)
        if error is not None:
            findings.append(AuditFinding(
                kind=FindingKind.BACKCAST_FAILURE,
                cells=(str(error.cell),),
                severity=_SEVERITY[FindingKind.BACKCAST_FAILURE],
                evidence={"row": i, "error_kind": error.kind.value,
                          "detail": error.detail},
                witness=tuple(row),
            ))
            continue
        for lim in spec.limits:
            v = batch.value(lim.cell, i)
            if (lim.min is not None and v < lim.min) or \
               (lim.max is not None and v > lim.max):
                findings.append(AuditFinding(
                    kind=FindingKind.BACKCAST_FAILURE,
                    cells=(str(lim.cell),),
                    severity=_SEVERITY[FindingKind.BACKCAST_FAILURE],
                    evidence={"row": i, "limit_cell": str(lim.cell), "value": v,
                              "declared_min": lim.min, "declared_max": lim.max},
                    witness=tuple(row),
                ))
        if observed is not None:
            residuals = {"row": i}
            for fi, f in enumerate(spec.forecasts):
                residual = batch.value(f.cell, i) - observed[i][fi]
                residuals[f.label] = residual
                abs_residuals[f.label].append(abs(residual))
            residual_rows.append(residuals)
    mar = {label: (sum(v) / len(v) if v else None)
           for label, v in abs_residuals.items()}
    return BackcastResult(findings=findings, residuals=residual_rows,
                          mean_abs_residual=mar)


def run_audit(model: Model, spec: SimulationSpec,
              thresholds: Thresholds = Thresholds(),
              history=None, observed=None) -> AuditReport:
    """Run every detector over one continue-mode simulation.

    Deterministic for fixed (model, spec, thresholds, seed); findings are
    ordered by detector kind.
    """
    store = run(model, replace(spec, stop_on_error=False))
    sens = analytics.sensitivity(store)
    torn = analytics.tornado(model, spec)

    findings = []
    findings.extend(detect_disconnected(store, sens, torn, thresholds))
    findings.extend(check_signs(sens, torn, store))
    findings.extend(check_limits(store))
    findings.extend(check_intervals(store))
    findings.extend(error_census(store))
    if history is not None:
        findings.extend(backcast(model, spec, history, observed).findings)
    return AuditReport(findings=findings, thresholds=thresholds,
                       seed=spec.seed, trials=spec.trials)
