"""Logic-error detectors: turn simulation evidence into warnings.

Each detector is a pure function; findings that carry a witness vector
replay through the model to demonstrate the flagged behavior. A back-cast
history goes through a run's loop and a run's own limit and error
detectors, so it gives one finding per defect, not one per row.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from . import analytics
from .model import Model
from .simulate import (TRIALS_BLOCK, SimulationError, SimulationSpec, TrialStore, in_bounds, run,
                       run_blocks)


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
    evidence: dict
    witness: Optional[tuple] = None  # assumption vector

    @property
    def severity(self) -> str:
        return _SEVERITY[self.kind]

    def to_json(self) -> dict:
        out = {
            "kind": self.kind.value,
            "severity": self.severity,
            "cells": list(self.cells),
            "evidence": {k: analytics._finite(v) for k, v in self.evidence.items()},
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
    pairs = []  # (assumption index, finding) under both thresholds
    for f in spec.forecasts:
        swing_threshold = _swing_threshold(thresholds.epsilon, store.forecast_values(f.label))
        entries = {e.label: e for e in sens[f.label]}
        bars = {b.label: b for b in torn[f.label].bars}
        for j, cell in enumerate(spec.assumption_cells):
            label = store.model.label_of(cell)
            entry, bar = entries[label], bars[label]
            if abs(entry.spearman) < rho_threshold and bar.swing <= swing_threshold:
                pairs.append((j, AuditFinding(
                    kind=FindingKind.DISCONNECTED,
                    cells=(str(cell), str(f.cell)),
                    evidence={
                        "assumption": label,
                        "forecast": f.label,
                        "spearman": entry.spearman,
                        "spearman_threshold": rho_threshold,
                        "tornado_swing": bar.swing,
                        "swing_threshold": swing_threshold,
                    },
                    witness=torn[f.label].medians,
                )))
    hits = Counter(j for j, _ in pairs)
    return [finding for j, finding in pairs if hits[j] == len(spec.forecasts)]


def _swing_threshold(epsilon: float, values: np.ndarray) -> float:
    """epsilon times the range of values. A range wider than the largest
    float is taken on values * 2**k, as analytics.histogram does, and the
    product scaled back: inf where that lies outside the float range."""
    k = 0
    frange = float(values.max()) - float(values.min())
    if math.isinf(frange):
        values, k = analytics._pow2_scaled(values)
        frange = float(values.max()) - float(values.min())
    try:
        return math.ldexp(epsilon * frange, -k)
    except OverflowError:
        return math.inf


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


def check_limits(store: TrialStore, *, history=None) -> list:
    """Theoretical-limit violations on monitored cells, one finding per
    breached cell in spec order, with the worst trial as witness: the first
    one farthest from [min, max].

    Given the rows of a back-cast history, as backcast passes them, the
    findings are BackcastFailure, name rows instead of trials, and take the
    caller's row as witness.
    """
    kind, unit = ((FindingKind.LIMIT_VIOLATION, "trial") if history is None
                  else (FindingKind.BACKCAST_FAILURE, "row"))
    findings = []
    for j, lim in enumerate(store.spec.limits):
        col = store.monitored_matrix[:, j]
        violating = np.flatnonzero(~in_bounds(col, lim.min, lim.max))
        if len(violating) == 0:
            continue
        outside = col[violating]
        worst = violating[int(np.argmax(np.abs(outside - np.clip(outside, lim.min, lim.max))))]
        t = int(store.trial_indices[worst])
        findings.append(AuditFinding(
            kind=kind,
            cells=(str(lim.cell),),
            evidence={
                "cell": str(lim.cell),
                "declared_min": lim.min,
                "declared_max": lim.max,
                "violations": int(len(violating)),
                "worst_value": float(col[worst]),
                f"worst_{unit}": t,
            },
            witness=(tuple(store.assumption_matrix[worst].tolist()) if history is None
                     else tuple(np.asarray(history[t]).tolist())),
        ))
    return findings


def check_intervals(store: TrialStore) -> list:
    """Declared expected output intervals vs the observed [min, max]."""
    findings = []
    for interval in store.spec.expected_intervals:
        f = next(f for f in store.spec.forecasts if f.cell == interval.forecast)
        values = store.forecast_values(f.label)
        outside = np.count_nonzero(~in_bounds(values, interval.lo, interval.hi))
        if not outside:
            continue
        findings.append(AuditFinding(
            kind=FindingKind.INTERVAL_BREACH,
            cells=(str(interval.forecast),),
            evidence={
                "forecast": f.label,
                "declared": [interval.lo, interval.hi],
                "observed": [float(values.min()), float(values.max())],
                "exceedance_fraction": int(outside) / len(values),
            },
        ))
    return findings


def error_census(store: TrialStore, *, history=None) -> list:
    """Aggregate continue-mode trial errors per (cell, kind), in row-major
    cell order, each with a replayable dossier witness: its first trial's.

    Given the rows of a back-cast history, as check_limits takes them, the
    findings are BackcastFailure, name rows and take the caller's row."""
    kind, unit = ((FindingKind.ERROR_CENSUS, "trial") if history is None
                  else (FindingKind.BACKCAST_FAILURE, "row"))
    groups = {}
    for te in store.errors:
        key = (te.error.cell, te.error.kind.value)
        groups.setdefault(key, []).append(te)
    total = store.spec.trials
    findings = []
    for (cell, error_kind), tes in sorted(groups.items()):
        first = tes[0]
        findings.append(AuditFinding(
            kind=kind,
            cells=(str(cell),),
            evidence={
                "cell": str(cell),
                "error_kind": error_kind,
                "count": len(tes),
                "rate": len(tes) / total,
                f"first_{unit}": first.trial,
            },
            witness=(first.assumptions if history is None
                     else tuple(np.asarray(history[first.trial]).tolist())),
        ))
    return findings


@dataclass(frozen=True)
class BackcastResult:
    findings: list
    residuals: list  # {"row": i, "<forecast>": residual, ...}
    mean_abs_residual: dict  # forecast label -> MAR


def backcast(model: Model, spec: SimulationSpec, history,
             observed: Optional[list] = None) -> BackcastResult:
    """Replay historical assumption rows through the model, once each: run's
    loop (run_blocks) over the history in blocks of TRIALS_BLOCK rows, in
    continue mode, so a failed row is recorded, never a halt or an error.

    history: rows of assumption values in spec's order, or their float matrix.
    observed: optional parallel rows of observed forecast values.
    The findings are a run's own check_limits and error_census over the
    history's rows, as BackcastFailure: one per breached limit cell in spec
    order, then one per (cell, error kind) in row-major order. Their
    evidence names rows (worst_row, first_row); a witness is the caller's
    row as Python numbers. The residuals have one row per row that evaluated.
    """
    if len(history) == 0:
        raise ValueError("history must have at least one row")
    if observed is not None and len(observed) != len(history):
        raise ValueError("observed rows must match history rows")
    for name, rows, width in (("history", history, len(spec.assumptions)),
                              ("observed", [] if observed is None else observed,
                               len(spec.forecasts))):
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"{name} row {i} has {len(row)} values, expected {width}")

    matrix = np.asarray(history, dtype=float)
    store = run_blocks(model, replace(spec, trials=len(history), stop_on_error=False),
                       ((start, matrix[start:start + TRIALS_BLOCK])
                        for start in range(0, len(history), TRIALS_BLOCK)))
    labels = [f.label for f in spec.forecasts]
    residuals, rows = np.empty((0, len(labels))), []
    if observed is not None:
        residuals = store.forecast_matrix - np.array(observed, dtype=float)[store.trial_indices]
        rows = store.trial_indices.tolist()
    return BackcastResult(
        findings=check_limits(store, history=history) + error_census(store, history=history),
        residuals=[dict(zip(["row", *labels], [row, *values]))
                   for row, values in zip(rows, residuals.tolist())],
        mean_abs_residual={label: (sum(np.abs(r).tolist()) / len(r) if len(r) else None)
                           for label, r in zip(labels, residuals.T)})


def run_audit(model: Model, spec: SimulationSpec,
              thresholds: Thresholds = Thresholds(),
              history=None) -> AuditReport:
    """Run every detector over one continue-mode simulation.

    Deterministic for fixed (model, spec, thresholds, seed); findings are
    ordered by detector kind. A history is back-cast for its findings only.
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
        findings.extend(backcast(model, spec, history).findings)
    return AuditReport(findings=findings, thresholds=thresholds,
                       seed=spec.seed, trials=spec.trials)
