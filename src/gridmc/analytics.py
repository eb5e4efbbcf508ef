"""Forecast statistics, histograms, certainty, sensitivity, tornado, scenarios."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Model, evaluate_batch
from .simulate import SimulationError, SimulationSpec, TrialStore

PERCENTILE_LEVELS = (1, 5, 10, 25, 50, 75, 90, 95, 99)
MAX_HISTOGRAM_BINS = 100


@dataclass(frozen=True)
class ForecastStats:
    n: int
    mean: float
    median: float
    sd: float
    variance: float
    skewness: Optional[float]  # None when sd == 0
    kurtosis: Optional[float]  # excess; None when sd == 0
    coeff_variation: Optional[float]  # None when mean == 0
    min: float
    max: float
    range_width: float
    standard_error: float
    percentiles: dict  # level -> value

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "median": self.median,
            "sd": self.sd,
            "variance": self.variance,
            "skewness": self.skewness,
            "kurtosis": self.kurtosis,
            "coeff_variation": self.coeff_variation,
            "min": self.min,
            "max": self.max,
            "range_width": self.range_width,
            "standard_error": self.standard_error,
            "percentiles": {str(k): v for k, v in self.percentiles.items()},
        }


@dataclass(frozen=True)
class Histogram:
    edges: list
    counts: list

    def to_json(self) -> dict:
        return {"edges": self.edges, "counts": self.counts}


@dataclass(frozen=True)
class SensitivityEntry:
    label: str
    spearman: float
    pearson: float
    contribution: float  # sign(rho) * rho^2 / sum(rho^2)
    correlated: bool
    degenerate: bool = False  # zero-variance assumption column

    def to_json(self) -> dict:
        out = {
            "label": self.label,
            "spearman": self.spearman,
            "pearson": self.pearson,
            "contribution": self.contribution,
            "correlated": self.correlated,
        }
        if self.degenerate:
            out["degenerate"] = True
        return out


@dataclass(frozen=True)
class TornadoBar:
    label: str
    low: Optional[float]  # forecast at the low quantile; None on eval error
    high: Optional[float]
    swing: float
    direction: int  # sign(high - low)
    error: Optional[str] = None

    def to_json(self) -> dict:
        out = {"label": self.label, "low": self.low, "high": self.high,
               "swing": self.swing, "direction": self.direction}
        if self.error:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class TornadoResult:
    base: float
    bars: list  # sorted by swing, descending

    def bar(self, label: str) -> TornadoBar:
        for b in self.bars:
            if b.label == label:
                return b
        raise KeyError(f"no tornado bar for {label!r}")

    def to_json(self) -> dict:
        return {"base": self.base, "bars": [b.to_json() for b in self.bars]}


def percentile(values: np.ndarray, level: float) -> float:
    """Linear interpolation between closest ranks; level in percent."""
    return float(np.percentile(values, level, method="linear"))


def forecast_stats(store: TrialStore, forecast: str) -> ForecastStats:
    values = store.forecast_values(forecast)
    return stats_of(values)


def stats_of(values: np.ndarray) -> ForecastStats:
    """Descriptive statistics with n-denominator (population) moments."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 2:
        raise ValueError("need at least 2 values for statistics")
    mean = float(values.mean())
    centered = values - mean
    variance = float((centered ** 2).mean())
    sd = math.sqrt(variance)
    if sd > 0:
        skew = float((centered ** 3).mean()) / sd ** 3
        kurt = float((centered ** 4).mean()) / sd ** 4 - 3.0
    else:
        skew = kurt = None
    lo, hi = float(values.min()), float(values.max())
    return ForecastStats(
        n=n,
        mean=mean,
        median=percentile(values, 50),
        sd=sd,
        variance=variance,
        skewness=skew,
        kurtosis=kurt,
        coeff_variation=(sd / mean if mean != 0 else None),
        min=lo,
        max=hi,
        range_width=hi - lo,
        standard_error=sd / math.sqrt(n),
        percentiles={lvl: percentile(values, lvl) for lvl in PERCENTILE_LEVELS},
    )


def histogram(store: TrialStore, forecast: str, bins: Optional[int] = None) -> Histogram:
    values = store.forecast_values(forecast)
    n = len(values)
    if bins is None:
        bins = min(MAX_HISTOGRAM_BINS, math.ceil(math.sqrt(n)))
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:  # degenerate forecast; widen so edges stay increasing
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return Histogram(edges=[float(e) for e in edges], counts=[int(c) for c in counts])


def certainty(store: TrialStore, forecast: str,
              lo: Optional[float] = None, hi: Optional[float] = None) -> float:
    """Fraction of completed trials with lo <= value <= hi (closed interval)."""
    return float(_in_bounds(store.forecast_values(forecast), lo, hi, "certainty").mean())


def _in_bounds(values: np.ndarray, lo: Optional[float], hi: Optional[float],
               what: str) -> np.ndarray:
    """Mask of values in the closed interval [lo, hi]; a None side is open."""
    if lo is not None and hi is not None and lo > hi:
        raise ValueError(f"{what} bounds out of order")
    mask = np.ones(len(values), dtype=bool)
    if lo is not None:
        mask &= values >= lo
    if hi is not None:
        mask &= values <= hi
    return mask


def rank_average(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned their average rank."""
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    _, first, counts = np.unique(values[order], return_index=True,
                                 return_counts=True, equal_nan=False)
    last = first + counts - 1
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, counts)
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    return pearson(rank_average(x), rank_average(y))


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sx, sy = x.std(), y.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def sensitivity(store: TrialStore) -> dict:
    """Ranked correlation of each assumption against each forecast.

    Returns {forecast label: [SensitivityEntry...]}, each list sorted by
    |spearman| descending.
    """
    if store.completed < 10:
        raise SimulationError(f"sensitivity needs at least 10 completed trials, "
                              f"got {store.completed}")
    spec = store.spec
    corr = spec.correlation.as_array() if spec.correlation is not None else None
    columns = store.assumption_matrix.T
    column_ranks = [rank_average(col) for col in columns]
    out = {}
    for fi, f in enumerate(spec.forecasts):
        fv = store.forecast_matrix[:, fi]
        fv_ranks = rank_average(fv)
        entries = []
        rhos = []
        for j, cell in enumerate(spec.assumption_cells):
            col = columns[j]
            degenerate = bool(col.std() == 0.0)
            rho = 0.0 if degenerate else pearson(column_ranks[j], fv_ranks)
            r = 0.0 if degenerate else pearson(col, fv)
            correlated = bool(corr is not None and
                              np.any(np.delete(corr[j], j) != 0.0))
            entries.append((store.model.label_of(cell), rho, r, correlated, degenerate))
            rhos.append(rho)
        total = sum(rho * rho for rho in rhos)
        result = []
        for (label, rho, r, correlated, degenerate) in entries:
            contribution = (math.copysign(rho * rho, rho) / total) if total > 0 else 0.0
            result.append(SensitivityEntry(label, rho, r, contribution,
                                           correlated, degenerate))
        result.sort(key=lambda e: -abs(e.spearman))
        out[f.label] = result
    return out


def tornado(model: Model, spec: SimulationSpec,
            q_low: float = 0.10, q_high: float = 0.90) -> dict:
    """One-at-a-time sweep: each assumption moved to its low/high quantile
    while every other assumption sits at its median.

    The sweep's rows do not depend on the forecast, so one batch serves
    every forecast. Returns {forecast label: TornadoResult}. Declared
    correlations are deliberately ignored; isolation is the point.
    """
    if not (0.0 < q_low < q_high < 1.0):
        raise ValueError("need 0 < q_low < q_high < 1")

    # Row 0 holds every median; rows 2j+1 and 2j+2 move assumption j to
    # its low and its high quantile.
    k = len(spec.assumptions)
    rows = np.tile(np.array([d.median for d in spec.distributions], dtype=float),
                   (2 * k + 1, 1))
    for j, dist in enumerate(spec.distributions):
        rows[2 * j + 1, j] = dist.inverse_cdf(q_low)
        rows[2 * j + 2, j] = dist.inverse_cdf(q_high)
    batch = evaluate_batch(
        model, {c: rows[:, j] for j, c in enumerate(spec.assumption_cells)}, 2 * k + 1,
        keep={f.cell for f in spec.forecasts})
    if 0 in batch.errors:
        raise SimulationError(f"tornado base case failed: {batch.errors[0]}")
    torn = {}
    for f in spec.forecasts:
        bars = []
        for j, cell in enumerate(spec.assumption_cells):
            lo_row, hi_row = 2 * j + 1, 2 * j + 2
            lo = None if lo_row in batch.errors else batch.value(f.cell, lo_row)
            hi = None if hi_row in batch.errors else batch.value(f.cell, hi_row)
            failure = batch.errors.get(hi_row) or batch.errors.get(lo_row)
            if failure is None:
                error, swing = None, abs(hi - lo)
                direction = 0 if hi == lo else (1 if hi > lo else -1)
            else:
                error, swing, direction = str(failure), 0.0, 0
            bars.append(TornadoBar(model.label_of(cell), lo, hi, swing, direction, error))
        bars.sort(key=lambda b: -b.swing)
        torn[f.label] = TornadoResult(base=batch.value(f.cell, 0), bars=bars)
    return torn


@dataclass(frozen=True)
class ScenarioSubset:
    indices: list  # original trial indices
    assumptions: np.ndarray  # row per selected trial
    forecasts: np.ndarray  # forecast value per selected trial


def scenario_filter(store: TrialStore, forecast: str,
                    lo: Optional[float] = None,
                    hi: Optional[float] = None) -> ScenarioSubset:
    """Trials whose forecast lies in [lo, hi]; vectors replay to their
    forecasts bit-exactly (paste-back guarantee)."""
    values = store.forecast_values(forecast)
    mask = _in_bounds(values, lo, hi, "scenario")
    return ScenarioSubset(
        indices=store.trial_indices[mask].tolist(),
        assumptions=store.assumption_matrix[mask],
        forecasts=values[mask],
    )
