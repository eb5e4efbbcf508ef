"""Forecast statistics, histograms, certainty, sensitivity, tornado, scenarios.

Ranks are average ranks (ties share the mean of their positions), taken
one argsort of numpy's default kind per column. That sort's order within
a tie may differ with the CPU features numpy dispatches to, but every
member of a tie group gets the same rank, so no output depends on it.
Sensitivity ranks all assumption columns in one call and each forecast
once, and takes the rank and the value correlations of all columns
against a forecast in one row-wise pass each.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .model import Model
from .simulate import (SimulationError, SimulationSpec, TrialStore, check_bounds, in_bounds,
                       run_blocks)

PERCENTILE_LEVELS = (1, 5, 10, 25, 50, 75, 90, 95, 99)
MAX_HISTOGRAM_BINS = 100


@dataclass(frozen=True)
class ForecastStats:
    """A moment is None where its value lies outside the float range (the
    variance of values near 1e160 or 1e-170)."""

    n: int
    mean: Optional[float]
    median: float
    sd: Optional[float]
    variance: Optional[float]
    skewness: Optional[float]  # also None when sd ** 3 is 0
    kurtosis: Optional[float]  # excess; also None when sd ** 4 is 0
    coeff_variation: Optional[float]  # None when mean == 0
    min: float
    max: float
    range_width: float
    standard_error: Optional[float]
    percentiles: dict  # level -> value

    def to_json(self) -> dict:
        """Every field; null for one that is not a finite float."""
        out = {k: _finite(v) for k, v in asdict(self).items()}
        out["percentiles"] = {str(k): _finite(v) for k, v in self.percentiles.items()}
        return out


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
    swing: float  # inf where high - low overflows; reported as null
    direction: int  # sign(high - low)
    error: Optional[str] = None

    def to_json(self) -> dict:
        out = {"label": self.label, "low": self.low, "high": self.high,
               "swing": _finite(self.swing), "direction": self.direction}
        if self.error:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class TornadoResult:
    base: float
    bars: list  # sorted by swing, descending
    medians: tuple  # every assumption's median, in spec order; not in to_json

    def bar(self, label: str) -> TornadoBar:
        for b in self.bars:
            if b.label == label:
                return b
        raise KeyError(f"no tornado bar for {label!r}")

    def to_json(self) -> dict:
        return {"base": self.base, "bars": [b.to_json() for b in self.bars]}


def percentile(values: np.ndarray, levels) -> list:
    """Linear interpolation between closest ranks at each of levels, in
    percent; one sort of values serves them all."""
    return np.percentile(values, levels, method="linear").tolist()


def forecast_stats(store: TrialStore, forecast: str) -> ForecastStats:
    values = store.forecast_values(forecast)
    return stats_of(values)


def stats_of(values: np.ndarray) -> ForecastStats:
    """Descriptive statistics with n-denominator (population) moments."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 2:
        raise ValueError("need at least 2 values for statistics")
    with np.errstate(all="ignore"):  # values near the ends of the float range
        scaled, k = _pow2_scaled(values)
        mean = float(scaled.mean())
        centered = scaled - mean
        variance = float((centered ** 2).mean())
        sd = math.sqrt(variance)
        skew = _standardized_moment(centered, sd, 3)
        kurt = _standardized_moment(centered, sd, 4)
        lo, hi = float(values.min()), float(values.max())
        median, *levels = percentile(values, [50, *PERCENTILE_LEVELS])
        return ForecastStats(
            n=n,
            mean=_unscaled(mean, k),
            median=median,
            sd=_unscaled(sd, k),
            variance=_unscaled(variance, 2 * k),
            skewness=skew,
            kurtosis=kurt - 3.0 if kurt is not None else None,
            coeff_variation=(sd / mean if mean != 0 else None),
            min=lo,
            max=hi,
            range_width=hi - lo,
            standard_error=_unscaled(sd / math.sqrt(n), k),
            percentiles=dict(zip(PERCENTILE_LEVELS, levels)),
        )


# Moments up to the fourth of values whose largest magnitude lies within
# 2**+-_PLAIN_EXP neither overflow nor lose a deviation above 2**-50 of that
# magnitude to underflow, so they are taken as they are.
_PLAIN_EXP = 200


def _pow2_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(values * 2**k, k): k = 0 within the plain band (or for 0, inf, nan),
    else the k that brings the largest magnitude into [0.5, 1). A power of
    two scales sums, products, quotients and square roots exactly."""
    e = math.frexp(float(np.abs(values).max()))[1]
    if abs(e) <= _PLAIN_EXP:
        return values, 0
    return np.ldexp(values, -e), -e


def _unscaled(x: float, k: int) -> Optional[float]:
    """x * 2**-k, or None where that lies outside the float range."""
    try:
        y = math.ldexp(x, -k)
    except OverflowError:
        return None
    return None if y == 0.0 and x != 0.0 else y


def _standardized_moment(centered: np.ndarray, sd: float, k: int) -> Optional[float]:
    """mean(centered ** k) / sd ** k, or None where sd ** k is 0."""
    try:
        return float((centered ** k).mean()) / sd ** k
    except ZeroDivisionError:
        return None


def _finite(x):
    return None if isinstance(x, float) and not math.isfinite(x) else x


def histogram(store: TrialStore, forecast: str, bins: Optional[int] = None) -> Histogram:
    values = store.forecast_values(forecast)
    n = len(values)
    if bins is None:
        bins = min(MAX_HISTOGRAM_BINS, math.ceil(math.sqrt(n)))
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:  # degenerate forecast; widen so edges stay increasing
        lo, hi = lo - 0.5, hi + 0.5
    # a range wider than the largest float is binned on values * 2**k, with
    # _pow2_scaled's k, and its edges are scaled back
    k = 0
    if not math.isfinite(hi - lo):
        values, k = _pow2_scaled(values)
        lo, hi = float(values.min()), float(values.max())
    # a range spanning too few floats for `bins` distinct edges (a constant
    # near 1e20, where the 0.5 is lost to rounding) widens a float step on
    # each side at a time, to the narrowest range whose edges, computed as
    # np.histogram computes them, strictly increase. A side at the largest
    # float stays there.
    top = math.ldexp(sys.float_info.max, k)
    while np.any(np.diff(np.linspace(lo, hi, bins + 1)) <= 0):
        lo = max(math.nextafter(lo, -math.inf), -top)
        hi = min(math.nextafter(hi, math.inf), top)
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return Histogram(edges=[math.ldexp(e, -k) for e in edges.tolist()],
                     counts=[int(c) for c in counts])


def certainty(store: TrialStore, forecast: str,
              lo: Optional[float] = None, hi: Optional[float] = None) -> float:
    """Fraction of completed trials with lo <= value <= hi (closed interval)."""
    check_bounds(lo, hi, "certainty")
    return float(in_bounds(store.forecast_values(forecast), lo, hi).mean())


def rank_average(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a vector, or of each row of a matrix, with ties
    assigned their average rank.

    Each row is argsorted once with numpy's default kind, and a tie group
    is a run of equal neighbours in the sorted row. Every member of a group
    gets the group's average rank, so the order a sort leaves inside a tie
    cannot change a rank. A row that holds NaN is argsorted stably: each
    NaN is a group of its own, ranked in index order.
    """
    values = np.asarray(values)
    rows = values if values.ndim == 2 else values[None]
    k, n = rows.shape
    if n == 0:
        return np.empty(values.shape)
    order = np.argsort(rows, axis=1)
    ordered = np.take_along_axis(rows, order, axis=1)
    nan_rows = np.flatnonzero(ordered[:, -1] != ordered[:, -1])  # NaN sorts last
    if nan_rows.size:
        order[nan_rows] = np.argsort(rows[nan_rows], axis=1, kind="stable")
        ordered[nan_rows] = np.take_along_axis(rows[nan_rows], order[nan_rows], axis=1)
    starts = np.ones((k, n), dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=starts[:, 1:])
    if starts.all():  # no ties: the ranks are the positions
        average = np.broadcast_to(np.arange(1.0, n + 1), (k, n))
    else:
        first = np.flatnonzero(starts)
        counts = np.diff(first, append=k * n)
        first %= n
        last = first + counts - 1
        average = np.repeat((first + last) / 2.0 + 1.0, counts).reshape(k, n)
    ranks = np.empty((k, n))
    np.put_along_axis(ranks, order, average, axis=1)
    return ranks.reshape(values.shape)


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    return pearson(rank_average(x), rank_average(y))


def pearson(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Pearson correlation of vector y with vector x (a float), or with each
    row of matrix x (an array); 0.0 where either side has no spread.

    Values near the ends of the float range are scaled by a power of two,
    each row by its own, which keeps the correlation. The rows are made
    C-contiguous, so each row's sums are the pairwise sums of a vector.
    """
    x = np.asarray(x, dtype=float)
    rows = np.ascontiguousarray(x if x.ndim == 2 else x[None])
    y, _ = _pow2_scaled(np.asarray(y, dtype=float))
    with np.errstate(all="ignore"):
        e = np.frexp(np.abs(rows).max(axis=1))[1]
        shift = np.where(np.abs(e) <= _PLAIN_EXP, 0, -e)
        if shift.any():
            rows = np.ldexp(rows, shift[:, None])
        sx, sy = rows.std(axis=1), y.std()
        r = ((rows - rows.mean(axis=1, keepdims=True)) * (y - y.mean())).mean(axis=1) / (sx * sy)
    r = np.where((sx == 0.0) | (sy == 0.0), 0.0, r)
    return float(r[0]) if x.ndim == 1 else r


def sensitivity(store: TrialStore) -> dict:
    """Ranked correlation of each assumption against each forecast.

    Returns {forecast label: [SensitivityEntry...]}, each list sorted by
    |spearman| descending. An assumption column is degenerate where its
    min equals its max; its spearman and pearson are 0.0.
    """
    if store.completed < 10:
        raise SimulationError(f"sensitivity needs at least 10 completed trials, "
                              f"got {store.completed}")
    spec = store.spec
    columns = np.ascontiguousarray(store.assumption_matrix.T)
    degenerate = columns.min(axis=1) == columns.max(axis=1)
    off_diagonal = (spec.correlation.as_array() if spec.correlation is not None
                    else np.eye(len(columns))) != 0.0
    np.fill_diagonal(off_diagonal, False)
    correlated = off_diagonal.any(axis=1)
    column_ranks = rank_average(columns)
    labels = [store.model.label_of(cell) for cell in spec.assumption_cells]
    out = {}
    for fi, f in enumerate(spec.forecasts):
        fv = store.forecast_matrix[:, fi]
        rhos = np.where(degenerate, 0.0, pearson(column_ranks, rank_average(fv))).tolist()
        rs = np.where(degenerate, 0.0, pearson(columns, fv)).tolist()
        total = sum(rho * rho for rho in rhos)
        result = []
        for label, rho, r, corr, degen in zip(labels, rhos, rs, correlated.tolist(),
                                               degenerate.tolist()):
            contribution = (math.copysign(rho * rho, rho) / total) if total > 0 else 0.0
            result.append(SensitivityEntry(label, rho, r, contribution, corr, degen))
        result.sort(key=lambda e: -abs(e.spearman))
        out[f.label] = result
    return out


def tornado(model: Model, spec: SimulationSpec,
            q_low: float = 0.10, q_high: float = 0.90) -> dict:
    """One-at-a-time sweep: each assumption moved to its low/high quantile
    while every other assumption sits at its median.

    The sweep's 2k+1 rows serve every forecast: one block through run's own
    loop (run_blocks), in continue mode. Returns {forecast label:
    TornadoResult}; each result's medians is the sweep's row of medians.
    Declared correlations are deliberately ignored; isolation is the point.
    """
    if not (0.0 < q_low < q_high < 1.0):
        raise ValueError("need 0 < q_low < q_high < 1")

    # Row 0 holds every median; rows 2j+1 and 2j+2 move assumption j to
    # its low and its high quantile.
    k = len(spec.assumptions)
    rows = np.empty((2 * k + 1, k))
    for j, dist in enumerate(spec.distributions):
        median, low, high = dist.inverse_cdf(np.array([0.5, q_low, q_high]))
        rows[:, j] = median
        rows[2 * j + 1, j], rows[2 * j + 2, j] = low, high
    store = run_blocks(model, replace(spec, trials=2 * k + 1, stop_on_error=False), [(0, rows)])
    errors = {d.trial: d.error for d in store.errors}
    if 0 in errors:
        raise SimulationError(f"tornado base case failed: {errors[0]}")
    values = np.full((2 * k + 1, len(spec.forecasts)), np.nan)  # a failed row stays nan
    values[store.trial_indices] = store.forecast_matrix
    values = values.tolist()
    medians = tuple(store.assumption_matrix[0].tolist())
    torn = {}
    for fi, f in enumerate(spec.forecasts):
        bars = []
        for j, cell in enumerate(spec.assumption_cells):
            lo, hi = (None if r in errors else values[r][fi] for r in (2 * j + 1, 2 * j + 2))
            failure = errors.get(2 * j + 2) or errors.get(2 * j + 1)
            if failure is None:
                error, swing = None, abs(hi - lo)
                direction = 0 if hi == lo else (1 if hi > lo else -1)
            else:
                error, swing, direction = str(failure), 0.0, 0
            bars.append(TornadoBar(model.label_of(cell), lo, hi, swing, direction, error))
        bars.sort(key=lambda b: -b.swing)
        torn[f.label] = TornadoResult(base=values[0][fi], bars=bars, medians=medians)
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
    check_bounds(lo, hi, "scenario")
    values = store.forecast_values(forecast)
    mask = in_bounds(values, lo, hi)
    return ScenarioSubset(
        indices=store.trial_indices[mask].tolist(),
        assumptions=store.assumption_matrix[mask],
        forecasts=values[mask],
    )
