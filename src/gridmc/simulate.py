"""Trial engine: sample assumptions, correlate, evaluate, capture results.

A failed trial is trapped into a replayable dossier (error kind, cell,
and the exact assumption vector) rather than crashing the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cells import CellRef
from .correlation import CorrelationSpec, induce_rank_correlation, validate_correlation
from .distributions import Distribution
from .model import Batch, CalcError, Model, evaluate, evaluate_batch
from .rng import RandomSource

DEFAULT_TRIALS = 5000
DEFAULT_SEED = 42


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class Forecast:
    cell: CellRef
    label: str
    target_lo: Optional[float] = None
    target_hi: Optional[float] = None


@dataclass(frozen=True)
class Limit:
    cell: CellRef
    min: Optional[float] = None
    max: Optional[float] = None


@dataclass(frozen=True)
class Expectation:
    """Declared sign of the causal link assumption -> forecast."""

    assumption: CellRef
    forecast: CellRef
    sign: int  # +1 or -1


@dataclass(frozen=True)
class ExpectedInterval:
    forecast: CellRef
    lo: float
    hi: float


@dataclass
class SimulationSpec:
    assumptions: list  # of (CellRef, Distribution)
    forecasts: list  # of Forecast
    correlation: Optional[CorrelationSpec] = None
    limits: list = field(default_factory=list)
    expectations: list = field(default_factory=list)
    expected_intervals: list = field(default_factory=list)
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    stop_on_error: bool = True

    def validate(self, model: Model) -> None:
        cells = [c for c, _ in self.assumptions]
        if len(set(cells)) != len(cells):
            raise SimulationError("assumption cells must be distinct")
        for c in cells:
            if c not in model.defs:
                raise SimulationError(f"assumption cell {c} is not in the model")
        if not self.forecasts:
            raise SimulationError("at least one forecast is required")
        for f in self.forecasts:
            if f.cell not in model.defs:
                raise SimulationError(f"forecast cell {f.cell} is not in the model")
        for lim in self.limits:
            if lim.cell not in model.defs:
                raise SimulationError(f"limit cell {lim.cell} is not in the model")
        seen = set()
        for e in self.expectations:
            if (e.assumption, e.forecast) in seen:
                raise SimulationError(
                    f"duplicate expectation for ({e.assumption}, {e.forecast})")
            seen.add((e.assumption, e.forecast))
            if e.assumption not in cells:
                raise SimulationError(f"expectation names unknown assumption {e.assumption}")
            if e.forecast not in {f.cell for f in self.forecasts}:
                raise SimulationError(f"expectation names unknown forecast {e.forecast}")
        if self.trials < 1:
            raise SimulationError("trials must be >= 1")
        if self.correlation is not None:
            if self.correlation.size != len(self.assumptions):
                raise SimulationError("correlation matrix size != assumption count")
            validate_correlation(self.correlation)

    def forecast(self, name: str) -> Forecast:
        """The first forecast whose label or A1 address is name."""
        for f in self.forecasts:
            if f.label == name or str(f.cell) == name:
                return f
        raise KeyError(f"unknown forecast {name!r}")

    @property
    def assumption_cells(self) -> list:
        return [c for c, _ in self.assumptions]

    @property
    def distributions(self) -> list:
        return [d for _, d in self.assumptions]

    def has_correlation(self) -> bool:
        return self.correlation is not None and not self.correlation.is_identity()


@dataclass(frozen=True)
class CalcErrorDossier:
    error: CalcError
    trial: int
    assumptions: tuple  # sampled assumption vector of the failing trial

    def to_json(self) -> dict:
        return {
            "kind": self.error.kind.value,
            "cell": str(self.error.cell),
            "detail": self.error.detail,
            "trial": self.trial,
            "assumptions": list(self.assumptions),
        }


@dataclass(frozen=True)
class TrialError:
    trial: int
    error: CalcError
    assumptions: tuple


@dataclass
class TrialStore:
    """Per-trial assumption, forecast, and monitored-cell values."""

    model: Model
    spec: SimulationSpec
    assumption_matrix: np.ndarray  # completed trials x assumptions
    forecast_matrix: np.ndarray  # completed trials x forecasts
    monitored_matrix: np.ndarray  # completed trials x limit cells
    trial_indices: np.ndarray  # original trial index of each row
    errors: list  # of TrialError (continue mode)
    dossier: Optional[CalcErrorDossier] = None

    @property
    def completed(self) -> int:
        return self.assumption_matrix.shape[0]

    @property
    def assumption_labels(self) -> list:
        return [self.model.label_of(c) for c in self.spec.assumption_cells]

    @property
    def forecast_labels(self) -> list:
        return [f.label for f in self.spec.forecasts]

    def forecast_values(self, name: str) -> np.ndarray:
        return self.forecast_matrix[:, self.spec.forecasts.index(self.spec.forecast(name))]


def _sample_matrix(spec: SimulationSpec, n: int) -> np.ndarray:
    """Pre-correlation assumption values for trials 0..n-1."""
    src = RandomSource(spec.seed)
    k = len(spec.assumptions)
    values = np.empty((n, k))
    if k == 0:
        return values
    trials = np.arange(n)
    for j, dist in enumerate(spec.distributions):
        # one column of draws at a time: the RNG is counter-based, so the
        # column equals that column of the whole n x k block
        u = src.uniform_block(trials, [j])[:, 0]
        values[:, j] = [dist.inverse_cdf(x) for x in u]
    return values


def sample_assumptions(spec: SimulationSpec) -> np.ndarray:
    """Full post-correlation assumption matrix for the run."""
    values = _sample_matrix(spec, spec.trials)
    if spec.has_correlation() and len(spec.assumptions) > 0:
        src = RandomSource(spec.seed)
        values = induce_rank_correlation(
            values, spec.correlation, src, stream_offset=len(spec.assumptions))
    return values


def run(model: Model, spec: SimulationSpec) -> TrialStore:
    """Execute the full simulation: every trial in one evaluation pass.

    stop_on_error=True halts at the first calculation error, keeping all
    prior complete trials plus the dossier; otherwise erroneous trials
    are recorded separately and excluded from the matrices.
    """
    spec.validate(model)
    values = sample_assumptions(spec)
    forecast_cells = [f.cell for f in spec.forecasts]
    limit_cells = [lim.cell for lim in spec.limits]
    batch = evaluate_batch(
        model, {c: values[:, j] for j, c in enumerate(spec.assumption_cells)}, spec.trials,
        keep=set(forecast_cells + limit_cells))
    failed = sorted(batch.errors)

    errors = []
    dossier = None
    if spec.stop_on_error:
        # the kept rows are a prefix: slices, not copies
        if failed:
            t = failed[0]
            dossier = CalcErrorDossier(batch.errors[t], t, tuple(values[t].tolist()))
        kept = slice(failed[0] if failed else spec.trials)
        trial_indices = np.arange(kept.stop)
    else:
        errors = [TrialError(t, batch.errors[t], tuple(values[t].tolist())) for t in failed]
        ok = np.ones(spec.trials, dtype=bool)
        ok[failed] = False
        kept = trial_indices = np.flatnonzero(ok)
        if not len(kept):
            raise SimulationError("every trial failed with a calculation error")

    return TrialStore(
        model=model,
        spec=spec,
        assumption_matrix=values[kept],
        forecast_matrix=_capture(batch, forecast_cells, kept, len(trial_indices)),
        monitored_matrix=_capture(batch, limit_cells, kept, len(trial_indices)),
        trial_indices=trial_indices,
        errors=errors,
        dossier=dossier,
    )


def _capture(batch: Batch, cells: list, kept, n: int) -> np.ndarray:
    """n kept rows (a slice or row indices) x cells matrix of a batch's values."""
    out = np.empty((n, len(cells)))
    for j, c in enumerate(cells):
        v = batch.values[c]
        out[:, j] = v[kept] if isinstance(v, np.ndarray) else v
    return out


def replay(model: Model, spec: SimulationSpec, assumptions):
    """Evaluate the model for one explicit assumption vector.

    Returns the full cell map or the CalcError; this is the paste-back
    path used by dossiers and scenario extraction.
    """
    vec = list(assumptions)
    if len(vec) != len(spec.assumptions):
        raise SimulationError(
            f"assumption vector has {len(vec)} entries, spec has {len(spec.assumptions)}")
    overrides = {c: float(v) for c, v in zip(spec.assumption_cells, vec)}
    return evaluate(model, overrides)


# ---------------------------------------------------------------------------
# Single-step session

@dataclass(frozen=True)
class TrialOutcome:
    trial: int
    assumptions: dict  # CellRef -> value
    forecasts: dict  # label -> value
    error: Optional[CalcError]


class StepSession:
    """Interactive single-trial stepping over the run's RNG stream.

    Stepping then running is equivalent to running: the only session
    state is the next trial index. Draws are uncorrelated; when the
    spec declares correlations, `notice` says so.
    """

    def __init__(self, model: Model, spec: SimulationSpec):
        spec.validate(model)
        self.model = model
        self.spec = spec
        self.notice = (
            "note: single-step trials use uncorrelated draws; declared "
            "correlations apply only to full runs" if spec.has_correlation() else None)
        self.reset()

    def reset(self) -> None:
        self.next_trial = 0
        base = evaluate(self.model, {})
        self._current = base if not isinstance(base, CalcError) else None

    def _resolve(self, name: str) -> "CellRef":
        for f in self.spec.forecasts:
            if f.label == name:
                return f.cell
        try:
            return self.model.cell_by_name(name)
        except ValueError:
            raise KeyError(f"unknown cell or label {name!r}") from None

    def step(self) -> TrialOutcome:
        t = self.next_trial
        values = _sample_matrix(self.spec, t + 1)[t]
        overrides = {c: float(values[j])
                     for j, c in enumerate(self.spec.assumption_cells)}
        result = evaluate(self.model, overrides)
        self.next_trial = t + 1
        if isinstance(result, CalcError):
            return TrialOutcome(t, overrides, {}, result)
        self._current = result
        forecasts = {f.label: result[f.cell] for f in self.spec.forecasts}
        return TrialOutcome(t, overrides, forecasts, None)

    def run(self, n: int) -> list:
        return [self.step() for _ in range(n)]

    def show(self, name: str) -> float:
        """Current value of a cell (latest successful evaluation)."""
        ref = self._resolve(name)
        if self._current is None:
            raise KeyError("no successful evaluation yet")
        return self._current[ref]

    def trace(self, name: str):
        """Formula text of a cell plus (precedent, current value) pairs."""
        ref = self._resolve(name)
        source = self.model.defs[ref].source
        precedents = self.model.precedents(ref)
        current = self._current or {}
        return source, [(p, current.get(p)) for p in precedents]
