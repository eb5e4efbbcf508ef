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
from .model import CalcError, Model, evaluate, evaluate_batch
from .rng import TRIALS_BLOCK, RandomSource

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
        """Raise SimulationError where the spec does not fit the model."""
        cells = [c for c, _ in self.assumptions]
        if len(set(cells)) != len(cells):
            raise SimulationError("assumption cells must be distinct")
        for c in cells:
            if c not in model.defs:
                raise SimulationError(f"assumption cell {c} is not in the model")
        if not self.forecasts:
            raise SimulationError("at least one forecast is required")
        check_labels(model, self.forecasts)
        for f in self.forecasts:
            if f.cell not in model.defs:
                raise SimulationError(f"forecast cell {f.cell} is not in the model")
            check_bounds(f.target_lo, f.target_hi, f"forecast {f.label} target")
        for lim in self.limits:
            if lim.cell not in model.defs:
                raise SimulationError(f"limit cell {lim.cell} is not in the model")
            check_bounds(lim.min, lim.max, f"limit {lim.cell}")
        for iv in self.expected_intervals:
            if iv.forecast not in {f.cell for f in self.forecasts}:
                raise SimulationError(f"expected interval names unknown forecast {iv.forecast}")
            check_bounds(iv.lo, iv.hi, f"expected interval {iv.forecast}")
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

    def forecast_index(self, model: Model, name: str) -> int:
        """Index of the first forecast on the cell name means (Model.cell_by_name)."""
        try:
            cell = model.cell_by_name(name, self.forecasts)
            return [f.cell for f in self.forecasts].index(cell)
        except (KeyError, ValueError):
            raise KeyError(f"unknown forecast {name!r}") from None

    @property
    def assumption_cells(self) -> list:
        return [c for c, _ in self.assumptions]

    @property
    def distributions(self) -> list:
        return [d for _, d in self.assumptions]

    def has_correlation(self) -> bool:
        return self.correlation is not None and not self.correlation.is_identity


def check_labels(model: Model, forecasts: list) -> None:
    """Reject a forecast label that names a second cell, by another forecast's
    label, a cell label or an address, and two forecast labels whose
    histograms would share one file. build_model checks the cell labels."""
    labels = [f.label for f in forecasts]
    for label in labels:
        if labels.count(label) > 1:
            raise SimulationError(f"duplicate forecast label {label!r}")
        try:
            model.cell_by_name(label, forecasts)
        except KeyError as exc:
            raise SimulationError(f"label {exc.args[0]}") from None
    writers = {}
    for label in labels:
        name = histogram_file(label)
        if writers.setdefault(name, label) != label:
            raise SimulationError(f"forecast labels {writers[name]!r} and {label!r} "
                                  f"both write {name}")


def histogram_file(label: str) -> str:
    """The name of the file `gridmc run` writes a forecast's histogram to."""
    return f"histogram-{file_stem(label)}.csv"


def file_stem(name: str) -> str:
    """name with each character other than a letter, a digit, - or _ made _,
    so a file named after it stays in the output directory."""
    return "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in name)


def check_bounds(lo: Optional[float], hi: Optional[float], what: str) -> None:
    """Reject a closed interval [lo, hi] whose sides are both set and out of order."""
    if lo is not None and hi is not None and lo > hi:
        raise SimulationError(f"{what} bounds out of order: {lo} > {hi}")


def in_bounds(values, lo: Optional[float], hi: Optional[float]):
    """Mask of values in the closed interval [lo, hi]; a None side is open."""
    mask = np.ones(np.shape(values), dtype=bool)
    if lo is not None:
        mask &= values >= lo
    if hi is not None:
        mask &= values <= hi
    return mask


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


@dataclass
class TrialStore:
    """Per-trial assumption, forecast, and monitored-cell values."""

    model: Model
    spec: SimulationSpec
    assumption_matrix: np.ndarray  # completed trials x assumptions
    forecast_matrix: np.ndarray  # completed trials x forecasts
    monitored_matrix: np.ndarray  # completed trials x limit cells
    trial_indices: np.ndarray  # original trial index of each row
    errors: list  # of CalcErrorDossier, one per failed trial (continue mode)
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
        return self.forecast_matrix[:, self.spec.forecast_index(self.model, name)]


def _trial_array(trials: int, *width: int, dtype=float) -> np.ndarray:
    """np.empty((trials, *width)); a SimulationError where no array of that
    many trials can be allocated."""
    try:
        return np.empty((trials, *width), dtype=dtype)
    except (ValueError, MemoryError):  # beyond the largest dimension, or the memory
        raise SimulationError(f"{trials} trials are too many to hold in memory") from None


def _sample_matrix(spec: SimulationSpec, n: int, start: int = 0,
                   u: Optional[np.ndarray] = None) -> np.ndarray:
    """Pre-correlation assumption values for trials start..start+n-1.

    Column j is spec's j-th inverse CDF applied to u[:, j], where u is the
    n x k grid of uniforms of those trials. Without u, the uniforms are
    drawn one column at a time, as an uncorrelated step draws them; the RNG
    is counter-based, so a column equals that column of the whole grid.
    """
    k = len(spec.assumptions)
    values = _trial_array(n, k)
    if k == 0:
        return values
    src, trials = RandomSource(spec.seed), np.arange(start, start + n)
    for j, dist in enumerate(spec.distributions):
        values[:, j] = dist.inverse_cdf(
            u[:, j] if u is not None else src.uniform_block(trials, [j])[:, 0])
    return values


def _block_bounds(spec: SimulationSpec, t: int) -> tuple:
    """The first trial and the end of the block that holds trial t: blocks are
    max(TRIALS_BLOCK, 10 k) trials from trial 0 on, enough rows for
    Iman-Conover, and a tail shorter than one joins the block before it.
    Past the run's last trial each block is whole, as in a longer run."""
    size = max(TRIALS_BLOCK, 10 * len(spec.assumptions))
    start = t // size * size
    if t < spec.trials and spec.trials - start < 2 * size:  # the run's last block
        return max(spec.trials // size - 1, 0) * size, spec.trials
    return start, start + size


def _sample_block(spec: SimulationSpec, start: int, stop: int) -> np.ndarray:
    """Assumption values for the block of trials start..stop-1, rank-correlated
    within the block, so a block depends on no trial outside it.

    The block's n x k value uniforms are one uniform_block call, handed to
    _sample_matrix and freed before Iman-Conover draws its scores from
    streams k..2k-1.
    """
    k = len(spec.assumptions)
    src = RandomSource(spec.seed)
    values = _sample_matrix(spec, stop - start, start,
                            src.uniform_block(np.arange(start, stop), np.arange(k)))
    if spec.has_correlation() and k > 0:
        values = induce_rank_correlation(values, spec.correlation, src, k, start)
    return values


def _sampled_blocks(spec: SimulationSpec):
    """(first trial, values) of each block of the run, each sampled only when
    the loop asks for it, so a halted run samples no later block."""
    stop = 0
    while stop < spec.trials:
        start, stop = _block_bounds(spec, stop)
        yield start, _sample_block(spec, start, stop)


def sample_assumptions(spec: SimulationSpec) -> np.ndarray:
    """Full post-correlation assumption matrix for the run."""
    values = _trial_array(spec.trials, len(spec.assumptions))
    for start, block in _sampled_blocks(spec):
        values[start:start + len(block)] = block
    return values


def run(model: Model, spec: SimulationSpec) -> TrialStore:
    """Execute the full simulation: run_blocks over the run's blocks, each
    sampled as the loop reaches it.

    stop_on_error=True halts at the first calculation error, keeping all
    prior complete trials plus the dossier, and samples no later block;
    otherwise erroneous trials are recorded separately and excluded from
    the matrices, and a run in which every trial failed is an error.
    """
    spec.validate(model)
    store = run_blocks(model, spec, _sampled_blocks(spec))
    if not spec.stop_on_error and not store.completed:
        raise SimulationError("every trial failed with a calculation error")
    return store


def run_blocks(model: Model, spec: SimulationSpec, blocks) -> TrialStore:
    """Evaluate spec.trials rows of assumption values, given as an iterator of
    (first row, values) blocks, one pass per block: the loop of both a run's
    trials and a back-cast's history rows.

    A failed row becomes a CalcErrorDossier. With stop_on_error the first
    one halts the loop, and no later block is drawn from the iterator;
    otherwise each is kept in errors. The other rows' assumptions, forecasts
    and limit cells are packed in row order.
    """
    forecast_cells = [f.cell for f in spec.forecasts]
    limit_cells = [lim.cell for lim in spec.limits]
    # the kept rows are packed to the front of these matrices as the blocks go by
    values = _trial_array(spec.trials, len(spec.assumptions))
    forecasts = _trial_array(spec.trials, len(forecast_cells))
    monitored = _trial_array(spec.trials, len(limit_cells))
    trial_indices = _trial_array(spec.trials, dtype=np.intp)
    kept = 0
    errors = []
    dossier = None
    for start, block in blocks:
        n = len(block)
        batch = evaluate_batch(
            model, {c: block[:, j] for j, c in enumerate(spec.assumption_cells)}, n)
        failed = sorted(batch.errors)
        trapped = [CalcErrorDossier(batch.errors[i], start + i, tuple(block[i].tolist()))
                   for i in failed]
        ok = np.ones(n, dtype=bool)
        ok[failed] = False
        if spec.stop_on_error and failed:
            dossier = trapped[0]
            ok[failed[0]:] = False
        else:
            errors += trapped
        rows = slice(kept, kept + np.count_nonzero(ok))
        values[rows] = block[ok]
        for out, cells in ((forecasts, forecast_cells), (monitored, limit_cells)):
            for j, c in enumerate(cells):
                out[rows, j] = batch.values[c][ok]
        trial_indices[rows] = start + np.flatnonzero(ok)
        kept = rows.stop
        if dossier is not None:
            break
    return TrialStore(model=model, spec=spec, assumption_matrix=values[:kept],
                      forecast_matrix=forecasts[:kept], monitored_matrix=monitored[:kept],
                      trial_indices=trial_indices[:kept], errors=errors, dossier=dossier)


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

    Stepping then running is equivalent to running: step t draws row t of
    the run's assumptions, and past the run's last trial, row t of any run
    in which t's block is whole. An uncorrelated session draws step t's row
    alone. A correlated session draws the whole block of its step and keeps
    that one block; it draws trial 0's at the start.
    """

    def __init__(self, model: Model, spec: SimulationSpec):
        spec.validate(model)
        self.model = model
        self.spec = spec
        # (start, stop, values) of the block a correlated session last drew
        bounds = _block_bounds(spec, 0)
        self._block = (*bounds, _sample_block(spec, *bounds)) if spec.has_correlation() else None
        self.reset()

    def reset(self) -> None:
        self.next_trial = 0
        base = evaluate(self.model, {})
        self._current = base if not isinstance(base, CalcError) else None

    def step(self) -> TrialOutcome:
        """The next trial."""
        t = self.next_trial
        if self._block is None:
            values = _sample_matrix(self.spec, 1, t)[0]
        else:
            start, stop = _block_bounds(self.spec, t)
            if self._block[:2] != (start, stop):
                self._block = start, stop, _sample_block(self.spec, start, stop)
            values = self._block[2][t - start]
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
        ref = self.model.cell_by_name(name, self.spec.forecasts)
        if self._current is None:
            raise KeyError("no successful evaluation yet")
        return self._current[ref]

    def trace(self, name: str):
        """Formula text of a cell plus (precedent, current value) pairs."""
        ref = self.model.cell_by_name(name, self.spec.forecasts)
        source = self.model.defs[ref].source
        precedents = self.model.precedents(ref)
        current = self._current or {}
        return source, [(p, current.get(p)) for p in precedents]
