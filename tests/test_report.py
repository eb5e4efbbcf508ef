"""trials.csv export: the block writer against a row-by-row reference writer,
and its memory against the trial count."""

import tracemalloc

import numpy as np
import pytest

from gridmc.cells import parse_cell
from gridmc.distributions import Normal, Uniform
from gridmc.model import build_model
from gridmc.report import TRIALS_BLOCK, export_trials
from gridmc.simulate import Forecast, SimulationSpec, TrialStore, run

B = TRIALS_BLOCK
# values whose text is easy to get wrong: signed zero, a subnormal, huge,
# tiny and inexact decimals, and both sides of each switch between fixed
# and exponent notation
SPECIAL = [0.0, -0.0, 5e-324, 1e-310, 0.1, -1.5, 1e300, -1e-300, 123456789.125,
           1e-4, 9.999999999999999e-05, 9999999999999998.0, 1e16]


def C(text):
    return parse_cell(text)


def reference_csv(store) -> bytes:
    """trials.csv as one row at a time would write it."""
    lines = [",".join(["trial"] + store.assumption_labels + store.forecast_labels)]
    for i in range(store.completed):
        row = ([int(store.trial_indices[i])]
               + [float(v) for v in store.assumption_matrix[i]]
               + [float(v) for v in store.forecast_matrix[i]])
        lines.append(",".join(str(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def exported(store, tmp_path) -> bytes:
    path = tmp_path / "trials.csv"
    export_trials(store, path)
    return path.read_bytes()


def synthetic_store(n, seed=0):
    """A store of n completed trials of two assumptions and two forecasts."""
    model = build_model([("A1", "X", 1), ("A2", "Y", 2), ("A3", "f", "=A1+A2"),
                         ("A4", "g", "=A1*A2")])
    spec = SimulationSpec(assumptions=[(C("A1"), Uniform(0, 1)), (C("A2"), Normal(0, 1))],
                          forecasts=[Forecast(C("A3"), "f"), Forecast(C("A4"), "g")],
                          trials=n)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, 4)) * 10.0 ** rng.integers(-5, 6, size=(n, 4))
    flat = values.reshape(-1)
    flat[:len(SPECIAL)] = SPECIAL[:len(flat)]
    return TrialStore(model=model, spec=spec, assumption_matrix=values[:, :2],
                      forecast_matrix=values[:, 2:], monitored_matrix=np.empty((n, 0)),
                      trial_indices=np.arange(n), errors=[])


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_blocks_equal_row_by_row(tmp_path, n):
    store = synthetic_store(n)
    assert exported(store, tmp_path) == reference_csv(store)


def test_store_without_assumptions(tmp_path):
    model = build_model([("A1", "K", 2.5), ("A2", "f", "=A1*3")])
    spec = SimulationSpec(assumptions=[], forecasts=[Forecast(C("A2"), "f")],
                          trials=2 * B + 3)
    store = run(model, spec)
    assert store.assumption_matrix.shape == (2 * B + 3, 0)
    data = exported(store, tmp_path)
    assert data == reference_csv(store)
    assert data.splitlines()[:2] == [b"trial,f", b"0,7.5"]


def test_continue_mode_store_with_gaps(tmp_path):
    model = build_model([("A1", "X", 0), ("A2", "f", "=SQRT(A1)")])
    spec = SimulationSpec(assumptions=[(C("A1"), Normal(1, 1))],
                          forecasts=[Forecast(C("A2"), "f")],
                          trials=2 * B + 3, seed=4, stop_on_error=False)
    store = run(model, spec)
    assert store.errors and len(store.errors) + store.completed == spec.trials
    assert exported(store, tmp_path) == reference_csv(store)


def test_memory_does_not_grow_with_trials(tmp_path):
    def traced_peak(store):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            export_trials(store, tmp_path / "trials.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = synthetic_store(2 * B), synthetic_store(8 * B)
    traced_peak(small)  # first-call allocations
    assert traced_peak(large) <= 1.5 * traced_peak(small)
