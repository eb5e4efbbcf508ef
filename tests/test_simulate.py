import math
from dataclasses import replace

import numpy as np
import pytest

from gridmc.cells import parse_cell
from gridmc.correlation import CorrelationSpec
from gridmc.distributions import Normal, Uniform
from gridmc.functions import ErrorKind
from gridmc.model import CalcError, build_model, evaluate
from gridmc.rng import RandomSource
from gridmc.simulate import (
    Forecast,
    SimulationError,
    SimulationSpec,
    StepSession,
    replay,
    run,
)
from gridmc.analytics import spearman, tornado


def C(text):
    return parse_cell(text)


def sqrt_model():
    model = build_model([("A1", "Input", 1), ("A2", "Root", "=SQRT(A1)")])
    spec = SimulationSpec(
        assumptions=[(C("A1"), Normal(0, 1))],
        forecasts=[Forecast(C("A2"), "Root")],
        trials=200,
        seed=42,
    )
    return model, spec


def overflow_model():
    model = build_model([("A1", "X", 1), ("A2", "Big", "=A1*1e308*10")])
    spec = SimulationSpec(
        assumptions=[(C("A1"), Uniform(-1, 1))],
        forecasts=[Forecast(C("A2"), "Big")],
        trials=100,
        seed=1,
    )
    return model, spec


def overflowing_trials(spec):
    # plain-float oracle: the trials whose X * 1e308 * 10 is not finite
    src, dist = RandomSource(spec.seed), spec.distributions[0]
    return [t for t in range(spec.trials)
            if not math.isfinite(
                dist.inverse_cdf(float(src.uniform_block([t], [0])[0, 0])) * 1e308 * 10)]


def linear_model(trials=500, seed=42, correlation=None):
    model = build_model([
        ("A1", "x", 0.5), ("A2", "y", 0.5), ("A3", "f", "=3*A1-2*A2"),
    ])
    spec = SimulationSpec(
        assumptions=[(C("A1"), Uniform(0, 1)), (C("A2"), Uniform(0, 1))],
        forecasts=[Forecast(C("A3"), "f")],
        correlation=correlation,
        trials=trials,
        seed=seed,
    )
    return model, spec


class TestRun:
    def test_deterministic(self):
        model, spec = linear_model()
        s1, s2 = run(model, spec), run(model, spec)
        assert np.array_equal(s1.assumption_matrix, s2.assumption_matrix)
        assert np.array_equal(s1.forecast_matrix, s2.forecast_matrix)

    def test_halts_at_first_negative_draw(self):
        model, spec = sqrt_model()
        store = run(model, spec)
        # independent stream-replay oracle: first trial whose standard
        # normal draw is negative, i.e. uniform < 0.5
        src = RandomSource(spec.seed)
        expected_trial = next(t for t in range(spec.trials)
                              if src.uniform_block([t], [0])[0, 0] < 0.5)
        assert store.dossier is not None
        assert store.dossier.trial == expected_trial
        assert store.dossier.error.kind is ErrorKind.DOMAIN_ERROR
        assert store.dossier.error.cell == C("A2")
        assert store.completed == expected_trial

    def test_continue_mode_partitions_trials(self):
        model, spec = sqrt_model()
        spec.stop_on_error = False
        store = run(model, spec)
        assert store.dossier is None
        assert store.completed + len(store.errors) == spec.trials
        assert all(te.error.kind is ErrorKind.DOMAIN_ERROR for te in store.errors)
        # error indices and completed indices are disjoint and exhaustive
        all_idx = sorted(list(store.trial_indices) + [te.trial for te in store.errors])
        assert all_idx == list(range(spec.trials))

    def test_single_trial_no_assumptions(self):
        model = build_model([("A1", None, 2), ("A2", "out", "=A1*3")])
        spec = SimulationSpec(assumptions=[], forecasts=[Forecast(C("A2"), "out")],
                              trials=1, seed=0)
        store = run(model, spec)
        assert store.completed == 1
        assert store.forecast_matrix[0, 0] == evaluate(model)[C("A2")]

    def test_prefix_property(self):
        model, spec_full = linear_model(trials=100)
        full = run(model, spec_full)
        for m in (1, 7, 50, 100):
            model2, spec_m = linear_model(trials=m)
            part = run(model2, spec_m)
            assert np.array_equal(part.assumption_matrix, full.assumption_matrix[:m])
            assert np.array_equal(part.forecast_matrix, full.forecast_matrix[:m])

    def test_continue_mode_prefix_property(self):
        model, spec = sqrt_model()
        spec.stop_on_error = False
        full = run(model, spec)
        for m in (5, 37, 120, 200):
            part = run(model, replace(spec, trials=m))
            assert part.errors == [te for te in full.errors if te.trial < m]
            k = part.completed
            assert k == int(np.count_nonzero(full.trial_indices < m))
            assert np.array_equal(part.trial_indices, full.trial_indices[:k])
            assert np.array_equal(part.assumption_matrix, full.assumption_matrix[:k])
            assert np.array_equal(part.forecast_matrix, full.forecast_matrix[:k])

    def test_non_finite_result_halts_at_producing_cell(self):
        model, spec = overflow_model()
        store = run(model, spec)
        assert store.dossier is not None
        assert store.dossier.trial == overflowing_trials(spec)[0]
        assert store.dossier.error.kind is ErrorKind.DOMAIN_ERROR
        assert store.dossier.error.cell == C("A2")
        assert "non-finite" in store.dossier.error.detail
        assert replay(model, spec, store.dossier.assumptions) == store.dossier.error

    def test_non_finite_result_recorded_in_continue_mode(self):
        model, spec = overflow_model()
        spec.stop_on_error = False
        store = run(model, spec)
        bad = [te.trial for te in store.errors]
        assert bad == overflowing_trials(spec)
        assert 0 < len(bad) < spec.trials
        assert all(te.error.cell == C("A2") for te in store.errors)
        assert np.all(np.isfinite(store.forecast_matrix))
        assert sorted(bad + store.trial_indices.tolist()) == list(range(spec.trials))

    def test_all_trials_failing_is_an_error(self):
        model = build_model([("A1", None, 1), ("A2", "out", "=1/0")])
        spec = SimulationSpec(assumptions=[], forecasts=[Forecast(C("A2"), "out")],
                              trials=5, seed=0, stop_on_error=False)
        with pytest.raises(SimulationError, match="every trial failed"):
            run(model, spec)

    def test_correlation_achieved_in_store(self):
        corr = CorrelationSpec.from_pairs(2, {(0, 1): 0.8})
        model, spec = linear_model(trials=2000, correlation=corr)
        store = run(model, spec)
        rho = spearman(store.assumption_matrix[:, 0], store.assumption_matrix[:, 1])
        assert 0.75 <= rho <= 0.85

    def test_spec_validation(self):
        model, spec = linear_model()
        spec.assumptions.append((C("A1"), Uniform(0, 1)))
        with pytest.raises(SimulationError, match="distinct"):
            run(model, spec)

    def test_forecast_lookup(self):
        model, spec = linear_model()
        assert spec.forecast("f") is spec.forecasts[0]
        assert spec.forecast("A3") is spec.forecasts[0]
        with pytest.raises(KeyError, match="unknown forecast 'nope'"):
            spec.forecast("nope")

    def test_monitored_cells_captured(self):
        from gridmc.simulate import Limit
        model, spec = linear_model(trials=50)
        spec.limits = [Limit(C("A3"), min=-2.0)]
        store = run(model, spec)
        assert store.monitored_matrix.shape == (50, 1)
        assert np.array_equal(store.monitored_matrix[:, 0], store.forecast_matrix[:, 0])


class TestReplay:
    def test_dossier_reproduces(self):
        model, spec = sqrt_model()
        store = run(model, spec)
        result = replay(model, spec, store.dossier.assumptions)
        assert isinstance(result, CalcError)
        assert result.kind is store.dossier.error.kind
        assert result.cell == store.dossier.error.cell

    def test_trial_row_bit_exact(self):
        model, spec = linear_model(trials=20)
        store = run(model, spec)
        result = replay(model, spec, store.assumption_matrix[7])
        assert result[C("A3")] == store.forecast_matrix[7, 0]

    def test_median_vector_equals_tornado_base(self):
        model, spec = linear_model()
        medians = [d.median for d in spec.distributions]
        result = replay(model, spec, medians)
        torn = tornado(model, spec)["f"]
        assert result[C("A3")] == torn.base

    def test_length_mismatch(self):
        model, spec = linear_model()
        with pytest.raises(SimulationError, match="entries"):
            replay(model, spec, [0.5])


class TestStepSession:
    def test_steps_follow_run_stream(self):
        model, spec = linear_model(trials=10)
        store = run(model, spec)
        session = StepSession(model, spec)
        for t in range(5):
            outcome = session.step()
            assert outcome.trial == t
            assert outcome.forecasts["f"] == store.forecast_matrix[t, 0]

    def test_step_then_run_equivalent_to_run(self):
        model, spec = linear_model(trials=10)
        store = run(model, spec)
        session = StepSession(model, spec)
        outcomes = [session.step()] + session.run(9)
        values = [o.forecasts["f"] for o in outcomes]
        assert values == list(store.forecast_matrix[:, 0])

    def test_step_hits_error_trial(self):
        model, spec = sqrt_model()
        store = run(model, spec)
        session = StepSession(model, spec)
        for t in range(store.dossier.trial):
            assert session.step().error is None
        outcome = session.step()
        assert outcome.error is not None
        assert outcome.error.kind is ErrorKind.DOMAIN_ERROR
        assert outcome.error.cell == C("A2")
        assert outcome.assumptions[C("A1")] < 0

    def test_trace_lists_precedents(self):
        model, spec = linear_model()
        session = StepSession(model, spec)
        source, precedents = session.trace("f")
        assert source == "=3*A1-2*A2"
        assert [p for p, _ in precedents] == [C("A1"), C("A2")]
        assert all(v is not None for _, v in precedents)

    def test_show_and_reset(self):
        model, spec = linear_model()
        session = StepSession(model, spec)
        base = session.show("f")
        session.step()
        assert session.show("f") != base  # overwhelmingly likely
        session.reset()
        assert session.next_trial == 0
        assert session.show("f") == base

    def test_unknown_cell(self):
        model, spec = linear_model()
        session = StepSession(model, spec)
        with pytest.raises(KeyError):
            session.show("Z99")

    def test_notice_when_correlated(self):
        corr = CorrelationSpec.from_pairs(2, {(0, 1): 0.8})
        model, spec = linear_model(correlation=corr)
        assert StepSession(model, spec).notice is not None
        model, spec = linear_model()
        assert StepSession(model, spec).notice is None
