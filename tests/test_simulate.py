import math
from dataclasses import replace

import numpy as np
import pytest

from gridmc.cells import parse_cell
from gridmc.correlation import CorrelationSpec
from gridmc.distributions import (
    Custom, DiscreteUniform, Lognormal, Normal, Triangular, Uniform)
from gridmc.functions import ErrorKind
from gridmc.model import CalcError, build_model, evaluate, evaluate_batch
from gridmc.rng import RandomSource
from gridmc.simulate import (
    TRIALS_BLOCK,
    CalcErrorDossier,
    Forecast,
    Limit,
    SimulationError,
    SimulationSpec,
    StepSession,
    replay,
    run,
    sample_assumptions,
)
from gridmc.analytics import spearman, tornado
from tests.inverse_cdf_oracle import inverse_cdf


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
            if not math.isfinite(inverse_cdf(
                dist, float(src.uniform_block([t], [0])[0, 0])) * 1e308 * 10)]


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
        # each failed trial is a dossier that replays to its error
        for te in store.errors[:5]:
            assert isinstance(te, CalcErrorDossier)
            assert replay(model, spec, te.assumptions) == te.error

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

    @pytest.mark.parametrize("correlated", [False, True])
    def test_trial_count_too_large_to_hold(self, correlated):
        # 10**20 rows are beyond numpy's largest dimension: nothing is allocated
        corr = CorrelationSpec.from_pairs(2, {(0, 1): 0.8}) if correlated else None
        model, spec = linear_model(trials=10 ** 20, correlation=corr)
        with pytest.raises(SimulationError, match="too many to hold in memory"):
            run(model, spec)
        with pytest.raises(SimulationError, match="too many to hold in memory"):
            sample_assumptions(spec)

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
        for name in ("f", "A3", "a3"):
            assert spec.forecast_index(model, name) == 0
        for name in ("nope", "A1", "Z99"):
            with pytest.raises(KeyError, match=f"unknown forecast '{name}'"):
                spec.forecast_index(model, name)

    @pytest.mark.parametrize("label, message", [
        ("A1", "label 'A1' names 2 cells: A1, A3"),
        ("a2", "label 'a2' names 2 cells: A2, A3"),
        ("x", "label 'x' names 2 cells: A1, A3"),
    ])
    def test_forecast_label_naming_another_cell(self, label, message):
        model, spec = linear_model()
        spec.forecasts = [Forecast(C("A3"), label)]
        with pytest.raises(SimulationError) as exc:
            run(model, spec)
        assert str(exc.value) == message

    def test_monitored_cells_captured(self):
        from gridmc.simulate import Limit
        model, spec = linear_model(trials=50)
        spec.limits = [Limit(C("A3"), min=-2.0)]
        store = run(model, spec)
        assert store.monitored_matrix.shape == (50, 1)
        assert np.array_equal(store.monitored_matrix[:, 0], store.forecast_matrix[:, 0])


def one_pass(model, spec):
    """Reference run: every trial sampled and evaluated in one batch, then
    the kept rows picked as run keeps them."""
    values = sample_assumptions(spec)
    batch = evaluate_batch(
        model, {c: values[:, j] for j, c in enumerate(spec.assumption_cells)}, spec.trials)
    failed = sorted(batch.errors)
    if spec.stop_on_error:
        kept = np.arange(failed[0] if failed else spec.trials)
        failed = failed[:1]
    else:
        kept = np.setdiff1d(np.arange(spec.trials), failed)
    dossiers = [CalcErrorDossier(batch.errors[t], t, tuple(values[t].tolist())) for t in failed]

    def capture(cells):
        return np.array([batch.values[c][kept]
                         for c in cells]).T.reshape(len(kept), len(cells))
    return (kept, values[kept], capture([f.cell for f in spec.forecasts]),
            capture([lim.cell for lim in spec.limits]), dossiers)


class TestBlocks:
    """run samples, correlates and evaluates a block of trials at a time and
    keeps what one pass over every trial keeps, bit for bit."""

    @pytest.mark.parametrize("correlated", [False, True])
    @pytest.mark.parametrize("stop_on_error", [True, False])
    def test_blocks_equal_one_pass(self, correlated, stop_on_error):
        # A1 > 0.999 fails; at seed 8 the first failure is past the first
        # block, and the failures fall in more than one block
        model = build_model([("A1", "x", 0.5), ("A2", "y", 0.5),
                             ("A3", "r", "=SQRT(0.999-A1)+A2")])
        spec = SimulationSpec(
            assumptions=[(C("A1"), Uniform(0, 1)), (C("A2"), Uniform(0, 1))],
            forecasts=[Forecast(C("A3"), "r"), Forecast(C("A2"), "y")],
            limits=[Limit(C("A3"), max=2.0), Limit(C("A1"))],
            correlation=CorrelationSpec.from_pairs(2, {(0, 1): 0.6}) if correlated else None,
            trials=5000, seed=8, stop_on_error=stop_on_error)
        kept, assumptions, forecasts, monitored, dossiers = one_pass(model, spec)
        store = run(model, spec)
        assert dossiers[0].trial >= TRIALS_BLOCK
        if not stop_on_error:
            assert len({d.trial // TRIALS_BLOCK for d in dossiers}) > 1
        assert (store.errors or [store.dossier]) == dossiers
        assert np.array_equal(store.trial_indices, kept)
        for got, want in ((store.assumption_matrix, assumptions),
                          (store.forecast_matrix, forecasts),
                          (store.monitored_matrix, monitored)):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


    def test_correlated_runs_share_their_whole_blocks(self):
        # a 3,072-trial run is three whole blocks, which a 5,000-trial run
        # shares: the same kept rows and errors up to trial 3,071
        model = build_model([("A1", "x", 0.5), ("A2", "y", 0.5),
                             ("A3", "r", "=SQRT(0.999-A1)+A2")])
        spec = SimulationSpec(
            assumptions=[(C("A1"), Uniform(0, 1)), (C("A2"), Uniform(0, 1))],
            forecasts=[Forecast(C("A3"), "r")],
            correlation=CorrelationSpec.from_pairs(2, {(0, 1): 0.6}),
            trials=3072, seed=8, stop_on_error=False)
        prefix, store = run(model, spec), run(model, replace(spec, trials=5000))
        rows = store.trial_indices < 3072
        assert prefix.errors and len(store.errors) > len(prefix.errors)
        assert [e for e in store.errors if e.trial < 3072] == prefix.errors
        assert np.array_equal(store.trial_indices[rows], prefix.trial_indices)
        for got, want in ((store.assumption_matrix[rows], prefix.assumption_matrix),
                          (store.forecast_matrix[rows], prefix.forecast_matrix)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
        medians = [inverse_cdf(d, 0.5) for d in spec.distributions]
        result = replay(model, spec, medians)
        torn = tornado(model, spec)["f"]
        assert result[C("A3")] == torn.base
        assert torn.medians == tuple(medians)

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

    def test_uncorrelated_step_draws_its_row_alone(self, monkeypatch):
        # step t equals row t of a run, across block bounds and far into the
        # run, and draws trial t alone, one distribution shape a column
        shapes = [Uniform(0, 8), Triangular(0, 2, 10), Normal(5, 2), Lognormal(0.3, 0.5),
                  DiscreteUniform(1, 6), Custom([(1, 0.2), (2, 0.5), (4, 0.3)])]
        cells = [C(f"A{i + 1}") for i in range(len(shapes))]
        model = build_model([(str(c), None, 1) for c in cells] + [("B1", "s", "=SUM(A1:A6)")])
        spec = SimulationSpec(assumptions=list(zip(cells, shapes)),
                              forecasts=[Forecast(C("B1"), "s")], trials=100001, seed=7)
        rows = run(model, spec).assumption_matrix
        asked = []
        draw = RandomSource.uniform_block

        def counted(self, trials, streams):
            asked.append(len(trials))
            return draw(self, trials, streams)

        monkeypatch.setattr(RandomSource, "uniform_block", counted)
        session = StepSession(model, spec)
        for t in (0, 1, 1023, 1024, 2047, 2048, 5000, 100000):
            session.next_trial = t
            outcome = session.step()
            assert outcome.trial == t and outcome.error is None
            assert list(outcome.assumptions.values()) == rows[t].tolist()
        assert asked and set(asked) == {1}

    def test_correlated_steps_equal_run_rows(self):
        # each step is that row of the run; past the run's last trial, step t
        # is row t of a run in which t's block is whole
        corr = CorrelationSpec.from_pairs(2, {(0, 1): 0.8})
        model, spec = linear_model(trials=3000, correlation=corr)
        longer = run(model, replace(spec, trials=7000)).assumption_matrix
        want = np.concatenate([run(model, spec).assumption_matrix, longer[3000:4096]])
        session = StepSession(model, spec)
        got = [list(o.assumptions.values()) for o in session.run(4096)]
        assert np.array_equal(got, want)
        # a run shorter than one block: its own rows, then a whole block's
        model, spec = linear_model(trials=50, correlation=corr)
        session = StepSession(model, spec)
        got = [list(o.assumptions.values()) for o in session.run(51)]
        assert np.array_equal(got[:50], run(model, spec).assumption_matrix)
        assert np.array_equal(got[50], sample_assumptions(replace(spec, trials=1024))[50])
        model, spec = linear_model(trials=50)
        session = StepSession(model, spec)
        assert session.run(51)[-1].trial == 50
