import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from gridmc import analytics, report
from gridmc.analytics import (
    certainty,
    forecast_stats,
    histogram,
    pearson,
    percentile,
    rank_average,
    scenario_filter,
    sensitivity,
    spearman,
    stats_of,
    tornado,
)
from gridmc.cells import parse_cell
from gridmc.cli import main
from gridmc.document import ModelDocument
from gridmc.distributions import Uniform
from gridmc.model import CalcError, build_model, evaluate_batch
from gridmc.report import export_trials
from gridmc.simulate import Forecast, SimulationError, SimulationSpec, replay, run
from tests.closure_oracle import Oracle


def C(text):
    return parse_cell(text)


def make_store(formula="=3*A1-2*A2", trials=400, seed=42):
    model = build_model([
        ("A1", "x", 0.5), ("A2", "y", 0.5), ("A3", "f", formula),
    ])
    spec = SimulationSpec(
        assumptions=[(C("A1"), Uniform(0, 1)), (C("A2"), Uniform(0, 1))],
        forecasts=[Forecast(C("A3"), "f")],
        trials=trials,
        seed=seed,
    )
    return model, spec, run(model, spec)


class TestStats:
    def test_hand_oracle_one_to_five(self):
        s = stats_of(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert s.n == 5
        assert s.mean == 3.0
        assert s.median == 3.0
        assert s.variance == 2.0  # population variance of 1..5
        assert s.sd == pytest.approx(math.sqrt(2.0))
        assert s.skewness == pytest.approx(0.0, abs=1e-12)
        assert s.kurtosis == pytest.approx(-1.3)  # hand oracle: 34/20 - 3
        assert s.min == 1.0 and s.max == 5.0 and s.range_width == 4.0
        assert s.coeff_variation == pytest.approx(math.sqrt(2.0) / 3.0)
        assert s.standard_error == pytest.approx(math.sqrt(2.0 / 5.0))
        assert s.percentiles[25] == 2.0 and s.percentiles[75] == 4.0

    def test_degenerate_markers(self):
        s = stats_of(np.array([7.0, 7.0, 7.0]))
        assert s.sd == 0.0
        assert s.skewness is None and s.kurtosis is None
        s0 = stats_of(np.array([-1.0, 1.0]))
        assert s0.mean == 0.0 and s0.coeff_variation is None

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            stats_of(np.array([1.0]))

    def test_uniform_identity_model_moments(self):
        # forecast == Uniform(0,1) assumption, so moments are known analytically
        model = build_model([("A1", "x", 0.5), ("A2", "f", "=A1")])
        spec = SimulationSpec(assumptions=[(C("A1"), Uniform(0, 1))],
                              forecasts=[Forecast(C("A2"), "f")],
                              trials=20000, seed=7)
        s = forecast_stats(run(model, spec), "f")
        assert abs(s.mean - 0.5) < 4 * math.sqrt(1 / 12 / s.n)
        assert abs(s.variance - 1 / 12) < 0.003
        assert abs(s.percentiles[10] - 0.1) < 0.01
        assert abs(s.percentiles[90] - 0.9) < 0.01

    def test_percentile_interpolation(self):
        assert percentile(np.array([10.0, 20.0]), 50) == 15.0
        assert percentile(np.array([0.0, 10.0]), 25) == 2.5


class TestHistogram:
    @pytest.mark.parametrize("bins", [1, 2, 7, 100, 200])
    def test_count_conservation(self, bins):
        _, _, store = make_store()
        h = histogram(store, "f", bins=bins)
        assert sum(h.counts) == store.completed
        assert len(h.edges) == len(h.counts) + 1
        assert all(a < b for a, b in zip(h.edges, h.edges[1:]))

    def test_default_bin_count(self):
        _, _, store = make_store(trials=400)
        h = histogram(store, "f")
        assert len(h.counts) == 20  # ceil(sqrt(400))

    def test_edges_span_data(self):
        _, _, store = make_store()
        v = store.forecast_values("f")
        h = histogram(store, "f", bins=10)
        assert h.edges[0] == float(v.min())
        assert h.edges[-1] == float(v.max())

    def test_degenerate_forecast(self):
        model = build_model([("A1", "x", 0.5), ("A2", "f", "=0*A1+3")])
        spec = SimulationSpec(assumptions=[(C("A1"), Uniform(0, 1))],
                              forecasts=[Forecast(C("A2"), "f")],
                              trials=50, seed=1)
        h = histogram(run(model, spec), "f", bins=4)
        assert sum(h.counts) == 50
        assert h.edges[0] == 2.5 and h.edges[-1] == 3.5


class TestCertainty:
    def test_trivial_bounds(self):
        _, _, store = make_store()
        assert certainty(store, "f") == 1.0
        assert certainty(store, "f", lo=1e9) == 0.0

    def test_closed_interval_hand_oracle(self):
        _, _, store = make_store()
        v = store.forecast_values("f")
        cut = float(np.median(v))
        expected = float(np.mean((v >= -0.5) & (v <= cut)))
        assert certainty(store, "f", lo=-0.5, hi=cut) == expected
        # endpoints included
        assert certainty(store, "f", lo=float(v.min()), hi=float(v.max())) == 1.0

    def test_duality_with_percentiles(self):
        _, _, store = make_store(trials=1000)
        s = forecast_stats(store, "f")
        c = certainty(store, "f", hi=s.percentiles[75])
        assert abs(c - 0.75) <= 0.002

    def test_bad_bounds(self):
        _, _, store = make_store()
        with pytest.raises(ValueError):
            certainty(store, "f", lo=1.0, hi=0.0)


class TestRankCorrelation:
    def test_rank_average_ties(self):
        assert list(rank_average(np.array([10.0, 20.0, 20.0, 30.0]))) == [1.0, 2.5, 2.5, 4.0]

    @given(st.lists(st.sampled_from([-2.5, -0.0, 0.0, 1.0, 3.0, 1e300]), max_size=80)
           | st.lists(st.floats(allow_nan=False), max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_rank_average_equals_scipy_rankdata(self, xs):
        x = np.array(xs, dtype=float)
        assert np.array_equal(rank_average(x), scipy_stats.rankdata(x, method="average"))

    def test_spearman_identity_and_reversal(self):
        x = np.arange(20.0)
        assert spearman(x, x) == pytest.approx(1.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_spearman_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(8)
        x = rng.random(500)
        y = rng.random(500) + 0.5 * x
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, y ** 3) == pytest.approx(base, abs=1e-12)

    def test_pearson_linear_exact(self):
        x = np.arange(50.0)
        assert pearson(x, 3 * x + 2) == pytest.approx(1.0)
        assert pearson(x, -0.5 * x) == pytest.approx(-1.0)

    def test_constant_input_is_zero(self):
        assert pearson(np.ones(10), np.arange(10.0)) == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=60, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_spearman_bounded(self, xs):
        x = np.array(xs)
        y = np.array(xs[::-1])
        rho = spearman(x, y)
        assert -1.0 - 1e-9 <= rho <= 1.0 + 1e-9


class TestSensitivity:
    def test_signs_and_ordering(self):
        # f = X1 + 0.1*X2: X1 dominates, both positive
        _, _, store = make_store(formula="=A1+0.1*A2", trials=2000)
        entries = sensitivity(store)["f"]
        assert entries[0].label == "x"
        assert entries[0].spearman > 0.9
        assert 0 < entries[1].spearman < 0.4
        assert entries[0].contribution > 0.85
        total = sum(abs(e.contribution) for e in entries)
        assert total == pytest.approx(1.0)

    def test_negative_relationship(self):
        _, _, store = make_store(formula="=-A1", trials=500)
        entries = sensitivity(store)["f"]
        by = {e.label: e for e in entries}
        assert by["x"].spearman == pytest.approx(-1.0)
        assert by["x"].contribution < 0
        assert abs(by["y"].spearman) < 0.15

    def test_spearman_equals_pairwise_spearman_exactly(self):
        # the forecast is 0 on half the trials: a large tie group
        _, _, store = make_store(formula="=MAX(0,A1-0.5)*A2", trials=300)
        fv = store.forecast_values("f")
        by = {e.label: e for e in sensitivity(store)["f"]}
        for label, col in zip(store.assumption_labels, store.assumption_matrix.T):
            assert by[label].spearman == spearman(col, fv)

    def test_run_report_ranks_each_column_once(self, monkeypatch, project_doc):
        # K = 4 assumptions and F = 2 forecasts: K + F ranks for the report
        data = json.loads(json.dumps(project_doc.data))
        data["forecasts"].append({"cell": "E14", "label": "Year5Cash"})
        model, spec = ModelDocument.from_json(data).build(trials=200)
        store = run(model, spec)
        calls = []
        monkeypatch.setattr(analytics, "rank_average",
                            lambda v: calls.append(1) or rank_average(v))
        payload = report.run_report(store, {})
        assert len(calls) == 6
        sens = sensitivity(store)
        assert [f["sensitivity"] for f in payload["forecasts"]] == [
            [e.to_json() for e in sens[label]] for label in ("ProjectNPV", "Year5Cash")]

    def test_requires_ten_trials(self):
        _, _, store = make_store(trials=5)
        with pytest.raises(ValueError):
            sensitivity(store)

    def test_all_forecasts_dict(self):
        _, _, store = make_store()
        out = sensitivity(store)
        assert set(out) == {"f"}
        assert len(out["f"]) == 2

    def test_uncorrelated_flag_false(self):
        _, _, store = make_store()
        assert all(not e.correlated for e in sensitivity(store)["f"])


class TestTornado:
    def test_linear_hand_oracle(self):
        # f = 3a - 2b with a, b ~ Uniform(0,1): swings 3*0.8 and 2*0.8,
        # base at medians 3*0.5 - 2*0.5 = 0.5
        model, spec, _ = make_store()
        t = tornado(model, spec)["f"]
        assert t.base == pytest.approx(0.5, abs=1e-9)
        a, b = t.bar("x"), t.bar("y")
        assert a.swing == pytest.approx(2.4, abs=1e-9)
        assert b.swing == pytest.approx(1.6, abs=1e-9)
        assert a.direction == 1 and b.direction == -1
        assert a.low == pytest.approx(3 * 0.1 - 1.0, abs=1e-9)
        assert a.high == pytest.approx(3 * 0.9 - 1.0, abs=1e-9)
        assert [bar.label for bar in t.bars] == ["x", "y"]  # sorted by swing

    def test_linearity_property(self):
        # for linear models swing scales with the coefficient
        model, spec, _ = make_store(formula="=5*A1+0*A2")
        t = tornado(model, spec)["f"]
        assert t.bar("x").swing == pytest.approx(5 * 0.8, abs=1e-9)
        zero = t.bar("y")
        assert zero.swing == pytest.approx(0.0, abs=1e-12)
        assert zero.direction == 0

    def test_custom_quantiles(self):
        model, spec, _ = make_store()
        t = tornado(model, spec, q_low=0.25, q_high=0.75)["f"]
        assert t.bar("x").swing == pytest.approx(3 * 0.5, abs=1e-9)

    def test_bar_error_nonfatal(self):
        model = build_model([
            ("A1", "x", 0.5), ("A2", "y", 0.5), ("A3", "f", "=SQRT(A1-0.5)+A2"),
        ])
        spec = SimulationSpec(
            assumptions=[(C("A1"), Uniform(0, 1)), (C("A2"), Uniform(0, 1))],
            forecasts=[Forecast(C("A3"), "f")], trials=20, seed=1)
        t = tornado(model, spec)["f"]
        bad = t.bar("x")
        assert bad.error is not None and bad.low is None
        good = t.bar("y")
        assert good.error is None and good.swing == pytest.approx(0.8, abs=1e-9)

    def test_one_batch_equals_the_oracle_per_point(self, monkeypatch):
        # bar x fails at its low point only, bar z at both, bar y nowhere;
        # g is a second forecast read from the same batch
        model = build_model([
            ("A1", "x", 0.5), ("A2", "y", 0.5), ("A3", "z", 0.5),
            ("A4", "f", "=SQRT(A1-0.2)+A2*A2+SQRT(0.0001-(A3-0.7)^2)*0+1/(A3-0.5)"),
            ("A5", "g", "=A2-A3*A1"),
        ])
        spec = SimulationSpec(
            assumptions=[(C("A1"), Uniform(0, 1)), (C("A2"), Uniform(0, 1)),
                         (C("A3"), Uniform(0.6, 0.8))],
            forecasts=[Forecast(C("A4"), "f"), Forecast(C("A5"), "g")], trials=20, seed=1)
        medians = {c: d.median for c, d in spec.assumptions}

        oracle = Oracle(model)

        def one_row(cell, q, fcell):
            result = oracle.evaluate({**medians, cell: spec.distributions[
                spec.assumption_cells.index(cell)].inverse_cdf(q)})
            return result if isinstance(result, CalcError) else result[fcell]

        calls = []
        monkeypatch.setattr(analytics, "evaluate_batch",
                            lambda *a, **kw: calls.append(a[2]) or evaluate_batch(*a, **kw))
        torn = tornado(model, spec)
        assert calls == [7]  # 2k+1 rows in one call for both forecasts
        assert list(torn) == ["f", "g"]
        for f in spec.forecasts:
            t = torn[f.label]
            assert t.base == oracle.evaluate(medians)[f.cell]
            for cell, label in zip(spec.assumption_cells, ["x", "y", "z"]):
                bar = t.bar(label)
                lo, hi = one_row(cell, 0.1, f.cell), one_row(cell, 0.9, f.cell)
                assert bar.low == (None if isinstance(lo, CalcError) else lo)
                assert bar.high == (None if isinstance(hi, CalcError) else hi)
                failed = [r for r in (hi, lo) if isinstance(r, CalcError)]
                assert bar.error == (str(failed[0]) if failed else None)
                for v in (t.base, bar.low, bar.high, bar.swing):
                    assert v is None or type(v) is float
        t = torn["f"]
        assert t.bar("x").error.startswith("DomainError at A4: square root of -0.1")
        assert t.bar("x").high is not None and t.bar("y").error is None
        assert t.bar("z").low is None and t.bar("z").high is None

    def test_base_case_failure_is_a_simulation_error(self):
        model, spec, _ = make_store(formula="=1/(A1-0.5)")
        with pytest.raises(SimulationError,
                           match="tornado base case failed: DivByZero at A3"):
            tornado(model, spec)

    def test_each_forecast_equals_a_one_forecast_document(self, tmp_path, signflip_doc):
        # the sign flip contradicts COGSGrowth's declared sign on both forecasts
        data = json.loads(json.dumps(signflip_doc.data))
        data["forecasts"].append({"cell": "E14", "label": "Year5Cash"})
        data["expectations"].append(
            {"assumption": "COGSGrowth", "forecast": "Year5Cash", "sign": "-"})
        path = tmp_path / "two.json"
        path.write_text(json.dumps(data))
        torn = tornado(*ModelDocument.from_json(data).build(trials=500))
        assert main(["run", str(path), "--trials", "500", "--out", str(tmp_path)]) == 0
        assert main(["audit", str(path), "--trials", "500", "--out", str(tmp_path)]) == 2
        reported = json.loads((tmp_path / "report.json").read_text())["forecasts"]
        findings = json.loads((tmp_path / "audit.json").read_text())["findings"]

        for i, f in enumerate(data["forecasts"]):
            one = dict(data, forecasts=[f], expectations=[
                e for e in data["expectations"] if e["forecast"] == f["label"]])
            alone = tornado(*ModelDocument.from_json(one).build(trials=500))[f["label"]]
            assert torn[f["label"]] == alone
            assert reported[i]["tornado"] == alone.to_json()
            bar = alone.bar("COGSGrowth")
            [mismatch] = [g["evidence"] for g in findings
                          if g["kind"] == "SignMismatch"
                          and g["evidence"]["forecast"] == f["label"]]
            assert (mismatch["tornado_direction"], mismatch["tornado_low"],
                    mismatch["tornado_high"]) == (bar.direction, bar.low, bar.high)

    def test_bad_quantiles(self):
        model, spec, _ = make_store()
        with pytest.raises(ValueError):
            tornado(model, spec, q_low=0.9, q_high=0.1)


class TestScenario:
    def brute_force(self, csv_path, lo, hi):
        """Independent oracle: re-read the exported CSV and filter by hand."""
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        keep = [r for r in rows if lo <= float(r["f"]) <= hi]
        return ([int(r["trial"]) for r in keep],
                [(float(r["x"]), float(r["y"])) for r in keep])

    def test_matches_csv_brute_force(self, tmp_path):
        model, spec, store = make_store(trials=300)
        csv_path = tmp_path / "trials.csv"
        export_trials(store, csv_path)
        rng = np.random.default_rng(17)
        v = store.forecast_values("f")
        for _ in range(10):
            lo, hi = sorted(rng.uniform(v.min(), v.max(), size=2))
            sub = scenario_filter(store, "f", lo=lo, hi=hi)
            exp_idx, exp_rows = self.brute_force(csv_path, lo, hi)
            assert sub.indices == exp_idx
            assert [tuple(r) for r in sub.assumptions] == exp_rows

    def test_paste_back_bit_exact(self):
        model, spec, store = make_store(trials=200)
        sub = scenario_filter(store, "f", lo=0.0)
        assert len(sub.indices) > 0
        for row, fval in zip(sub.assumptions, sub.forecasts):
            result = replay(model, spec, row)
            assert result[C("A3")] == fval

    def test_open_sides(self):
        _, _, store = make_store()
        assert len(scenario_filter(store, "f").indices) == store.completed
        v = store.forecast_values("f")
        top = scenario_filter(store, "f", lo=float(np.median(v)))
        assert len(top.indices) >= store.completed // 2

    def test_bad_bounds(self):
        _, _, store = make_store()
        with pytest.raises(ValueError):
            scenario_filter(store, "f", lo=2.0, hi=1.0)
