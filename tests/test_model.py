import dataclasses
import math
import random

import numpy as np
import pytest

from gridmc.cells import CellRef, parse_cell
from gridmc.document import ModelDocument
from gridmc.functions import ErrorKind
from gridmc.model import CalcError, ModelBuildError, build_model, evaluate, evaluate_batch
from tests.conftest import example_path


def C(text):
    return parse_cell(text)


def make(cells):
    return build_model([(addr, None, formula) for addr, formula in cells.items()])


class TestBuild:
    def test_order(self):
        m = make({"A1": 2, "A2": "=A1*3"})
        assert m.order == [C("A1"), C("A2")]

    def test_cycle_reports_path(self):
        with pytest.raises(ModelBuildError) as exc:
            make({"A1": "=A2", "A2": "=A1"})
        assert "A1->A2->A1" in str(exc.value)

    def test_self_cycle(self):
        with pytest.raises(ModelBuildError, match="A1->A1"):
            make({"A1": "=A1+1"})

    def test_undefined_reference(self):
        with pytest.raises(ModelBuildError, match="B9"):
            make({"A1": "=B9"})

    def test_all_diagnostics_collected(self):
        with pytest.raises(ModelBuildError) as exc:
            make({"A1": "=B9", "A2": "=SUM(", "A3": "=C7"})
        text = str(exc.value)
        assert "B9" in text and "C7" in text and "A2" in text

    def test_duplicate_label(self):
        with pytest.raises(ModelBuildError, match="duplicate label"):
            build_model([("A1", "x", 1), ("A2", "x", 2)])

    def test_tie_break_row_major(self):
        m = make({"B1": 1, "A1": 2, "A2": "=A1+B1"})
        assert m.order == [C("A1"), C("B1"), C("A2")]

    def test_cells_sort_row_major(self):
        cells = [C(text) for text in ("B2", "A10", "AA1", "B1", "A2", "A1")]
        assert sorted(cells) == [C(text) for text in ("A1", "B1", "AA1", "A2", "B2", "A10")]
        assert min(cells) == C("A1") and max(cells) == C("A10")

    @pytest.mark.parametrize("label", ["A2", "a2"])
    def test_label_spelling_another_cells_address(self, label):
        with pytest.raises(ModelBuildError) as exc:
            build_model([("A1", "x", 1), ("A2", None, "=A1*2"), ("A3", label, 3)])
        assert exc.value.diagnostics == [f"label {label!r} names 2 cells: A2, A3"]

    @pytest.mark.parametrize("label", ["A3", "a3", "A4", "X2"])
    def test_label_spelling_its_own_or_an_undefined_address(self, label):
        model = build_model([("A1", "x", 1), ("A2", None, "=A1*2"), ("A3", label, 3)])
        assert model.cell_by_name(label) == C("A3")

    def test_cycle_reported_before_a_label_naming_two_cells(self):
        with pytest.raises(ModelBuildError) as exc:
            build_model([("A1", None, "=B1"), ("B1", None, "=A1"), ("A2", "B1", 2)])
        assert exc.value.diagnostics == ["cycle detected: A1->B1->A1"]


class TestEvaluate:
    def test_basic(self):
        m = make({"A1": 2, "A2": "=A1*3"})
        assert evaluate(m) == {C("A1"): 2.0, C("A2"): 6.0}

    def test_override_dominates(self):
        m = make({"A1": 2, "A2": "=A1*3"})
        result = evaluate(m, {C("A1"): 7.0})
        assert result[C("A1")] == 7.0
        assert result[C("A2")] == 21.0

    def test_override_ignores_formula(self):
        m = make({"A1": 2, "A2": "=A1*3"})
        result = evaluate(m, {C("A2"): -1.0})
        assert result[C("A2")] == -1.0

    def test_sqrt_negative_is_domain_error(self):
        m = make({"A1": 1, "A2": "=SQRT(A1)"})
        err = evaluate(m, {C("A1"): -4.0})
        assert isinstance(err, CalcError)
        assert err.kind is ErrorKind.DOMAIN_ERROR
        assert err.cell == C("A2")

    def test_div_by_zero(self):
        m = make({"A1": 1, "A2": "=1/A1"})
        err = evaluate(m, {C("A1"): 0.0})
        assert isinstance(err, CalcError)
        assert err.kind is ErrorKind.DIV_BY_ZERO
        assert err.cell == C("A2")

    def test_ln_nonpositive(self):
        m = make({"A1": 1, "A2": "=LN(A1)"})
        err = evaluate(m, {C("A1"): 0.0})
        assert err.kind is ErrorKind.DOMAIN_ERROR

    def test_zero_to_negative_power(self):
        m = make({"A1": 0, "A2": "=A1^-1"})
        err = evaluate(m)
        assert isinstance(err, CalcError)
        assert err.kind is ErrorKind.DOMAIN_ERROR

    def test_comparisons_return_indicator(self):
        m = make({"A1": 3, "A2": "=A1>2", "A3": "=A1<=2", "A4": "=A1=3"})
        result = evaluate(m)
        assert result[C("A2")] == 1.0
        assert result[C("A3")] == 0.0
        assert result[C("A4")] == 1.0

    def test_if_is_lazy(self):
        # untaken error branch must not fire
        m = make({"A1": 4, "A2": "=IF(A1>=0,SQRT(A1),1/0)"})
        assert evaluate(m)[C("A2")] == 2.0

    def test_first_error_in_topological_order(self):
        m = make({"A1": -1, "A2": "=SQRT(A1)", "A3": "=LN(A1)"})
        err = evaluate(m)
        assert err.cell == C("A2")

    def test_unknown_override_rejected(self):
        m = make({"A1": 1, "A2": "=A1*2"})
        with pytest.raises(KeyError, match="override targets unknown cell Z9"):
            evaluate(m, {C("Z9"): 1.0})
        with pytest.raises(KeyError, match="override targets unknown cell B1"):
            evaluate_batch(m, {C("A1"): np.ones(2), C("B1"): np.ones(2)}, 2)

    def test_determinism_bit_identical(self):
        m = make({"A1": 0.1, "A2": "=A1*3+EXP(A1)", "A3": "=A2^1.5/7"})
        r1 = evaluate(m, {C("A1"): 0.1234567})
        r2 = evaluate(m, {C("A1"): 0.1234567})
        assert r1 == r2

    def test_lookup_formula(self):
        # table rows (A1,B1)=(1,10) and (A2,B2)=(2,20)
        m = make({"A1": 1, "B1": 10, "A2": 2, "B2": 20,
                  "C1": "=LOOKUP(1.5,A1:B2,1)", "C2": "=LOOKUP(2,A1:B2,0)"})
        result = evaluate(m)
        assert result[C("C1")] == 10.0
        assert result[C("C2")] == 20.0

    def test_lookup_miss(self):
        m = make({"A1": 1, "B1": 10, "A2": 2, "B2": 20,
                  "C1": "=LOOKUP(0.5,A1:B2,1)"})
        err = evaluate(m)
        assert isinstance(err, CalcError)
        assert err.kind is ErrorKind.LOOKUP_MISS
        assert err.cell == C("C1")

    def test_irr_in_formula_nonconvergent(self):
        m = make({"A1": 100, "A2": 110, "B1": "=IRR(A1:A2)"})
        err = evaluate(m)
        assert isinstance(err, CalcError)
        assert err.kind is ErrorKind.NON_CONVERGENT


class TestTopologicalSoundness:
    def _random_model(self, rng):
        # layered random DAG over one column
        cells = {"A1": rng.uniform(1, 5)}
        for row in range(2, 12):
            prev = rng.sample(range(1, row), k=min(rng.randint(1, 3), row - 1))
            terms = "+".join(f"A{p}" for p in prev)
            cells[f"A{row}"] = f"={terms}+{rng.uniform(0, 2):.3f}"
        return make(cells)

    def test_any_valid_order_gives_identical_results(self):
        rng = random.Random(7)
        for _ in range(10):
            m = self._random_model(rng)
            baseline = evaluate(m)
            # a different valid order: stable sort by dependency depth
            depth = {}
            from gridmc.formula import referenced_cells
            for ref in m.order:
                prec = referenced_cells(m.defs[ref].ast)
                depth[ref] = 1 + max((depth[p] for p in prec), default=0)
            alt = sorted(m.order, key=lambda r: (depth[r], -r.row), reverse=False)
            assert alt != m.order or len(m.order) <= 2
            reordered = dataclasses.replace(m, order=alt)
            assert evaluate(reordered) == baseline


class TestSlots:
    """Cells evaluate in slots numbered by `order`, and literals read rows of
    one read-only block with a row per bit pattern."""

    @pytest.mark.parametrize("first, second", [("-0.0", "0"), ("0", "-0.0")])
    def test_signed_zero_literals_keep_their_signs(self, first, second):
        m = make({"A1": first, "A2": second, "B1": "=A1", "B2": "=A2",
                  "C1": "=MIN(A1,A2)", "C2": "=MAX(A2,A1)"})
        expected = {"A1": first, "A2": second, "B1": first, "B2": second,
                    "C1": first, "C2": second}
        signs = {C(cell): math.copysign(1.0, float(text)) for cell, text in expected.items()}
        one = evaluate(m)
        batch = evaluate_batch(m, {}, 3)
        for ref, sign in signs.items():
            assert math.copysign(1.0, one[ref]) == sign, ref
            assert (np.copysign(1.0, batch.values[ref]) == sign).all(), ref

    def test_literal_columns_are_read_only(self):
        m = make({"A1": 5, "A2": "=A1+1", "A3": "=MAX(7)"})
        batch = evaluate_batch(m, {}, 2)
        for cell in ("A1", "A3"):
            with pytest.raises(ValueError, match="read-only"):
                batch.values[C(cell)][0] = 1.0
        assert batch.values[C("A2")].tolist() == [6.0, 6.0]
        assert evaluate_batch(m, {}, 2).values[C("A1")].tolist() == [5.0, 5.0]

    def test_replaced_order_sets_the_first_error(self):
        # A2 divides by zero and B2 takes a negative root: the first error
        # is the one the order reaches first
        m = make({"A1": 0, "B1": -1, "A2": "=1/A1", "B2": "=SQRT(B1)"})
        assert evaluate(m).cell == C("A2")
        alt = dataclasses.replace(m, order=[C("A1"), C("B1"), C("B2"), C("A2")])
        assert evaluate(alt).cell == C("B2")
        assert evaluate_batch(alt, {}, 2).errors[1].cell == C("B2")
        assert evaluate(m).cell == C("A2")

    def test_one_row_evaluation_hashes_few_cells(self, monkeypatch):
        # each CellRef lookup is a Python-level __hash__ call; a pass looks
        # up the overrides' cells and builds the result once
        model, spec = ModelDocument.load(example_path("project-npv.json")).build()
        overrides = {c: 0.1 for c in spec.assumption_cells}
        calls = []

        def counted(self, _original=CellRef.__hash__):
            calls.append(self)
            return _original(self)
        monkeypatch.setattr(CellRef, "__hash__", counted)
        result = evaluate(model, overrides)
        assert not isinstance(result, CalcError)
        assert 0 < len(calls) <= 3 * len(model.order)
