"""The columnar evaluator against the per-trial closure oracle.

Random models are built from the formula grammar of test_formula.py,
extended with MIN, MAX, AVERAGE, ABS, SQRT, LN, EXP, NPV, IRR, LOOKUP and
ranges, and evaluated on random rows that include zeros, signed zeros,
negatives, overflowing magnitudes, infinities and nan. Values must agree
bit for bit and errors in kind, cell and detail.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from gridmc.cells import parse_cell
from gridmc.distributions import Normal, Uniform
from gridmc.formula import Call, Lit, RangeRef, Ref, render_formula
from gridmc.model import CalcError, build_model, evaluate, evaluate_batch
from gridmc.simulate import Forecast, SimulationSpec, replay, run, sample_assumptions
from tests.closure_oracle import Oracle
from tests.test_formula import _exprs


def C(text):
    return parse_cell(text)


INPUTS = [C(f"{col}{row}") for col in "AB" for row in (1, 2, 3)]
_RANGES = [RangeRef(C(a), C(b)) for a, b in
           [("A1", "A3"), ("A1", "B3"), ("B1", "B2"), ("A2", "B2"), ("A3", "A3")]]
_TABLES = [RangeRef(C(a), C(b)) for a, b in [("A1", "B2"), ("A1", "B3"), ("A2", "B3")]]
SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -2.5, 1e308, -1e308, 1e-308, 700.0]
_values = st.one_of(
    st.sampled_from(SPECIAL + [math.inf, -math.inf, math.nan]),
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _call(name):
    return lambda args: Call(name, tuple(args))


def _functions(children):
    args = st.lists(st.one_of(children, st.sampled_from(_RANGES)), min_size=1, max_size=3)
    ranges = st.sampled_from(_RANGES)
    return st.one_of(
        st.builds(_call("MIN"), args),
        st.builds(_call("MAX"), args),
        st.builds(_call("SUM"), args),
        st.builds(_call("AVERAGE"), args),
        st.builds(lambda x: Call("ABS", (x,)), children),
        st.builds(lambda x: Call("SQRT", (x,)), children),
        st.builds(lambda x: Call("LN", (x,)), children),
        st.builds(lambda x: Call("EXP", (x,)), children),
        st.builds(lambda r, a: Call("NPV", (r, *a)), children, args),
        st.builds(lambda r, g: Call("IRR", (r,) if g is None else (r, g)),
                  ranges, st.one_of(st.none(), children)),
        st.builds(lambda k, t, m: Call("LOOKUP", (k, t, m)),
                  children, st.sampled_from(_TABLES), children),
    )


def _formulas(refs):
    atoms = st.one_of(
        st.builds(Lit, st.sampled_from([v for v in SPECIAL if math.copysign(1, v) > 0])),
        st.builds(Lit, st.floats(min_value=0, max_value=1e6)),
        st.builds(Ref, st.sampled_from(refs)),
    )
    return st.recursive(atoms, lambda ch: st.one_of(_exprs(ch), _functions(ch)),
                        max_leaves=10)


# formula cell Ci may read the inputs and C1..C(i-1)
FORMULA_CELLS = [C(f"C{i}") for i in range(1, 5)]
_CELL_FORMULAS = [_formulas(INPUTS + FORMULA_CELLS[:i]) for i in range(len(FORMULA_CELLS))]


@st.composite
def models(draw):
    """Six input cells A1:B3 and one to four formula cells C1.. over them."""
    n = draw(st.integers(1, len(FORMULA_CELLS)))
    return model_of(*(render_formula(draw(_CELL_FORMULAS[i])) for i in range(n)))


def model_of(*formulas):
    """Input cells A1:B3 and formula cells C1, C2, ... holding `formulas`."""
    return build_model([(str(c), None, 1) for c in INPUTS]
                       + [(c, None, f) for c, f in zip(FORMULA_CELLS, formulas)])


def rows(n_max=8):
    return st.lists(st.lists(_values, min_size=len(INPUTS), max_size=len(INPUTS)),
                    min_size=1, max_size=n_max)


def same(a, b) -> bool:
    """Bit-for-bit equal floats: nan equals nan, 0.0 differs from -0.0."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def batch_of(model, matrix):
    matrix = np.array(matrix, dtype=float)
    return evaluate_batch(model, {c: matrix[:, j] for j, c in enumerate(INPUTS)}, len(matrix))


def assert_row_matches(batch, i, expected):
    if isinstance(expected, CalcError):
        assert batch.errors.get(i) == expected, (i, batch.errors.get(i), expected)
        return
    assert i not in batch.errors, (i, batch.errors[i])
    for ref, value in expected.items():
        got = float(batch.values[ref][i])
        assert type(got) is float and same(got, value), (i, ref, got, value)


# Rows for cells of constants only: every row takes the same value or error.
_ROWS = [[1.0] * len(INPUTS)] * 3
# finite inputs whose column sums overflow: no row may fail for it
_HUGE = [[1e308] * len(INPUTS)] * 3
# row 0 fails at C1 (SQRT(-1)) and holds inf at C2, after its error
_DEAD_INF = [[-1.0, 1e308, 1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 1.0, 1.0, 1.0, 1.0]]


@settings(max_examples=500, deadline=None)
@given(models(), rows())
@example(model_of("=1/0"), _ROWS)
@example(model_of("=SQRT(-1)"), _ROWS)
@example(model_of("=LN(0)"), _ROWS)
@example(model_of("=NPV(-2,1)"), _ROWS)
@example(model_of("=1e308*10"), _ROWS)
@example(model_of("=IF(0,1/0,2)", "=IF(1,2,1/0)"), _ROWS)
@example(model_of("=1", "=C1+2*3", "=MIN(C1,C2)<=MAX(4,C2)", "=ABS(-C3)"), _ROWS)
@example(model_of("=A1", "=C1*0.5+B1"), _HUGE)
@example(model_of("=SQRT(A1)", "=A2*10"), _DEAD_INF)
def test_batch_equals_oracle(model, matrix):
    batch = batch_of(model, matrix)
    for ref, value in batch.values.items():
        assert value.dtype == np.float64 and value.shape == (len(matrix),), ref
    oracle = Oracle(model)
    for i, row in enumerate(matrix):
        assert_row_matches(batch, i, oracle.evaluate(dict(zip(INPUTS, row))))


@settings(max_examples=100, deadline=None)
@given(models(), rows())
def test_batch_rows_equal_one_row_replays(model, matrix):
    spec = SimulationSpec(assumptions=[(c, Uniform(0, 1)) for c in INPUTS],
                          forecasts=[Forecast(model.order[-1], "f")])
    batch = batch_of(model, matrix)
    for i, row in enumerate(matrix):
        assert_row_matches(batch, i, replay(model, spec, row))


@settings(max_examples=100, deadline=None)
@given(models(), rows(n_max=3))
def test_every_returned_value_is_a_python_float(model, matrix):
    for row in matrix:
        result = evaluate(model, dict(zip(INPUTS, row)))
        if isinstance(result, CalcError):
            assert type(result.detail) is str
        else:
            assert all(type(v) is float for v in result.values())


def test_if_evaluates_each_branch_only_on_its_rows():
    # on every row the branch not taken would fail
    model = build_model([("A1", None, 1), ("A2", None, "=IF(A1>=0,SQRT(A1),LN(-A1))")])
    batch = evaluate_batch(model, {C("A1"): np.array([4.0, -1.0, 0.0, -0.5])}, 4)
    assert batch.errors == {}
    assert [float(batch.values[C("A2")][i]) for i in range(4)] == [2.0, 0.0, 0.0, math.log(0.5)]


def test_first_error_of_a_row_is_kept():
    # the divisor fails first, then the dividend: only the divisor's error stays
    model = build_model([("A1", None, 1), ("A2", None, "=LN(A1)/SQRT(A1)")])
    batch = evaluate_batch(model, {C("A1"): np.array([-4.0, 0.0, 4.0])}, 3)
    assert batch.errors[0].detail == "square root of -4.0"
    assert batch.errors[1].kind.value == "DivByZero"
    assert 2 not in batch.errors


def _sqrt_spec(seed, stop_on_error=True):
    model = build_model([("A1", "X", 1), ("A2", "Y", "=A1*3-1"),
                         ("A3", "Root", "=SQRT(A2+2)+LN(A1+1.5)")])
    spec = SimulationSpec(assumptions=[(C("A1"), Normal(0, 1))],
                          forecasts=[Forecast(C("A3"), "Root")],
                          trials=300, seed=seed, stop_on_error=stop_on_error)
    return model, spec


def test_stop_mode_halts_at_the_oracles_first_failing_trial():
    for seed in range(12):
        model, spec = _sqrt_spec(seed)
        oracle = Oracle(model)
        values = sample_assumptions(spec)
        expected_rows, first = [], None
        for t in range(spec.trials):
            result = oracle.evaluate({C("A1"): values[t, 0]})
            if isinstance(result, CalcError):
                first = (result, t, tuple(values[t].tolist()))
                break
            expected_rows.append(result[C("A3")])
        store = run(model, spec)
        assert first is not None, seed
        d = store.dossier
        assert (d.error, d.trial, d.assumptions) == first
        assert store.forecast_matrix[:, 0].tolist() == expected_rows
        assert store.trial_indices.tolist() == list(range(first[1]))


def test_continue_mode_errors_equal_the_oracles():
    model, spec = _sqrt_spec(3, stop_on_error=False)
    oracle = Oracle(model)
    values = sample_assumptions(spec)
    results = [oracle.evaluate({C("A1"): values[t, 0]}) for t in range(spec.trials)]
    store = run(model, spec)
    assert [(te.trial, te.error) for te in store.errors] == [
        (t, r) for t, r in enumerate(results) if isinstance(r, CalcError)]
    assert store.forecast_matrix[:, 0].tolist() == [
        r[C("A3")] for r in results if not isinstance(r, CalcError)]
