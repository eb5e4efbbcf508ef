"""SUM and AVERAGE against math.fsum, bit for bit and error for error.

The evaluator sums columns with a certified Sum2 kernel and sends the
rows it cannot prove to fn.fsum. Every row must equal math.fsum's
correctly rounded sum, or fail with the DomainError detail that sum
gives, and the fast path must carry nearly every row of ordinary data.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from gridmc import functions as fn
from gridmc.cells import parse_cell
from gridmc.document import ModelDocument
from gridmc.functions import ErrorKind
from gridmc.model import CalcError, build_model, evaluate_batch
from gridmc.simulate import run
from tests.conftest import portfolio_documents

MAX_TERMS = 40
MAX = 1.7976931348623157e308
TINY = 5e-324
SUM_CELL, AVERAGE_CELL = parse_cell("B1"), parse_cell("B2")


def model_of(k):
    """Inputs A1..Ak and B1 = SUM, B2 = AVERAGE over them."""
    return build_model([(f"A{i}", None, 0) for i in range(1, k + 1)]
                       + [("B1", None, f"=SUM(A1:A{k})"), ("B2", None, f"=AVERAGE(A1:A{k})")])


MODELS = {k: model_of(k) for k in range(1, MAX_TERMS + 1)}


def expected(xs, cell, average):
    """What one-row evaluation with math.fsum gives: a float or a CalcError."""
    try:
        value = math.fsum(xs)
    except (OverflowError, ValueError) as exc:
        return CalcError(ErrorKind.DOMAIN_ERROR, cell, f"sum: {exc}")
    if average:
        value /= len(xs)
    if not math.isfinite(value):
        return CalcError(ErrorKind.DOMAIN_ERROR, cell, f"non-finite result {value!r}")
    return value


def same(a, b) -> bool:
    return math.copysign(1.0, a) == math.copysign(1.0, b) and a == b


def check(matrix):
    """Evaluate SUM and AVERAGE over the rows of `matrix` and compare each
    row with math.fsum; an error in SUM leaves AVERAGE unevaluated."""
    k = len(matrix[0])
    model = MODELS[k]
    columns = {parse_cell(f"A{j + 1}"): np.array([row[j] for row in matrix])
               for j in range(k)}
    batch = evaluate_batch(model, columns, len(matrix))
    for i, xs in enumerate(matrix):
        for cell, average in ((SUM_CELL, False), (AVERAGE_CELL, True)):
            want = expected(xs, cell, average)
            if isinstance(want, CalcError):
                assert batch.errors.get(i) == want, (xs, batch.errors.get(i), want)
                break
            assert i not in batch.errors, (xs, batch.errors[i])
            got = float(batch.values[cell][i])
            assert same(got, want), (xs, cell, got, want)


BINADES = st.integers(-1022, 1023)
MANTISSAS = st.integers(0, 2 ** 52 - 1)


@st.composite
def normal_floats(draw, binades=BINADES):
    sign = draw(st.sampled_from([1.0, -1.0]))
    return sign * math.ldexp(1.0 + draw(MANTISSAS) / 2 ** 52, draw(binades))


NEAR_MAX = st.one_of(
    st.sampled_from([MAX, -MAX, math.nextafter(MAX, 0), -math.nextafter(MAX, 0),
                     2.0 ** 1023, -2.0 ** 1023, 2.0 ** 1021, 2.0 ** 970, -2.0 ** 970]),
    st.floats(min_value=1e307, max_value=MAX), st.floats(min_value=-MAX, max_value=-1e307))
SUBNORMALS = st.one_of(
    st.sampled_from([TINY, -TINY, 2.2250738585072009e-308, -2.2250738585072014e-308]),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308))
SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 0.1])
VALUES = st.one_of(st.floats(), normal_floats(), NEAR_MAX, SUBNORMALS, SPECIAL,
                   st.floats(-1e6, 1e6))


@st.composite
def tie_rows(draw, k):
    """Rows whose exact sum lies halfway between two neighbouring floats,
    below or above a base value of any binade, with pairs that cancel
    exactly filling the other terms, in any order."""
    base = draw(normal_floats(st.integers(-1021, 1023)))
    toward = draw(st.sampled_from([0.0, math.copysign(math.inf, base)]))
    if abs(base) == MAX:  # no float above the largest
        toward = 0.0
    half = (math.nextafter(base, toward) - base) / 2
    terms = [base, half] if k >= 2 else [base]
    while len(terms) + 2 <= k:
        c = draw(st.one_of(st.floats(-1e6, 1e6), normal_floats(), SUBNORMALS))
        terms += [c, -c]
    terms += [0.0] * (k - len(terms))
    return draw(st.permutations(terms))


@st.composite
def cancelling_rows(draw, k):
    """Large values and their negations around a small remainder."""
    small = draw(st.lists(st.one_of(st.floats(-1.0, 1.0), SUBNORMALS),
                          min_size=1, max_size=max(1, k // 4)))[:k]
    terms = list(small)
    while len(terms) + 2 <= k:
        c = draw(st.one_of(normal_floats(st.integers(100, 1023)), st.floats(-1e300, 1e300)))
        terms += [c, -c * draw(st.sampled_from([1.0, 1.0, 1.0 + 2.0 ** -52]))]
    terms += draw(st.lists(VALUES, min_size=k - len(terms), max_size=k - len(terms)))
    return draw(st.permutations(terms))


@st.composite
def matrices(draw):
    k = draw(st.integers(1, MAX_TERMS))
    rows = st.one_of(st.lists(VALUES, min_size=k, max_size=k),
                     st.lists(st.floats(-1e3, 1e3), min_size=k, max_size=k),
                     tie_rows(k), cancelling_rows(k))
    return draw(st.lists(rows, min_size=1, max_size=4))


@settings(max_examples=400, deadline=None)
@given(matrices())
# math.fsum raises on an intermediate overflow although this sum is finite
@example([[MAX, 2.0 ** 969, 2.0 ** 969 - 2.0 ** 916, -2.0 ** 1023]])
@example([[MAX, MAX], [MAX, -MAX], [MAX, 2.0 ** 970], [MAX, 2.0 ** 970 - 2.0 ** 918]])
@example([[math.inf, 1.0], [math.inf, -math.inf], [math.nan, 1.0], [-math.inf, math.nan]])
@example([[-0.0], [0.0], [TINY], [-TINY]])
@example([[-0.0, -0.0], [1.0, -1.0], [TINY, -TINY], [-0.0, 0.0], [TINY, TINY],
          [2.0 ** -1022, -TINY]])
# ties: half an ulp above 1, a quarter below, and half an ulp above an odd mantissa
@example([[1.0, 2.0 ** -53], [1.0, -2.0 ** -54], [1.0 + 2.0 ** -52, 2.0 ** -53]])
@example([[0.1, 0.2, 0.3], [-0.0, 0.0, -0.0], [1e16, 1.0, -1e16]])
@example([[1e300, 1.0, -1e300, 2.0 ** -60], [1e16, 1.0, -1e16, 1.0]])
# the float sum of the errors 2**-6, 2**-8 + 2**-59 and 2**-9 + 2**-61 rounds
# a tie down and then drops 2**-61, which would have rounded the sum up
@example([[2.0 ** 54, 2.0 ** -6, 2.0 ** -8 + 2.0 ** -59, 2.0 ** -9 + 2.0 ** -61, -2.0 ** 54]])
def test_sum_and_average_equal_fsum(matrix):
    check(matrix)


def test_dead_rows_stay_nan():
    # row 1 fails at the SQRT before the SUM: the SUM leaves it nan
    model = build_model([("A1", None, 0), ("A2", None, "=SQRT(A1)"),
                         ("A3", None, "=SUM(A1,A2,1)")])
    batch = evaluate_batch(model, {parse_cell("A1"): np.array([4.0, -1.0, 9.0])}, 3)
    assert list(batch.errors) == [1]
    total = batch.values[parse_cell("A3")]
    assert total[0] == 7.0 and math.isnan(total[1]) and total[2] == 13.0


def test_fast_path_carries_portfolio_rows(monkeypatch):
    """A kernel that sent every row to fn.fsum would pass every equality
    test: fewer than 1% of the portfolio's rows may reach it."""
    (data,) = portfolio_documents((1,))
    model, spec = ModelDocument.from_json(data).build(trials=1000, stop_on_error=False)
    sums = [ref for ref, d in model.defs.items() if d.source.startswith("=SUM(")]
    assert len(sums) == 1 and len(model.precedents(sums[0])) == 24
    calls = []

    def counting_fsum(values):
        calls.append(values)
        return math.fsum(values)

    monkeypatch.setattr(fn, "fsum", counting_fsum)
    store = run(model, spec)
    assert len(store.trial_indices) + len(store.errors) == 1000
    assert len(calls) < 10, len(calls)
