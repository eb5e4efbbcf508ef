import pytest
from hypothesis import given, settings, strategies as st

from gridmc.cells import CellRef, parse_cell
from gridmc.formula import (
    FUNCTIONS,
    MAX_DEPTH,
    Bin,
    Call,
    FormulaError,
    Lit,
    Neg,
    RangeRef,
    Ref,
    parse_formula,
    render_formula,
)
from gridmc.model import CalcError, ModelBuildError, build_model, evaluate


def ref(text):
    return Ref(parse_cell(text))


class TestCellRef:
    def test_round_trip(self):
        assert str(parse_cell("B12")) == "B12"
        assert parse_cell("B12") == CellRef(1, 12)

    @pytest.mark.parametrize("text,col,row", [
        ("A1", 0, 1), ("Z9", 25, 9), ("AA1", 26, 1), ("ZZ100", 701, 100),
    ])
    def test_parse(self, text, col, row):
        assert parse_cell(text) == CellRef(col, row)

    @pytest.mark.parametrize("bad", ["", "1A", "A0", "AAA1", "A-1", "A 1x"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_cell(bad)

    def test_print_round_trips_all_columns(self):
        for col in range(702):
            c = CellRef(col, 3)
            assert parse_cell(str(c)) == c


class TestParse:
    def test_mul_of_sum(self):
        assert parse_formula("=B2*(1+B4)") == Bin("*", ref("B2"),
                                                  Bin("+", Lit(1.0), ref("B4")))

    def test_npv_with_range(self):
        assert parse_formula("=NPV(0.1, C2:C5)") == Call(
            "NPV", (Lit(0.1), RangeRef(parse_cell("C2"), parse_cell("C5"))))

    def test_truncated_call_position(self):
        with pytest.raises(FormulaError) as exc:
            parse_formula("=SUM(")
        assert exc.value.position == 5
        assert "expected expression" in str(exc.value)

    def test_bare_number(self):
        assert parse_formula("3.5") == Lit(3.5)
        assert parse_formula("  42 ") == Lit(42.0)

    def test_not_a_formula(self):
        with pytest.raises(FormulaError):
            parse_formula("hello")

    def test_whitespace_insensitive(self):
        assert parse_formula("= A1 +  2 ") == parse_formula("=A1+2")

    def test_function_name_case_insensitive(self):
        assert parse_formula("=sqrt(A1)") == parse_formula("=SQRT(A1)")

    def test_unknown_function(self):
        with pytest.raises(FormulaError, match="unknown function"):
            parse_formula("=FOO(1)")

    def test_arity_checked(self):
        with pytest.raises(FormulaError, match="arguments"):
            parse_formula("=IF(1,2)")
        with pytest.raises(FormulaError, match="arguments"):
            parse_formula("=SQRT(1,2)")
        with pytest.raises(FormulaError, match="arguments"):
            parse_formula("=IRR(A1:A3,0.1,5)")

    def test_range_only_in_function_args(self):
        with pytest.raises(FormulaError):
            parse_formula("=A1:A3+1")

    def test_precedence(self):
        # 1+2*3^2 = 1+(2*(3^2))
        assert parse_formula("=1+2*3^2") == Bin(
            "+", Lit(1.0), Bin("*", Lit(2.0), Bin("^", Lit(3.0), Lit(2.0))))

    def test_unary_minus_binds_tighter_than_power_base(self):
        # -2^2: unary applies to the base, like the grammar says
        assert parse_formula("=-2^2") == Bin("^", Neg(Lit(2.0)), Lit(2.0))

    def test_comparison(self):
        assert parse_formula("=A1<=2") == Bin("<=", ref("A1"), Lit(2.0))
        assert parse_formula("=A1<>A2") == Bin("<>", ref("A1"), ref("A2"))

    def test_unicode_minus(self):
        assert parse_formula("=1−2") == parse_formula("=1-2")

    def test_trailing_garbage(self):
        with pytest.raises(FormulaError):
            parse_formula("=1+2)")

    @pytest.mark.parametrize("chain", [
        lambda k: "=" + "+".join(["A1"] * k),  # k nodes deep: k - 1 sums and a leaf
        lambda k: "=" + "-" * (k - 1) + "A1",
    ], ids=["sum", "minus"])
    def test_depth_limit(self, chain):
        parse_formula(chain(MAX_DEPTH))
        with pytest.raises(FormulaError, match=f"more than {MAX_DEPTH} levels deep"):
            parse_formula(chain(MAX_DEPTH + 1))

    def test_nesting_past_the_parsers_recursion(self):
        # each nested call costs the parser several frames: 500 of them run
        # out of Python's recursion limit before MAX_DEPTH applies
        parse_formula("=" + "ABS(" * 100 + "A1" + ")" * 100)
        with pytest.raises(FormulaError, match="nested too deeply to parse"):
            parse_formula("=" + "ABS(" * MAX_DEPTH + "A1" + ")" * MAX_DEPTH)

    def test_formulas_at_the_depth_limit_build_and_evaluate(self):
        # compiling takes a frame per level and evaluating up to two
        sums = "=" + "+".join(["A1"] * MAX_DEPTH)
        minuses = "=" + "-" * (MAX_DEPTH - 1) + "A1"
        nested = "=" + "SUM(A1," * 100 + "A1" + ")" * 100
        m = build_model([("A1", None, "2"), ("A2", None, sums), ("A3", None, minuses),
                         ("A4", None, nested)])
        result = evaluate(m)
        assert [result[parse_cell(c)] for c in ("A2", "A3", "A4")] == [
            2.0 * MAX_DEPTH, 2.0 * (-1) ** (MAX_DEPTH - 1), 202.0]


CORPUS = [
    "=1", "=1.5", "=1e3", "=0.25", "=A1", "=ZZ99", "=-A1", "=--A1",
    "=A1+B1", "=A1-B1", "=A1*B1", "=A1/B1", "=A1^B1", "=A1^B1^C1",
    "=A1+B1*C1", "=(A1+B1)*C1", "=A1-(B1-C1)", "=A1-B1-C1", "=A1/B1/C1",
    "=-(A1+B1)", "=2^-3", "=-2^2", "=A1=B1", "=A1<>B1", "=A1<B1",
    "=A1<=B1", "=A1>B1", "=A1>=B1", "=A1+1<=B1*2",
    "=IF(A1>0,A1,0)", "=IF(A1>=B1,1,0)*C1", "=SUM(A1:A9)",
    "=SUM(A1,B2,C3)", "=SUM(A1:B2,C3)", "=AVERAGE(A1:A4)",
    "=MIN(A1,B1)", "=MAX(0,A1-B1)", "=ABS(A1-B1)", "=SQRT(A1)",
    "=LN(A1)", "=EXP(A1)", "=SQRT(ABS(A1))", "=NPV(0.1,A1:A5)",
    "=NPV(B1,A1,A2,A3)", "=NPV(B1,A1:A5)-B8", "=IRR(A1:A5)",
    "=IRR(A1:A5,0.2)", "=LOOKUP(A1,B1:C9,0)", "=LOOKUP(A1,B1:C9,1)",
    "=IF(A1>0,SQRT(A1),-SQRT(-A1))", "=1+2*3-4/5^6",
    "=MAX(A1:A3)+MIN(B1:B3)", "=IF(A1=0,0,1/A1)",
]


@pytest.mark.parametrize("text", CORPUS)
def test_render_round_trip_corpus(text):
    ast = parse_formula(text)
    assert parse_formula(render_formula(ast)) == ast


# hypothesis strategy over the grammar
_cells = st.builds(CellRef, st.integers(0, 701), st.integers(1, 99))
_atoms = st.one_of(
    st.builds(Lit, st.floats(min_value=0, max_value=1e6,
                             allow_nan=False, allow_infinity=False)),
    st.builds(Ref, _cells),
)


def _exprs(children):
    ops = st.sampled_from(["+", "-", "*", "/", "^", "=", "<>", "<", "<=", ">", ">="])
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Bin, ops, children, children),
        st.builds(lambda args: Call("SUM", tuple(args)),
                  st.lists(children, min_size=1, max_size=3)),
        st.builds(lambda c, t, f: Call("IF", (c, t, f)), children, children, children),
    )


@given(st.recursive(_atoms, _exprs, max_leaves=25))
def test_render_round_trip_random_ast(ast):
    assert parse_formula(render_formula(ast)) == ast


# One valid call of every function, and the argument positions (0-based)
# where a one-column range may stand. LOOKUP's table is a two-column range.
VALID_CALLS = {
    "IF": ["1", "2", "3"],
    "SUM": ["1", "2"],
    "AVERAGE": ["1", "2"],
    "MIN": ["1", "2"],
    "MAX": ["1", "2"],
    "ABS": ["1"],
    "SQRT": ["1"],
    "LN": ["1"],
    "EXP": ["1"],
    "NPV": ["0.1", "1", "2"],
    "IRR": ["A1:A3", "0.1"],
    "LOOKUP": ["1", "B1:C3", "0"],
}
RANGE_ALLOWED = {("SUM", 0), ("SUM", 1), ("AVERAGE", 0), ("AVERAGE", 1), ("MIN", 0),
                 ("MIN", 1), ("MAX", 0), ("MAX", 1), ("NPV", 1), ("NPV", 2), ("IRR", 0)}
POSITIONS = [(name, i) for name, args in VALID_CALLS.items() for i in range(len(args))]


def call_with(name, i, arg):
    """Formula text of VALID_CALLS[name] with argument i replaced, and the
    character position of that argument."""
    args = list(VALID_CALLS[name])
    args[i] = arg
    return f"={name}({','.join(args)})", len(f"={name}(") + sum(len(a) + 1 for a in args[:i])


def test_every_function_has_a_valid_call():
    assert set(VALID_CALLS) == set(FUNCTIONS)
    for name, args in VALID_CALLS.items():
        parse_formula(f"={name}({','.join(args)})")


@pytest.mark.parametrize("name, i", POSITIONS, ids=[f"{n}-{i + 1}" for n, i in POSITIONS])
def test_range_argument_positions(name, i):
    text, position = call_with(name, i, "A1:A3")
    if (name, i) in RANGE_ALLOWED:
        assert parse_formula(text).args[i] == RangeRef(parse_cell("A1"), parse_cell("A3"))
        return
    with pytest.raises(FormulaError) as exc:
        parse_formula(text)
    assert exc.value.position == position
    expected = ("LOOKUP needs a two-column range" if (name, i) == ("LOOKUP", 1)
                else f"{name} takes no range as argument {i + 1}")
    assert str(exc.value) == f"{expected} (at position {position})"


@pytest.mark.parametrize("arg", ["A1", "1", "-A1", "SUM(A1:A3)", "(A1)"])
def test_irr_cashflows_must_be_a_range(arg):
    text, position = call_with("IRR", 0, arg)
    with pytest.raises(FormulaError, match="IRR needs a range of cashflows") as exc:
        parse_formula(text)
    assert exc.value.position == position


@pytest.mark.parametrize("arg", ["B1:B3", "B1:D3", "B3:B1", "D1:B3", "B1", "0"])
def test_lookup_table_must_have_two_columns(arg):
    text, position = call_with("LOOKUP", 1, arg)
    with pytest.raises(FormulaError, match="LOOKUP needs a two-column range") as exc:
        parse_formula(text)
    assert exc.value.position == position


def test_arity_is_checked_before_shapes():
    with pytest.raises(FormulaError, match="SQRT takes 1 arguments, got 2"):
        parse_formula("=SQRT(1,A1:A3)")


# Arity-valid calls of every function over the input cells A1:C3, each
# argument a scalar atom or a range of one to three columns.
_INPUT_CELLS = [CellRef(c, r) for c in range(3) for r in (1, 2, 3)]
_call_args = st.one_of(
    st.builds(Lit, st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e308])),
    st.builds(Ref, st.sampled_from(_INPUT_CELLS)),
    st.builds(RangeRef, st.sampled_from(_INPUT_CELLS), st.sampled_from(_INPUT_CELLS)),
)


@st.composite
def _calls(draw):
    name = draw(st.sampled_from(sorted(FUNCTIONS)))
    lo, hi, _ = FUNCTIONS[name]
    n = draw(st.integers(lo, lo + 2 if hi is None else hi))
    return Call(name, tuple(draw(_call_args) for _ in range(n)))


@settings(max_examples=300, deadline=None)
@given(_calls(), st.lists(st.sampled_from([0.0, -1.0, 0.5, 3.0, 1e308]),
                          min_size=len(_INPUT_CELLS), max_size=len(_INPUT_CELLS)))
def test_any_call_builds_or_is_a_build_error(call, values):
    cells = [(ref, None, repr(v)) for ref, v in zip(_INPUT_CELLS, values)]
    try:
        model = build_model(cells + [("D1", None, render_formula(call))])
    except ModelBuildError as exc:
        assert len(exc.diagnostics) == 1 and exc.diagnostics[0].startswith("D1: ")
        return
    assert isinstance(evaluate(model), (dict, CalcError))
