import pytest
from hypothesis import assume, given, settings, strategies as st

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
from tests import parser_oracle


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
        assert parse_formula(" -.5e1") == Lit(-5.0)
        # only the formula language's numbers, not all that Python's float reads
        for text in ("1_000", "٣", "nan", "inf", "+1", "- 1"):
            with pytest.raises(FormulaError) as exc:
                parse_formula(text)
            assert str(exc.value) == "expected '=' formula or numeric literal (at position 0)"

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
        # a name is read whole, however long
        for name, args in [("SUMPRODUCT", "A1:A3"), ("ROUNDDOWN", "A1,0")]:
            with pytest.raises(FormulaError) as exc:
                parse_formula(f"={name}({args})")
            assert str(exc.value) == f"unknown function {name} (at position 1)"

    @pytest.mark.parametrize("text, message", [
        ("=A1+1e400", "1e400 is beyond the float range (at position 4)"),
        ("=-1E309*A1", "1E309 is beyond the float range (at position 2)"),
        ("1e400", "1e400 is beyond the float range (at position 0)"),
        (" -1e400", "-1e400 is beyond the float range (at position 1)"),
    ])
    def test_number_beyond_the_float_range(self, text, message):
        with pytest.raises(FormulaError) as exc:
            parse_formula(text)
        assert str(exc.value) == message

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
        # nested calls reach MAX_DEPTH, far past the ~120 that a parser
        # spending several frames a level reaches in Python's recursion limit
        parse_formula("=" + "ABS(" * (MAX_DEPTH - 1) + "A1" + ")" * (MAX_DEPTH - 1))
        with pytest.raises(FormulaError, match=f"nested more than {MAX_DEPTH} levels deep"):
            parse_formula("=" + "ABS(" * MAX_DEPTH + "A1" + ")" * MAX_DEPTH)

    def test_formulas_at_the_depth_limit_build_and_evaluate(self):
        # every stage takes a frame a level, so the limit is the same from
        # a caller deep in its own stack
        check_depth_limit()
        calls_nested(300, check_depth_limit)


def nest(head, k):
    """A formula of k copies of head around A1, each closed by ')'."""
    return "=" + head * k + "A1" + ")" * k


# (formula k levels deep, its value when A1 is 2)
DEPTH_CASES = {
    "SUM-nest": (lambda k: nest("SUM(A1,", k - 1), 2.0 * MAX_DEPTH),
    "AVERAGE-nest": (lambda k: nest("AVERAGE(A1,", k - 1), 2.0),
    "MIN-nest": (lambda k: nest("MIN(A1,", k - 1), 2.0),
    "MAX-nest": (lambda k: nest("MAX(A1,", k - 1), 2.0),
    "NPV-nest": (lambda k: nest("NPV(0,", k - 1), 2.0),
    "ABS-nest": (lambda k: nest("ABS(", k - 1), 2.0),
    "IF-nest": (lambda k: nest("IF(A1>0,A1,", k - 2), 2.0),
    "parentheses": (lambda k: nest("(", k - 1), 2.0),
    "sum": (lambda k: "=" + "+".join(["A1"] * k), 2.0 * MAX_DEPTH),
    "minuses": (lambda k: "=" + "-" * (k - 1) + "A1", -2.0),
}


def check_depth_limit():
    """Each DEPTH_CASES formula builds, evaluates and renders at MAX_DEPTH
    levels, and is a FormulaError one level deeper."""
    cells = [(f"B{i}", None, make(MAX_DEPTH)) for i, (make, _) in
             enumerate(DEPTH_CASES.values(), start=1)]
    model = build_model([("A1", None, "2")] + cells)
    result = evaluate(model)
    assert [result[parse_cell(a)] for a, _, _ in cells] == [v for _, v in DEPTH_CASES.values()]
    for a, _, _ in cells:
        text = render_formula(model.defs[parse_cell(a)].ast)
        assert render_formula(parse_formula(text)) == text
    for make, _ in DEPTH_CASES.values():
        with pytest.raises(FormulaError, match=f"formula nested more than {MAX_DEPTH} levels deep"):
            parse_formula(make(MAX_DEPTH + 1))


def calls_nested(frames, fn):
    """fn(), called `frames` Python frames deeper than this call."""
    return fn() if frames == 0 else calls_nested(frames - 1, fn)


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


# Token strings over the grammar's vocabulary, for the differential test
# against the recursive-descent parser in tests/parser_oracle.py. The
# numbers all fit a float: the oracle reads 1e400 as Lit(inf).
_NUMBERS = ["0", "1", "2.5", ".5", "10.", "1e3", "7E-2"]
_CELLS = ["A1", "b2", "ZZ99", "AA10"]
_RANGES = ["A1:B3", "C1:C2", "a1 : A3"]
_NAMES = [*FUNCTIONS, "sum", "FOO", "SUMPRODUCT"]
_OPERATORS = ["=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "^"]
_VOCABULARY = [*_NUMBERS, *_CELLS, *_RANGES, *_NAMES, *_OPERATORS,
               "−", "(", ")", ",", ":"]


_operator = st.sampled_from(_OPERATORS)
_minuses = st.lists(st.sampled_from(["-", "−"]), max_size=2)
_leaf = st.sampled_from(_NUMBERS + _CELLS)
_name = st.sampled_from(_NAMES)
_range = st.sampled_from(_RANGES)
_token = st.sampled_from(_VOCABULARY)
_edit = st.sampled_from(["insert", "delete", "replace"])


def _expr_tokens(draw, depth):
    """The tokens of a grammatical expr that nests at most `depth` levels."""
    tokens = []
    for i in range(draw(st.integers(1, 3))):
        if i:
            tokens.append(draw(_operator))
        tokens += draw(_minuses)
        kind = draw(st.integers(0, 4)) if depth else 0
        if kind < 3:
            tokens.append(draw(_leaf))
        elif kind == 3:
            tokens += ["(", *_expr_tokens(draw, depth - 1), ")"]
        else:
            tokens += [draw(_name), "("]
            for j in range(draw(st.integers(1, 3))):
                tokens += [","] if j else []
                if draw(st.integers(0, 3)) == 0:
                    tokens.append(draw(_range))
                else:
                    tokens += _expr_tokens(draw, depth - 1)
            tokens.append(")")
    return tokens


@st.composite
def _token_strings(draw):
    """Formula text: vocabulary tokens at random, or a grammatical string
    with up to two tokens inserted, deleted or replaced."""
    if draw(st.integers(0, 3)) == 0:
        tokens = draw(st.lists(_token, min_size=1, max_size=12))
    else:
        tokens = _expr_tokens(draw, 3)
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(tokens)))
            edit = draw(_edit)
            new = [draw(_token)] if edit != "delete" else []
            tokens[i:i + (edit != "insert")] = new
    return "=" + " ".join(tokens)


def _outcome(parse, text):
    try:
        return parse(text)
    except FormulaError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(_token_strings())
def test_parser_agrees_with_the_recursive_descent_oracle(text):
    expected = _outcome(parser_oracle.parse_formula, text)
    assume(not str(expected).startswith("formula nested too deeply to parse"))
    assert _outcome(parse_formula, text) == expected
