"""Excel-style formula language: tokenizer, operator-precedence parser, AST, renderer.

Grammar (whitespace-insensitive, function names case-insensitive):

    formula := "=" expr | "-"? number
    expr    := operand (binop operand)*
    operand := "-"* (number | cellref | call | "(" expr ")")
    call    := name "(" arg ("," arg)* ")"
    arg     := expr | cellref ":" cellref

The binary operators bind by _PRECEDENCE, loosest first: the comparisons
= <> < <= > >=, then + -, then * /, then ^. Each is left-associative, and
an expr holds at most one comparison. Unary minus binds tighter than every
binary operator, so -2^2 is (-2)^2.

A range may stand only where FUNCTIONS allows: in SUM, AVERAGE, MIN, MAX and
NPV's cashflows; IRR's cashflows must be a range, and LOOKUP's table a range of
two columns. An argument of the wrong shape is a FormulaError at its position.
So is a number beyond the float range.

A formula may nest at most MAX_DEPTH levels, where a level is a
parenthesis or a call argument the parser enters, or a node on one path
from the AST's root to a leaf. Parsing, compiling, evaluating and rendering
each take one Python frame a level, so every formula that parses runs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .cells import CellRef, parse_cell


class FormulaError(ValueError):
    """Parse failure with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# AST nodes

@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Ref:
    cell: CellRef


@dataclass(frozen=True)
class RangeRef:
    start: CellRef
    end: CellRef

    def cells(self):
        """All cells of the rectangle in row-major order."""
        r0, r1 = sorted((self.start.row, self.end.row))
        c0, c1 = sorted((self.start.col, self.end.col))
        return [CellRef(c, r) for r in range(r0, r1 + 1) for c in range(c0, c1 + 1)]

    @property
    def n_cols(self) -> int:
        return abs(self.start.col - self.end.col) + 1


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^ = <> < <= > >=
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str  # canonical upper-case
    args: tuple  # of Node | RangeRef


Node = Lit | Ref | Neg | Bin | Call

# the most levels a formula nests: a sum of 500 terms is 500 nodes deep, and
# 499 parentheses around a cell are 500 levels of parsing
MAX_DEPTH = 500

# binary operators, loosest first; the parser and the renderer both read it
_PRECEDENCE = {"=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
               "+": 2, "-": 2, "*": 3, "/": 3, "^": 4}

# name -> (min arity, max arity or None for variadic, argument shapes).
# The shapes go by position, the last one repeating: "x" a number, "a" a
# number or a range, "r" a range, "t" a range of two columns.
FUNCTIONS = {
    "IF": (3, 3, "xxx"),
    "SUM": (1, None, "a"),
    "AVERAGE": (1, None, "a"),
    "MIN": (1, None, "a"),
    "MAX": (1, None, "a"),
    "ABS": (1, 1, "x"),
    "SQRT": (1, 1, "x"),
    "LN": (1, 1, "x"),
    "EXP": (1, 1, "x"),
    "NPV": (2, None, "xa"),
    "IRR": (1, 2, "rx"),
    "LOOKUP": (3, 3, "xtx"),
}
_NEEDS = {"r": "a range of cashflows", "t": "a two-column range"}


# ---------------------------------------------------------------------------
# Tokenizer

_NUMBER = r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
_BARE_RE = re.compile(rf"-?(?:{_NUMBER})")  # a cell's literal without "="
_TOKEN_RE = re.compile(
    rf"""
    (?P<number>{_NUMBER})
    | (?P<ident>[A-Za-z]+[0-9]*)
    | (?P<op><>|<=|>=|[=<>+\-*/^(),:]|−)
    | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str, offset: int = 0):
    tokens = []  # (kind, value, position in the original formula text)
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FormulaError(f"unexpected character {text[pos]!r}", pos + offset)
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            if kind == "op" and value == "−":
                value = "-"
            tokens.append((kind, value, pos + offset))
        pos = m.end()
    tokens.append(("eof", "", len(text) + offset))
    return tokens


_CELLREF_RE = re.compile(r"^[A-Za-z]{1,2}[1-9][0-9]*$")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.peek()
        if val != value:
            raise FormulaError(f"expected {value!r}", pos)
        return self.next()

    def parse_expr(self, level: int = 1) -> Node:
        """The expr that starts here, `level` levels deep.

        Operands and binary operators go on two stacks. An operator is
        reduced when one of no tighter precedence follows it, and all are
        reduced at the first token that cannot continue the expr, such as
        a second comparison. Only a parenthesis or a call argument
        recurses, one level deeper.
        """
        if level > MAX_DEPTH:
            raise FormulaError(f"formula nested more than {MAX_DEPTH} levels deep",
                               self.peek()[2])
        operands, ops, compared = [], [], False
        while True:
            minuses = 0
            while self.peek()[1] == "-":
                self.next()
                minuses += 1
            kind, val, pos = self.next()
            if kind == "number":
                node = _literal(val, float(val), pos)
            elif kind == "ident" and _CELLREF_RE.match(val):
                node = Ref(parse_cell(val))
            elif kind == "ident":
                name = val.upper()
                if self.peek()[1] != "(":
                    raise FormulaError(f"expected '(' after function name {name}",
                                       self.peek()[2])
                if name not in FUNCTIONS:
                    raise FormulaError(f"unknown function {name}", pos)
                args, starts = [], []
                while not args or self.peek()[1] == ",":
                    self.next()  # "(" or ","
                    k, v, p = self.peek()
                    starts.append(p)
                    if (k == "ident" and _CELLREF_RE.match(v)
                            and self.tokens[self.i + 1][1] == ":"):
                        k2, v2, p2 = self.tokens[self.i + 2]
                        if k2 != "ident" or not _CELLREF_RE.match(v2):
                            raise FormulaError("expected cell address after ':'", p2)
                        self.i += 3
                        args.append(RangeRef(parse_cell(v), parse_cell(v2)))
                    else:
                        args.append(self.parse_expr(level + 1))
                self.expect(")")
                node = _checked_call(name, pos, args, starts)
            elif val == "(":
                node = self.parse_expr(level + 1)
                self.expect(")")
            else:
                raise FormulaError("expected expression", pos)
            for _ in range(minuses):
                node = Neg(node)
            operands.append(node)

            op = self.peek()[1]
            prec = _PRECEDENCE.get(op, 0)
            if compared and prec == 1:  # comparisons do not chain
                prec = 0
            while ops and _PRECEDENCE[ops[-1]] >= prec:
                right = operands.pop()
                operands.append(Bin(ops.pop(), operands.pop(), right))
            if not prec:
                return operands.pop()
            self.next()
            ops.append(op)
            compared = compared or prec == 1


def _literal(text: str, value: float, position: int) -> Lit:
    """The Lit of a number; one that reads as inf or nan is an error."""
    if not math.isfinite(value):
        raise FormulaError(f"{text} is beyond the float range", position)
    return Lit(value)


def _checked_call(name: str, position: int, args: list, starts: list) -> Call:
    """The call, once its arity and the shape of each argument (which
    starts at starts[i]) are checked against FUNCTIONS."""
    lo, hi, shapes = FUNCTIONS[name]
    if len(args) < lo or (hi is not None and len(args) > hi):
        raise FormulaError(
            f"{name} takes {lo}{'' if hi == lo else ('+' if hi is None else f'..{hi}')}"
            f" arguments, got {len(args)}",
            position,
        )
    for i, (arg, start) in enumerate(zip(args, starts)):
        shape = shapes[min(i, len(shapes) - 1)]
        is_range = isinstance(arg, RangeRef)
        if shape == "x" and is_range:
            raise FormulaError(f"{name} takes no range as argument {i + 1}", start)
        if shape in _NEEDS and not (is_range and (shape == "r" or arg.n_cols == 2)):
            raise FormulaError(f"{name} needs {_NEEDS[shape]}", start)
    return Call(name, tuple(args))


def parse_formula(text: str) -> Node:
    """Parse a formula ("=...") or a bare numeric literal into an AST."""
    stripped = text.strip()
    if stripped.startswith("="):
        offset = text.index("=") + 1
        p = _Parser(_tokenize(stripped[1:], offset))
        node = p.parse_expr()
        kind, val, pos = p.peek()
        if kind != "eof":
            raise FormulaError(f"unexpected token {val!r}", pos)
        if _depth(node) > MAX_DEPTH:
            raise FormulaError(f"formula nested more than {MAX_DEPTH} levels deep", offset)
        return node
    if not _BARE_RE.fullmatch(stripped):
        raise FormulaError("expected '=' formula or numeric literal", 0)
    return _literal(stripped, float(stripped), len(text) - len(text.lstrip()))


# ---------------------------------------------------------------------------
# Rendering (canonical text; reparses to an equal AST)

def _render(node, parent_prec: int, right_side: bool) -> str:
    if isinstance(node, Lit):
        v = node.value
        text = repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
        return text
    if isinstance(node, Ref):
        return str(node.cell)
    if isinstance(node, RangeRef):
        return f"{node.start}:{node.end}"
    if isinstance(node, Neg):
        inner = _render(node.operand, 5, False)
        text = f"-{inner}"
        return f"({text})" if parent_prec >= 4 else text
    if isinstance(node, Bin):
        prec = _PRECEDENCE[node.op]
        # comparisons are non-associative: parenthesize equal-precedence
        # children on both sides
        left = _render(node.left, prec, prec == 1)
        right = _render(node.right, prec, True)
        text = f"{left}{node.op}{right}"
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({text})"
        return text
    if isinstance(node, Call):
        args = []
        for a in node.args:  # a loop, as a generator would add a frame a level
            args.append(_render(a, 0, False))
        return f"{node.name}({','.join(args)})"
    raise TypeError(f"not an AST node: {node!r}")


def render_formula(node: Node) -> str:
    """Render an AST back to formula text; parse(render(x)) == x."""
    return "=" + _render(node, 0, False)


def _children(node) -> tuple:
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Bin):
        return (node.left, node.right)
    if isinstance(node, Call):
        return node.args
    return ()


def _depth(node) -> int:
    """The most nodes on one path from node to a leaf."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        n, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((c, d + 1) for c in _children(n))
    return deepest


def referenced_cells(node) -> set:
    """Every cell a formula reads, with ranges expanded."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Ref):
            out.add(n.cell)
        elif isinstance(n, RangeRef):
            out.update(n.cells())
        else:
            stack.extend(_children(n))
    return out
