"""Reference parser: gridmc's recursive-descent parser before the
operator-stack one, kept as the oracle the new parser is tested against.

`_Parser` and `parse_formula` are that parser's code unchanged. It spends up
to eight Python frames per nesting level, so a formula nested past Python's
recursion limit is "formula nested too deeply to parse" here; the current
parser reads those formulas up to MAX_DEPTH levels. It also reads a number
beyond the float range as Lit(inf), which the current parser rejects.
"""

from __future__ import annotations

from gridmc.cells import parse_cell
from gridmc.formula import (
    _CELLREF_RE,
    _NEEDS,
    FUNCTIONS,
    MAX_DEPTH,
    Bin,
    Call,
    FormulaError,
    Lit,
    Neg,
    Node,
    RangeRef,
    Ref,
    _depth,
    _tokenize,
)


class _Parser:
    def __init__(self, text: str, tokens):
        self.text = text
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

    def fail(self, expected: str):
        kind, val, pos = self.peek()
        raise FormulaError(f"expected {expected}", pos)

    # grammar rules -----------------------------------------------------

    def parse_expr(self) -> Node:
        left = self.parse_add()
        kind, val, _ = self.peek()
        if val in ("=", "<>", "<", "<=", ">", ">="):
            self.next()
            right = self.parse_add()
            return Bin(val, left, right)
        return left

    def parse_add(self) -> Node:
        node = self.parse_mul()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = Bin(op, node, self.parse_mul())
        return node

    def parse_mul(self) -> Node:
        node = self.parse_pow()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            node = Bin(op, node, self.parse_pow())
        return node

    def parse_pow(self) -> Node:
        node = self.parse_unary()
        while self.peek()[1] == "^":
            self.next()
            node = Bin("^", node, self.parse_unary())
        return node

    def parse_unary(self) -> Node:
        if self.peek()[1] == "-":
            self.next()
            return Neg(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Node:
        kind, val, pos = self.peek()
        if kind == "number":
            self.next()
            return Lit(float(val))
        if kind == "ident":
            return self.parse_ident()
        if val == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        self.fail("expression")

    def parse_ident(self) -> Node:
        kind, val, pos = self.next()
        if _CELLREF_RE.match(val):
            return Ref(parse_cell(val))
        name = val.upper()
        if self.peek()[1] != "(":
            raise FormulaError(f"expected '(' after function name {name}", self.peek()[2])
        if name not in FUNCTIONS:
            raise FormulaError(f"unknown function {name}", pos)
        args, starts = [], []
        while not args or self.peek()[1] == ",":
            self.next()  # "(" or ","
            starts.append(self.peek()[2])
            args.append(self.parse_arg())
        self.expect(")")
        lo, hi, shapes = FUNCTIONS[name]
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise FormulaError(
                f"{name} takes {lo}{'' if hi == lo else ('+' if hi is None else f'..{hi}')}"
                f" arguments, got {len(args)}",
                pos,
            )
        for i, (arg, start) in enumerate(zip(args, starts)):
            shape = shapes[min(i, len(shapes) - 1)]
            is_range = isinstance(arg, RangeRef)
            if shape == "x" and is_range:
                raise FormulaError(f"{name} takes no range as argument {i + 1}", start)
            if shape in _NEEDS and not (is_range and (shape == "r" or arg.n_cols == 2)):
                raise FormulaError(f"{name} needs {_NEEDS[shape]}", start)
        return Call(name, tuple(args))

    def parse_arg(self):
        # A range is only valid here (cellref ":" cellref); parse_ident checks its place.
        kind, val, pos = self.peek()
        if kind == "ident" and _CELLREF_RE.match(val) and self.tokens[self.i + 1][1] == ":":
            self.next()
            self.next()  # ":"
            kind2, val2, pos2 = self.next()
            if kind2 != "ident" or not _CELLREF_RE.match(val2):
                raise FormulaError("expected cell address after ':'", pos2)
            return RangeRef(parse_cell(val), parse_cell(val2))
        return self.parse_expr()


def parse_formula(text: str) -> Node:
    """Parse a formula ("=...") or a bare numeric literal into an AST."""
    stripped = text.strip()
    if stripped.startswith("="):
        body = stripped[1:]
        offset = text.index("=") + 1
        tokens = _tokenize(body, offset)
        p = _Parser(body, tokens)
        try:
            node = p.parse_expr()
        except RecursionError:
            raise FormulaError("formula nested too deeply to parse", p.peek()[2]) from None
        kind, val, pos = p.peek()
        if kind != "eof":
            raise FormulaError(f"unexpected token {val!r}", pos)
        if _depth(node) > MAX_DEPTH:
            raise FormulaError(f"formula nested more than {MAX_DEPTH} levels deep", offset)
        return node
    try:
        return Lit(float(stripped))
    except ValueError:
        raise FormulaError("expected '=' formula or numeric literal", 0) from None

