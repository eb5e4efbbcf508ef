"""Reference evaluator: one trial at a time, a tree of closures over a dict.

This is the per-trial interpreter gridmc used before its columnar
evaluator, kept as the oracle the columnar one is tested against. Each
cell's AST compiles to a closure over the CellRef -> value map; the first
EvalFailure raised in topological order ends the trial. The one change
from that interpreter is shared with the package: SUM and AVERAGE go
through functions.fsum, so an fsum overflow is a DomainError, not a
Python exception.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from gridmc import functions as fn
from gridmc.formula import Bin, Call, FormulaError, Lit, Neg, RangeRef, Ref
from gridmc.functions import ErrorKind, EvalFailure
from gridmc.model import CalcError, EvalResult, Model


class Oracle:
    """A model's cells compiled to closures."""

    def __init__(self, model: Model):
        self.model = model
        self.compiled = {ref: _compile(d.ast) for ref, d in model.defs.items()}

    def evaluate(self, overrides: Optional[dict] = None) -> EvalResult:
        overrides = overrides or {}
        for ref in overrides:
            if ref not in self.model.defs:
                raise KeyError(f"override targets unknown cell {ref}")
        values = {}
        for ref in self.model.order:
            if ref in overrides:
                values[ref] = float(overrides[ref])
                continue
            try:
                value = self.compiled[ref](values)
            except EvalFailure as exc:
                return CalcError(exc.kind, ref, exc.detail)
            if not math.isfinite(value):
                return CalcError(ErrorKind.DOMAIN_ERROR, ref, f"non-finite result {value!r}")
            values[ref] = value
        return values


def _flatten(parts):
    out = []
    for p in parts:
        if isinstance(p, list):
            out.extend(p)
        else:
            out.append(p)
    return out


def _compile(node) -> Callable:
    if isinstance(node, Lit):
        v = node.value
        return lambda values: v
    if isinstance(node, Ref):
        cell = node.cell
        return lambda values: values[cell]
    if isinstance(node, Neg):
        f = _compile(node.operand)
        return lambda values: -f(values)
    if isinstance(node, Bin):
        return _compile_bin(node)
    if isinstance(node, Call):
        return _compile_call(node)
    raise TypeError(f"cannot compile {node!r}")


def _compile_arg(node) -> Callable:
    # Range arguments yield a list of values in row-major order.
    if isinstance(node, RangeRef):
        cells = node.cells()
        return lambda values: [values[c] for c in cells]
    return _compile(node)


def _compile_bin(node: Bin) -> Callable:
    lf, rf = _compile(node.left), _compile(node.right)
    op = node.op
    if op == "+":
        return lambda v: lf(v) + rf(v)
    if op == "-":
        return lambda v: lf(v) - rf(v)
    if op == "*":
        return lambda v: lf(v) * rf(v)
    if op == "/":
        def div(v):
            d = rf(v)
            if d == 0.0:
                raise EvalFailure(ErrorKind.DIV_BY_ZERO, "division by zero")
            return lf(v) / d
        return div
    if op == "^":
        def power(v):
            base, exp = lf(v), rf(v)
            if base == 0.0 and exp < 0.0:
                raise EvalFailure(ErrorKind.DOMAIN_ERROR, "0 raised to a negative power")
            try:
                result = base ** exp
            except (ValueError, OverflowError) as e:
                raise EvalFailure(ErrorKind.DOMAIN_ERROR, f"{base}^{exp}: {e}") from None
            if isinstance(result, complex):
                raise EvalFailure(
                    ErrorKind.DOMAIN_ERROR, f"{base}^{exp} is not a real number")
            return result
        return power
    if op == "=":
        return lambda v: 1.0 if lf(v) == rf(v) else 0.0
    if op == "<>":
        return lambda v: 1.0 if lf(v) != rf(v) else 0.0
    if op == "<":
        return lambda v: 1.0 if lf(v) < rf(v) else 0.0
    if op == "<=":
        return lambda v: 1.0 if lf(v) <= rf(v) else 0.0
    if op == ">":
        return lambda v: 1.0 if lf(v) > rf(v) else 0.0
    if op == ">=":
        return lambda v: 1.0 if lf(v) >= rf(v) else 0.0
    raise ValueError(f"unknown operator {op}")


def _compile_call(node: Call) -> Callable:
    name = node.name
    if name == "IF":
        cf, tf, ff = (_compile(a) for a in node.args)
        return lambda v: tf(v) if cf(v) != 0.0 else ff(v)
    if name in ("SUM", "AVERAGE", "MIN", "MAX"):
        arg_fns = [_compile_arg(a) for a in node.args]
        if name == "SUM":
            return lambda v: fn.fsum(_flatten([f(v) for f in arg_fns]))
        if name == "AVERAGE":
            def average(v):
                xs = _flatten([f(v) for f in arg_fns])
                return fn.fsum(xs) / len(xs)
            return average
        reducer = min if name == "MIN" else max
        return lambda v: reducer(_flatten([f(v) for f in arg_fns]))
    if name == "ABS":
        f = _compile(node.args[0])
        return lambda v: abs(f(v))
    if name == "SQRT":
        f = _compile(node.args[0])

        def sqrt(v):
            x = f(v)
            if x < 0.0:
                raise EvalFailure(ErrorKind.DOMAIN_ERROR, f"square root of {x}")
            return math.sqrt(x)
        return sqrt
    if name == "LN":
        f = _compile(node.args[0])

        def ln(v):
            x = f(v)
            if x <= 0.0:
                raise EvalFailure(ErrorKind.DOMAIN_ERROR, f"log of {x}")
            return math.log(x)
        return ln
    if name == "EXP":
        f = _compile(node.args[0])

        def exp(v):
            try:
                return math.exp(f(v))
            except OverflowError:
                raise EvalFailure(ErrorKind.DOMAIN_ERROR, "EXP overflow") from None
        return exp
    if name == "NPV":
        rate_fn = _compile(node.args[0])
        flow_fns = [_compile_arg(a) for a in node.args[1:]]
        return lambda v: fn.npv(rate_fn(v), _flatten([f(v) for f in flow_fns]))
    if name == "IRR":
        flow_fn = _compile_arg(node.args[0])
        guess_fn = _compile(node.args[1]) if len(node.args) == 2 else None

        def irr_call(v):
            flows = flow_fn(v)
            if not isinstance(flows, list):
                raise EvalFailure(ErrorKind.DOMAIN_ERROR, "IRR needs a range of cashflows")
            guess = guess_fn(v) if guess_fn else 0.1
            return fn.irr(flows, guess)
        return irr_call
    if name == "LOOKUP":
        key_fn = _compile(node.args[0])
        table_arg = node.args[1]
        if not isinstance(table_arg, RangeRef) or table_arg.n_cols != 2:
            raise FormulaError("LOOKUP needs a two-column range", 0)
        rows = [table_arg.cells()[i:i + 2] for i in range(0, len(table_arg.cells()), 2)]
        mode_fn = _compile(node.args[2])

        def lookup_call(v):
            mode = "step" if mode_fn(v) != 0.0 else "exact"
            table = [(v[a], v[b]) for a, b in rows]
            return fn.lookup(table, key_fn(v), mode)
        return lookup_call
    raise ValueError(f"unknown function {name}")
