"""Cell model: build the dependency DAG and evaluate it deterministically.

Calculation errors are values (CalcError), not exceptions; evaluation
stops at the first failing cell in topological order so an error trial
is always reproducible.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from . import functions as fn
from .cells import CellRef, parse_cell
from .formula import (
    Bin,
    Call,
    FormulaError,
    Lit,
    Neg,
    RangeRef,
    Ref,
    parse_formula,
    referenced_cells,
)
from .functions import ErrorKind, EvalFailure


@dataclass(frozen=True)
class CalcError:
    kind: ErrorKind
    cell: CellRef
    detail: str

    def __str__(self) -> str:
        return f"{self.kind.value} at {self.cell}: {self.detail}"


class ModelBuildError(ValueError):
    """Model construction failure; carries every diagnostic found."""

    def __init__(self, diagnostics: list):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class CellDef:
    ref: CellRef
    label: Optional[str]
    source: str
    ast: object


@dataclass
class Model:
    """Immutable after build_model; evaluate() is pure and reentrant."""

    defs: dict  # CellRef -> CellDef, insertion order = definition order
    order: list  # topological evaluation order
    labels: dict  # label -> CellRef
    _compiled: dict = field(default_factory=dict, repr=False)

    def cell_by_name(self, name: str) -> CellRef:
        """Resolve a label or an A1 address to a cell of the model."""
        if name in self.labels:
            return self.labels[name]
        ref = parse_cell(name)
        if ref not in self.defs:
            raise KeyError(f"unknown cell {name}")
        return ref

    def label_of(self, ref: CellRef) -> str:
        d = self.defs[ref]
        return d.label if d.label else str(ref)

    def precedents(self, ref: CellRef) -> list:
        """Direct precedent cells of a formula, in row-major order."""
        return sorted(referenced_cells(self.defs[ref].ast), key=lambda c: c.row_major_key)


EvalResult = Union[dict, CalcError]


def build_model(cell_defs) -> Model:
    """Build a Model from (address, label, formula-text) triples.

    Collects every parse error and undefined reference before failing;
    a cycle is reported with one full path.
    """
    defs = {}
    labels = {}
    diagnostics = []
    for entry in cell_defs:
        address, label, source = entry
        ref = address if isinstance(address, CellRef) else parse_cell(address)
        if ref in defs:
            diagnostics.append(f"{ref}: defined twice")
            continue
        try:
            ast = parse_formula(str(source))
        except FormulaError as exc:
            diagnostics.append(f"{ref}: {exc}")
            continue
        if label:
            if label in labels:
                diagnostics.append(f"{ref}: duplicate label {label!r}")
            labels[label] = ref
        defs[ref] = CellDef(ref, label, str(source), ast)

    deps = {}
    for ref, d in defs.items():
        prec = referenced_cells(d.ast)
        missing = sorted((p for p in prec if p not in defs), key=lambda c: c.row_major_key)
        for p in missing:
            diagnostics.append(f"{ref}: RefError, references undefined cell {p}")
        deps[ref] = {p for p in prec if p in defs}
    if diagnostics:
        raise ModelBuildError(diagnostics)

    order = _topo_order(deps)
    if order is None:
        raise ModelBuildError([f"cycle detected: {_find_cycle(deps)}"])

    model = Model(defs=defs, order=order, labels=labels)
    for ref, d in defs.items():
        model._compiled[ref] = _compile(d.ast)
    return model


def _topo_order(deps):
    """Kahn's algorithm; ties broken by row-major cell address."""
    remaining = {ref: set(ps) for ref, ps in deps.items()}
    dependents = {ref: [] for ref in deps}
    for ref, ps in deps.items():
        for p in ps:
            dependents[p].append(ref)
    ready = [ref.row_major_key + (ref,) for ref, ps in remaining.items() if not ps]
    heapq.heapify(ready)
    order = []
    while ready:
        *_, ref = heapq.heappop(ready)
        order.append(ref)
        for dep in dependents[ref]:
            remaining[dep].discard(ref)
            if not remaining[dep]:
                heapq.heappush(ready, dep.row_major_key + (dep,))
    if len(order) != len(deps):
        return None
    return order


def _find_cycle(deps):
    state = {}  # 0 visiting, 1 done

    def visit(node, path):
        state[node] = 0
        path.append(node)
        for p in sorted(deps[node], key=lambda c: c.row_major_key):
            if state.get(p) == 0:
                cycle = path[path.index(p):] + [p]
                return "->".join(str(c) for c in cycle)
            if p not in state:
                found = visit(p, path)
                if found:
                    return found
        path.pop()
        state[node] = 1
        return None

    for node in sorted(deps, key=lambda c: c.row_major_key):
        if node not in state:
            found = visit(node, [])
            if found:
                return found
    return "no cycle"


def evaluate(model: Model, overrides: Optional[dict] = None, order=None) -> EvalResult:
    """Evaluate every cell; overridden cells take the override verbatim.

    Returns the full CellRef -> value map, or the first CalcError in
    topological order. A computed inf or nan is a DOMAIN_ERROR at the
    cell that produced it.
    """
    overrides = overrides or {}
    for ref in overrides:
        if ref not in model.defs:
            raise KeyError(f"override targets unknown cell {ref}")
    values = {}
    for ref in order if order is not None else model.order:
        if ref in overrides:
            values[ref] = float(overrides[ref])
            continue
        try:
            value = model._compiled[ref](values)
        except EvalFailure as exc:
            return CalcError(exc.kind, ref, exc.detail)
        if not math.isfinite(value):
            return CalcError(ErrorKind.DOMAIN_ERROR, ref, f"non-finite result {value!r}")
        values[ref] = value
    return values


# ---------------------------------------------------------------------------
# AST -> closure compilation

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
            return lambda v: math.fsum(_flatten([f(v) for f in arg_fns]))
        if name == "AVERAGE":
            def average(v):
                xs = _flatten([f(v) for f in arg_fns])
                return math.fsum(xs) / len(xs)
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
        rows = [table_arg.cells()[i:i + 2] for i in range(0, 2 * table_arg.n_rows, 2)]
        mode_fn = _compile(node.args[2])
        def lookup_call(v):
            mode = "step" if mode_fn(v) != 0.0 else "exact"
            table = [(v[a], v[b]) for a, b in rows]
            return fn.lookup(table, key_fn(v), mode)
        return lookup_call
    raise ValueError(f"unknown function {name}")
