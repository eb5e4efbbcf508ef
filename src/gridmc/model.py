"""Cell model: build the dependency DAG and evaluate it over columns.

A Model numbers its cells by their place in the topological order,
their slots, and compiles each cell's formula once into a function of
the columns computed so far: a reference reads its cell's slot and a
range the list of its cells' slots. `evaluate_batch` runs n
trials through the model's program, one (slot, cell, function) entry
per cell in order, over a plain list of columns: every value in a pass,
constants included, is a float64 column with one entry per trial, and
no cell is looked up by its CellRef until the values leave the pass.
Each literal reads its row of one read-only block that the pass makes
at its start, one row per distinct bit pattern, so -0.0 and 0.0 keep
rows of their own. `evaluate` is the same pass over a single trial.

Calculation errors are values (CalcError), not exceptions. A failing
sub-expression records (kind, detail) for the rows still live and takes
them out of the pass, so later sub-expressions cannot overwrite a row's
first error, and IF evaluates each branch only on the rows that take
it. Sub-expressions run in the order a one-trial evaluation runs them,
so each row's recorded error is the one that evaluation stops at.

Values are bit-identical to evaluating each trial with Python floats:
+ - * /, the comparisons, ABS, SQRT, MIN, MAX and NPV are numpy
operations that round exactly as the scalar ones do. SUM and AVERAGE
are math.fsum's correctly rounded sum: a Sum2 cascade of error-free
transformations on the columns gives it wherever its result is proved,
and math.fsum itself runs on the other live rows (zero sums, sums near
the float range, inf and nan, and the rare row neither proof covers).
`^`, EXP, LN, IRR and LOOKUP run the scalar Python code row by row over
the live rows, because numpy's power, exp and log may differ from `**`,
`math.exp` and `math.log` in the last bit.
"""

from __future__ import annotations

import heapq
import math
import operator
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from . import functions as fn
from .cells import CellRef, parse_cell
from .formula import (
    Bin,
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
    """Immutable after build_model; evaluation is pure and reentrant.

    The program is compiled from `order` whenever a Model is made, so
    `dataclasses.replace(model, order=alt)` evaluates in `alt`."""

    defs: dict  # CellRef -> CellDef, insertion order = definition order
    order: list  # topological evaluation order
    labels: dict  # label -> CellRef
    _reads: dict = field(default_factory=dict, repr=False)  # CellRef -> precedents
    _slots: dict = field(init=False, repr=False, compare=False)  # CellRef -> slot
    _program: list = field(init=False, repr=False, compare=False)  # (slot, cell, fn)
    _literals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._slots = {ref: slot for slot, ref in enumerate(self.order)}
        literals = {}  # bit pattern -> row of the literal block
        self._program = [(slot, ref, _compile(self.defs[ref].ast, self._slots, literals))
                         for slot, ref in enumerate(self.order)]
        self._literals = np.frombuffer(b"".join(literals), dtype="<f8")

    def cell_by_name(self, name: str, forecasts=()) -> CellRef:
        """The one cell a name means: the label of one of `forecasts`, a cell
        label, or a defined cell's A1 address in any letter case. A name that
        means no cell, or two, is a KeyError; see build_model and
        simulate.check_labels."""
        cells = {f.cell for f in forecasts if f.label == name}
        if name in self.labels:
            cells.add(self.labels[name])
        try:
            ref = parse_cell(name)
        except ValueError:
            ref = None
        if ref in self.defs:
            cells.add(ref)
        if len(cells) == 1:
            return cells.pop()
        if cells:
            listed = ", ".join(map(str, sorted(cells)))
            raise KeyError(f"{name!r} names {len(cells)} cells: {listed}")
        raise KeyError(f"unknown cell {name}" if ref else f"unknown cell or label {name!r}")

    def label_of(self, ref: CellRef) -> str:
        d = self.defs[ref]
        return d.label if d.label else str(ref)

    def precedents(self, ref: CellRef) -> list:
        """Direct precedent cells of a formula, in row-major order."""
        return sorted(self._reads[ref])


EvalResult = Union[dict, CalcError]


@dataclass
class Batch:
    """Result of evaluating n trials in one pass."""

    values: dict  # CellRef -> float64 array of n values
    errors: dict  # row -> CalcError, the first error of each failed row


def build_model(cell_defs) -> Model:
    """Build a Model from (address, label, formula-text) triples.

    Collects every parse error and undefined reference before failing;
    then a cycle is reported with one full path, and then the first label
    that spells another defined cell's address.
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
        for p in sorted(p for p in prec if p not in defs):
            diagnostics.append(f"{ref}: RefError, references undefined cell {p}")
        deps[ref] = {p for p in prec if p in defs}
    if diagnostics:
        raise ModelBuildError(diagnostics)

    order = _topo_order(deps)
    if order is None:
        raise ModelBuildError([f"cycle detected: {_find_cycle(deps)}"])

    model = Model(defs=defs, order=order, labels=labels, _reads=deps)
    for label in labels:  # a label that spells another defined cell's address
        try:
            model.cell_by_name(label)
        except KeyError as exc:
            raise ModelBuildError([f"label {exc.args[0]}"]) from None
    return model


def _topo_order(deps):
    """Kahn's algorithm; ties broken by row-major cell address."""
    remaining = {ref: set(ps) for ref, ps in deps.items()}
    dependents = {ref: [] for ref in deps}
    for ref, ps in deps.items():
        for p in ps:
            dependents[p].append(ref)
    # (row, col, ref): integer keys compare faster than CellRef.__lt__
    ready = [(ref.row, ref.col, ref) for ref, ps in remaining.items() if not ps]
    heapq.heapify(ready)
    order = []
    while ready:
        *_, ref = heapq.heappop(ready)
        order.append(ref)
        for dep in dependents[ref]:
            remaining[dep].discard(ref)
            if not remaining[dep]:
                heapq.heappush(ready, (dep.row, dep.col, dep))
    if len(order) != len(deps):
        return None
    return order


def _find_cycle(deps):
    """One cycle's path, from the depth-first walk in row-major order:
    iterative, so a cycle through any number of cells is found."""
    state = {}  # 0 on the path, 1 done
    for root in sorted(deps):
        if root in state:
            continue
        state[root] = 0
        path, pending = [root], [iter(sorted(deps[root]))]
        while pending:
            for p in pending[-1]:
                if state.get(p) == 0:
                    return "->".join(str(c) for c in path[path.index(p):] + [p])
                if p not in state:
                    state[p] = 0
                    path.append(p)
                    pending.append(iter(sorted(deps[p])))
                    break
            else:
                state[path.pop()] = 1
                pending.pop()
    return "no cycle"


def evaluate_batch(model: Model, columns: dict, n: int) -> Batch:
    """Evaluate n trials in one pass; overridden cells take their column verbatim.

    columns maps cells to float arrays of length n. Each cell is computed
    for all rows in topological order; a row's first error in that order
    is kept in Batch.errors and the row takes no further part. A computed
    inf or nan is a DOMAIN_ERROR at the cell that produced it.
    """
    ps = _run_pass(model, columns, n)
    return Batch(dict(zip(model.order, ps.values)), ps.errors)


def evaluate(model: Model, overrides: Optional[dict] = None) -> EvalResult:
    """Evaluate one trial: the full CellRef -> value map, or its first
    CalcError in topological order."""
    columns = {ref: np.array([float(v)]) for ref, v in (overrides or {}).items()}
    ps = _run_pass(model, columns, 1)
    if ps.errors:
        return ps.errors[0]
    return dict(zip(model.order, np.concatenate(ps.values).tolist()))


def _run_pass(model: Model, columns: dict, n: int) -> _Pass:
    """The pass of evaluate_batch: every slot's column, and the first errors."""
    ps = _Pass(n, model._literals, len(model.order))
    values = ps.values
    for ref, column in columns.items():
        slot = model._slots.get(ref)
        if slot is None:
            raise KeyError(f"override targets unknown cell {ref}")
        values[slot] = np.asarray(column, dtype=float)
    with np.errstate(all="ignore"):
        for slot, cell, f in model._program:
            if values[slot] is not None:  # overridden
                continue
            ps.cell = cell
            value = f(ps, None)
            # a finite sum proves every entry finite; an inf or nan in a
            # dead row, or a sum that overflows, looks at the rows
            if not math.isfinite(value.sum()):
                ps.fail(None, ~np.isfinite(value), ErrorKind.DOMAIN_ERROR,
                        lambda i: f"non-finite result {float(value[i])!r}")
            values[slot] = value
    return ps


class _Pass:
    """Columns, live rows and first errors of one evaluation pass."""

    def __init__(self, n: int, literals: np.ndarray, cells: int):
        self.n = n
        self.values = [None] * cells  # slot -> column
        # row i: literal i in every trial; a read-only block, as the columns
        # of literal cells leave the pass in Batch.values
        self.literals = np.empty((len(literals), n))
        self.literals[:] = literals[:, None]
        self.literals.flags.writeable = False
        self.alive = np.ones(n, dtype=bool)  # rows with no error yet
        self.errors = {}  # row -> CalcError
        self.cell = None  # the cell being computed

    def live(self, rows):
        """Live rows among `rows` (a mask, or None for every row)."""
        return self.alive if rows is None else rows & self.alive

    def fail(self, rows, bad, kind: ErrorKind, detail) -> None:
        """Record (kind, detail) for the live rows of `rows` where `bad`
        holds, and take them out of the pass. `detail` is a string or a
        function of the row index."""
        hit = self.live(rows) & bad
        if not hit.any():
            return
        for i in np.flatnonzero(hit).tolist():
            self.fail_row(i, kind, detail(i) if callable(detail) else detail)

    def fail_row(self, i: int, kind: ErrorKind, detail: str) -> None:
        self.errors[i] = CalcError(kind, self.cell, detail)
        self.alive[i] = False


def _rowwise(ps: _Pass, rows, scalar_fn, *args):
    """scalar_fn over the live rows, on Python floats; an EvalFailure
    becomes that row's error."""
    idx = np.flatnonzero(ps.live(rows)).tolist()
    results = []
    for i, row in zip(idx, zip(*(a[idx].tolist() for a in args))):
        try:
            results.append(scalar_fn(*row))
        except EvalFailure as exc:
            ps.fail_row(i, exc.kind, exc.detail)
            results.append(math.nan)
    out = np.full(ps.n, math.nan)
    out[idx] = results
    return out


def _two_sum(a, b):
    """fl(a + b) and its exact rounding error (Knuth's TwoSum), elementwise;
    exact wherever the sum does not overflow."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _certified_sum(cols) -> tuple:
    """Sum2 (Ogita, Rump & Oishi, 2005) of each row of `cols`, and the mask
    of rows where it is proved to be the correctly rounded sum, which is
    what math.fsum returns (Shewchuk, 1997).

    A TwoSum cascade leaves the float sum s and k - 1 exact errors, so the
    exact sum is s + Σerr. res = fl(s + e), where e is the float sum of the
    errors. A row is proved in either of two ways:
    - The errors sum exactly. Every input, partial sum and error is a
      multiple of q, the ulp of the smallest nonzero |x|, so every partial
      sum of errors is a float while Σ|err| < 2**53·q, which a float
      Σ|err| ≤ 2**52·q ensures. Then s + e is the exact sum and res its
      rounding, ties included.
    - The bound. e is within γ_(k-2)·Σ|err| of Σerr and one more TwoSum
      gives res's exact residual d, so the exact sum lies within
      |d| + γ_(k-2)·Σ|err| of res. Where that is below half the gap from
      res to its nearer neighbour, the exact sum rounds to res and is no
      tie. k·2**-52 covers γ_(k-2) divided by the (1 - u)**k that the float
      Σ|err| and the product lose, for any k below 2**40; adding the
      smallest subnormal covers the product's underflow; and a float sum
      below the exact half gap means the exact sum is below it too.
    A zero sum is never proved, so its sign is math.fsum's. math.fsum
    raises on an intermediate overflow even when the sum is finite, so a
    row is proved only where Σ|x| ≤ 2**1021, which keeps every partial sum
    of both far from the overflow threshold. That also leaves every row
    with an inf or nan to math.fsum.
    """
    x = np.stack(cols)
    s = x[0]
    e = np.zeros_like(s)
    abs_err = np.zeros_like(s)
    for xj in x[1:]:
        s, err = _two_sum(s, xj)
        e += err
        abs_err += abs(err)
    res, d = _two_sum(s, e)
    mag = abs(x)
    q = np.spacing(np.min(mag, axis=0, initial=np.inf, where=mag > 0.0))
    exact_errors = abs_err <= 2.0 ** 52 * q
    bound = len(cols) * 2.0 ** -52 * abs_err + 2.0 ** -1074
    half_gap = (abs(res) - np.nextafter(abs(res), 0.0)) * 0.5
    proved = exact_errors | (abs(d) + bound < half_gap)
    proved &= (res != 0.0) & (mag.sum(axis=0) <= 2.0 ** 1021)
    return res, proved


# ---------------------------------------------------------------------------
# Scalar semantics of the functions numpy cannot reproduce bit for bit

def _power(base: float, exp: float) -> float:
    if base == 0.0 and exp < 0.0:
        raise EvalFailure(ErrorKind.DOMAIN_ERROR, "0 raised to a negative power")
    try:
        result = base ** exp
    except (ValueError, OverflowError) as e:
        raise EvalFailure(ErrorKind.DOMAIN_ERROR, f"{base}^{exp}: {e}") from None
    if isinstance(result, complex):
        raise EvalFailure(ErrorKind.DOMAIN_ERROR, f"{base}^{exp} is not a real number")
    return result


def _ln(x: float) -> float:
    if x <= 0.0:
        raise EvalFailure(ErrorKind.DOMAIN_ERROR, f"log of {x}")
    return math.log(x)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise EvalFailure(ErrorKind.DOMAIN_ERROR, "EXP overflow") from None


def _sum(*xs: float) -> float:
    return fn.fsum(xs)


def _irr(guess: float, *flows: float) -> float:
    return fn.irr(flows, guess)


def _lookup(mode: float, key: float, *table: float) -> float:
    pairs = list(zip(table[::2], table[1::2]))
    return fn.lookup(pairs, key, "step" if mode != 0.0 else "exact")


# ---------------------------------------------------------------------------
# AST -> column function compilation
#
# A compiled node is f(ps, rows) -> a column of ps.n values, where rows
# masks the rows the node is evaluated for (None: every row). A reference
# reads ps.values[slot], a range is the list of its cells' slots, and a
# literal reads its row of ps.literals; `slots` maps each cell to its slot,
# and `literals` each literal's bit pattern to its row. Sub-expressions
# run in the order the formula language defines, so a row's first recorded
# error is the one a one-row evaluation meets first.
#
# _compile recurses one frame per level of the AST, and so does an
# evaluation: each compiled node calls its children's functions in its own
# frame. parse_formula bounds the levels by MAX_DEPTH.

def _compile(node, slots: dict, literals: dict) -> Callable:
    if isinstance(node, Lit):
        row = literals.setdefault(struct.pack("<d", node.value), len(literals))
        return lambda ps, rows: ps.literals[row]
    if isinstance(node, Ref):
        slot = slots[node.cell]
        return lambda ps, rows: ps.values[slot]
    if isinstance(node, Neg):
        f = _compile(node.operand, slots, literals)
        return lambda ps, rows: -f(ps, rows)
    if isinstance(node, Bin):
        return _compile_bin(node.op, _compile(node.left, slots, literals),
                            _compile(node.right, slots, literals))
    args = []  # a range as its cells' slots in row-major order
    for a in node.args:  # a loop, as a comprehension would add a frame
        args.append([slots[c] for c in a.cells()] if isinstance(a, RangeRef)
                    else _compile(a, slots, literals))
    if node.name == "IRR" and len(args) == 1:  # the guess defaults to 0.1
        args.append(_compile(Lit(0.1), slots, literals))
    return _compile_call(node.name, args)


def _on_columns(args, kernel: Callable) -> Callable:
    """A call that evaluates its arguments in order, ranges expanded, in
    its own frame, then returns kernel(ps, rows, columns)."""
    def call(ps, rows):
        cols = []
        for a in args:
            if callable(a):
                cols.append(a(ps, rows))
            else:
                cols.extend([ps.values[s] for s in a])
        return kernel(ps, rows, cols)
    return call


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARISONS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compile_bin(op: str, lf: Callable, rf: Callable) -> Callable:
    if op in _ARITHMETIC:
        apply = _ARITHMETIC[op]
        return lambda ps, rows: apply(lf(ps, rows), rf(ps, rows))
    if op == "/":
        def div(ps, rows):
            d = rf(ps, rows)  # the divisor is evaluated first
            ps.fail(rows, d == 0.0, ErrorKind.DIV_BY_ZERO, "division by zero")
            return lf(ps, rows) / d
        return div
    if op == "^":
        return lambda ps, rows: _rowwise(ps, rows, _power, lf(ps, rows), rf(ps, rows))
    if op in _COMPARISONS:
        compare = _COMPARISONS[op]
        return lambda ps, rows: compare(lf(ps, rows), rf(ps, rows)).astype(float)
    raise ValueError(f"unknown operator {op}")


def _compile_call(name: str, args: list) -> Callable:
    if name == "IF":
        cf, tf, ff = args

        def if_(ps, rows):
            taken = cf(ps, rows) != 0.0
            t_rows = taken if rows is None else rows & taken
            f_rows = ~taken if rows is None else rows & ~taken
            return np.where(taken, tf(ps, t_rows), ff(ps, f_rows))
        return if_
    if name in ("SUM", "AVERAGE"):
        average = name == "AVERAGE"

        def sum_(ps, rows, cols):
            total, proved = _certified_sum(cols)
            live = ps.live(rows)
            exact = live & ~proved
            total[~live] = math.nan
            if exact.any():  # fn.fsum's value or error, signed zeros included
                total[exact] = _rowwise(ps, exact, _sum, *cols)[exact]
            return total / len(cols) if average else total
        return _on_columns(args, sum_)
    if name in ("MIN", "MAX"):
        # Python's min and max: a later value replaces the kept one only
        # when strictly smaller (larger), so ties and -0.0 keep the first.
        beats = operator.lt if name == "MIN" else operator.gt

        def extreme(ps, rows, cols):
            acc, *rest = cols
            for x in rest:
                acc = np.where(beats(x, acc), x, acc)
            return acc
        return _on_columns(args, extreme)
    if name == "ABS":
        f = args[0]
        return lambda ps, rows: abs(f(ps, rows))
    if name == "SQRT":
        f = args[0]

        def sqrt(ps, rows):
            x = f(ps, rows)
            ps.fail(rows, x < 0.0, ErrorKind.DOMAIN_ERROR,
                    lambda i: f"square root of {float(x[i])}")
            return np.sqrt(x)
        return sqrt
    if name in ("LN", "EXP"):
        f = args[0]
        scalar_fn = _ln if name == "LN" else _exp
        return lambda ps, rows: _rowwise(ps, rows, scalar_fn, f(ps, rows))
    if name == "NPV":
        def npv(ps, rows, cols):
            rate, *flows = cols
            ps.fail(rows, rate <= -1.0, ErrorKind.DOMAIN_ERROR,
                    lambda i: f"NPV rate {float(rate[i])} <= -1")
            return fn.discount(rate, flows)
        return _on_columns(args, npv)
    # the parser has checked the shapes: IRR's flows and LOOKUP's table are ranges
    if name == "IRR":
        slots, guess_fn = args
        return lambda ps, rows: _rowwise(
            ps, rows, _irr, guess_fn(ps, rows), *[ps.values[s] for s in slots])
    if name == "LOOKUP":
        key_fn, slots, mode_fn = args  # slots row-major: key, value, key, value, ...

        def lookup(ps, rows):
            mode = mode_fn(ps, rows)
            return _rowwise(ps, rows, _lookup, mode, key_fn(ps, rows),
                            *[ps.values[s] for s in slots])
        return lookup
    raise ValueError(f"unknown function {name}")
