"""Model documents: the JSON surrogate for a workbook.

A document holds the cell grid plus the simulation declarations
(assumptions, correlations, forecasts, limits, expectations, expected
intervals, run defaults). It validates against the shipped schema
before any engine call.

`schema.json` is the one definition of the format. It is compiled once,
at import, into a tree of checks, one closure per keyword, with each
`$ref` resolved and each `pattern` compiled. The compiler knows exactly
the draft 2020-12 keywords the schema uses and raises on any other; the
checks word and order their diagnostics as the reference Python
validator (version 4.26) does, and the test suite holds them to that
validator as an oracle.

Loading rejects the `NaN` and `Infinity` literals that `json.load`
accepts, since no artifact may carry them, and any number that no finite
float can hold, such as `1e400` or a 400-digit integer.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from importlib import resources

from .cells import parse_cell
from .correlation import CorrelationError, CorrelationSpec
from .distributions import distribution_from_json
from .model import Model, ModelBuildError, build_model
from .simulate import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    Expectation,
    ExpectedInterval,
    Forecast,
    Limit,
    SimulationSpec,
    check_labels,
)


class DocumentError(ValueError):
    """Schema or consistency failure; carries every diagnostic found."""

    def __init__(self, diagnostics):
        diagnostics = list(diagnostics)
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


_SCHEMA = json.loads(resources.files("gridmc").joinpath("schema.json").read_text())


def _is_number(x):
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


_IS_TYPE = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "null": lambda x: x is None,
    "number": _is_number,
    # draft 2020-12 counts 200.0 as an integer
    "integer": lambda x: ((isinstance(x, int) and not isinstance(x, bool))
                          or (isinstance(x, float) and x.is_integer())),
}


def _compile(schema):
    """check(x, path, out) for `schema`: it appends (path, message) to out
    for each way `x` breaks the schema, depth first in the order the
    schema's keywords are written. An unknown keyword raises here."""
    checks = [_keyword(key, value, schema) for key, value in schema.items()
              if key not in ("$schema", "title", "$defs")]  # annotations
    if len(checks) == 1:
        return checks[0]

    def check(x, path, out):
        for keyword in checks:
            keyword(x, path, out)
    return check


def _keyword(key, value, schema):
    """check(x, path, out) for one keyword of `schema`."""
    if key == "$ref" and value.startswith("#/"):
        target = _SCHEMA
        for part in value[2:].split("/"):
            target = target[part]
        check = _compile(target)  # schema.json has no recursive reference
    elif key == "type":
        types = value if isinstance(value, list) else [value]
        tests = [_IS_TYPE[t] for t in types]
        test = tests[0] if len(tests) == 1 else lambda x: any(t(x) for t in tests)
        names = ", ".join(map(repr, types))

        def check(x, path, out):
            if not test(x):
                out.append((path, f"{x!r} is not of type {names}"))
    elif key == "required":
        def check(x, path, out):
            if isinstance(x, dict):
                out.extend((path, f"{name!r} is a required property")
                           for name in value if name not in x)
    elif key == "properties":
        subs = [(name, _compile(sub)) for name, sub in value.items()]

        def check(x, path, out):
            if isinstance(x, dict):
                for name, sub in subs:
                    if name in x:
                        sub(x[name], path + (name,), out)
    elif key == "additionalProperties" and value is False:
        known = frozenset(schema.get("properties", ()))

        def check(x, path, out):
            if isinstance(x, dict) and (extras := sorted(x.keys() - known)):
                verb = "was" if len(extras) == 1 else "were"
                out.append((path, f"Additional properties are not allowed "
                                  f"({', '.join(map(repr, extras))} {verb} unexpected)"))
    elif key == "items" and isinstance(value, dict):
        sub = _compile(value)

        def check(x, path, out):
            if isinstance(x, list):
                for i, item in enumerate(x):
                    sub(item, path + (i,), out)
    elif key in ("minItems", "minLength"):
        kind = list if key == "minItems" else str
        words = "should be non-empty" if value == 1 else "is too short"

        def check(x, path, out):
            if isinstance(x, kind) and len(x) < value:
                out.append((path, f"{x!r} {words}"))
    elif key == "maxItems":
        words = "is expected to be empty" if value == 0 else "is too long"

        def check(x, path, out):
            if isinstance(x, list) and len(x) > value:
                out.append((path, f"{x!r} {words}"))
    elif key == "pattern":
        search = re.compile(value).search

        def check(x, path, out):
            if isinstance(x, str) and not search(x):
                out.append((path, f"{x!r} does not match {value!r}"))
    elif key == "enum":
        def check(x, path, out):
            # JSON equality: true is not 1
            if not any(o == x and isinstance(o, bool) == isinstance(x, bool) for o in value):
                out.append((path, f"{x!r} is not one of {value!r}"))
    elif key == "minimum":
        def check(x, path, out):
            if _is_number(x) and x < value:
                out.append((path, f"{x!r} is less than the minimum of {value!r}"))
    elif key == "maximum":
        def check(x, path, out):
            if _is_number(x) and x > value:
                out.append((path, f"{x!r} is greater than the maximum of {value!r}"))
    else:
        raise NotImplementedError(f"schema keyword {key!r}: {value!r} is not implemented")
    return check


_CHECK = _compile(_SCHEMA)


def validate_schema(data: dict) -> None:
    errors = []
    _CHECK(data, (), errors)
    if errors:
        errors.sort(key=lambda e: e[0])
        raise DocumentError(
            [f"{'/'.join(map(str, path)) or '<root>'}: {message}"
             for path, message in errors])


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _finite(parse):
    """parse, rejecting a number that does not convert to a finite float."""
    def checked(text):
        value = parse(text)
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an int too large for a float
            pass
        raise ValueError(f"{text} is beyond the float range")
    return checked


@dataclass
class ModelDocument:
    data: dict

    @property
    def name(self) -> str:
        return self.data["name"]

    @staticmethod
    def from_json(data: dict) -> "ModelDocument":
        validate_schema(data)
        return ModelDocument(data)

    @staticmethod
    def load(path) -> "ModelDocument":
        with open(path, encoding="utf-8") as fh:  # RFC 8259, whatever the locale
            return ModelDocument.from_json(
                json.load(fh, parse_constant=_reject_constant,
                          parse_int=_finite(int), parse_float=_finite(float)))

    def build_model(self) -> Model:
        cells = [(c["address"], c.get("label"), c["formula"])
                 for c in self.data["cells"]]
        return build_model(cells)

    def build(self, trials=None, seed=None, stop_on_error=True):
        """Build the (Model, SimulationSpec) pair this document declares."""
        model = self.build_model()
        diagnostics = []

        assumptions = []
        for a in self.data.get("assumptions", []):
            try:
                assumptions.append((model.cell_by_name(a["cell"]),
                                    distribution_from_json(a["distribution"])))
            except (KeyError, ValueError) as exc:
                diagnostics.append(f"assumption {a.get('cell')}: {exc}")

        forecasts = []  # their labels name cells to the declarations after them
        for f in self.data.get("forecasts", []):
            try:
                target = f.get("target") or {}
                forecasts.append(Forecast(model.cell_by_name(f["cell"], forecasts),
                                          f["label"], target.get("lo"), target.get("hi")))
            except KeyError as exc:
                diagnostics.append(f"forecast {f.get('cell')}: {exc}")
        check_labels(model, forecasts)

        limits = []
        for lim in self.data.get("limits", []):
            try:
                limits.append(Limit(model.cell_by_name(lim["cell"], forecasts),
                                    lim.get("min"), lim.get("max")))
            except KeyError as exc:
                diagnostics.append(f"limit {lim.get('cell')}: {exc}")

        expectations = []
        for e in self.data.get("expectations", []):
            try:
                expectations.append(Expectation(
                    model.cell_by_name(e["assumption"], forecasts),
                    model.cell_by_name(e["forecast"], forecasts),
                    1 if e["sign"] == "+" else -1))
            except KeyError as exc:
                diagnostics.append(f"expectation: {exc}")

        intervals = []
        for iv in self.data.get("expected_intervals", []):
            try:
                intervals.append(ExpectedInterval(model.cell_by_name(iv["forecast"], forecasts),
                                                  iv["lo"], iv["hi"]))
            except KeyError as exc:
                diagnostics.append(f"expected_interval: {exc}")

        pairs = {}
        cell_index = {c: i for i, (c, _) in enumerate(assumptions)}
        for corr in self.data.get("correlations", []):
            try:
                a, b = (model.cell_by_name(corr[k], forecasts) for k in "ab")
                if a not in cell_index or b not in cell_index:
                    raise KeyError(f"correlation names non-assumption cell {corr['a']}/{corr['b']}")
                if a == b:
                    raise CorrelationError(
                        f"correlation: {model.label_of(a)} is paired with itself")
                pairs[(cell_index[a], cell_index[b])] = corr["rho"]
            except KeyError as exc:
                diagnostics.append(f"correlation: {exc}")
        correlation = CorrelationSpec.from_pairs(len(assumptions), pairs) if pairs else None

        if diagnostics:
            raise DocumentError(diagnostics)

        run_defaults = self.data.get("run", {})
        spec = SimulationSpec(
            assumptions=assumptions,
            forecasts=forecasts,
            correlation=correlation,
            limits=limits,
            expectations=expectations,
            expected_intervals=intervals,
            # the schema lets 200.0 through as an integer
            trials=int(trials if trials is not None
                       else run_defaults.get("trials", DEFAULT_TRIALS)),
            seed=int(seed if seed is not None else run_defaults.get("seed", DEFAULT_SEED)),
            stop_on_error=stop_on_error,
        )
        spec.validate(model)
        return model, spec

    def bake_scenario(self, spec: SimulationSpec, assumption_values,
                      scenario_index: int) -> dict:
        """Copy of the document with one trial's values written into the
        assumption cells as constants; assumptions and correlations are
        dropped so a run replays deterministically."""
        baked = {c: float(v) for c, v in
                 zip(spec.assumption_cells, assumption_values)}
        data = json.loads(json.dumps(self.data))
        data["name"] = f"{self.name}.scenario{scenario_index}"
        for cell in data["cells"]:
            ref = parse_cell(cell["address"])
            if ref in baked:
                cell["formula"] = baked[ref]
        data.pop("assumptions", None)
        data.pop("correlations", None)
        data.pop("expectations", None)
        return data
