"""Model documents: the JSON surrogate for a workbook.

A document holds the cell grid plus the simulation declarations
(assumptions, correlations, forecasts, limits, expectations, expected
intervals, run defaults). It validates against the shipped schema
before any engine call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import jsonschema

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
)


class DocumentError(ValueError):
    """Schema or consistency failure; carries every diagnostic found."""

    def __init__(self, diagnostics):
        diagnostics = list(diagnostics)
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


def _schema() -> dict:
    with resources.files("gridmc").joinpath("schema.json").open("r") as fh:
        return json.load(fh)


def validate_schema(data: dict) -> None:
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    if errors:
        raise DocumentError(
            [f"{'/'.join(str(p) for p in e.absolute_path) or '<root>'}: {e.message}"
             for e in errors])


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
        with open(path) as fh:
            return ModelDocument.from_json(json.load(fh))

    def build_model(self) -> Model:
        cells = [(c["address"], c.get("label"), c["formula"])
                 for c in self.data["cells"]]
        return build_model(cells)

    def build(self, trials=None, seed=None, stop_on_error=True):
        """Build the (Model, SimulationSpec) pair this document declares."""
        model = self.build_model()
        forecast_labels = {}

        def resolve(name):
            # forecast labels resolve too, not only cell labels/addresses
            if name in forecast_labels:
                return forecast_labels[name]
            try:
                return model.cell_by_name(name)
            except ValueError:
                raise KeyError(f"unknown cell or label {name!r}") from None

        diagnostics = []

        assumptions = []
        for a in self.data.get("assumptions", []):
            try:
                cell = resolve(a["cell"])
                dist = distribution_from_json(a["distribution"])
                assumptions.append((cell, dist))
            except (KeyError, ValueError) as exc:
                diagnostics.append(f"assumption {a.get('cell')}: {exc}")

        forecasts = []
        for f in self.data.get("forecasts", []):
            try:
                target = f.get("target") or {}
                cell = resolve(f["cell"])
                forecasts.append(Forecast(cell, f["label"],
                                          target.get("lo"), target.get("hi")))
                forecast_labels[f["label"]] = cell
            except KeyError as exc:
                diagnostics.append(f"forecast {f.get('cell')}: {exc}")

        limits = []
        for lim in self.data.get("limits", []):
            try:
                limits.append(Limit(resolve(lim["cell"]), lim.get("min"), lim.get("max")))
            except KeyError as exc:
                diagnostics.append(f"limit {lim.get('cell')}: {exc}")

        expectations = []
        for e in self.data.get("expectations", []):
            try:
                expectations.append(Expectation(
                    resolve(e["assumption"]), resolve(e["forecast"]),
                    1 if e["sign"] == "+" else -1))
            except KeyError as exc:
                diagnostics.append(f"expectation: {exc}")

        intervals = []
        for iv in self.data.get("expected_intervals", []):
            try:
                intervals.append(ExpectedInterval(resolve(iv["forecast"]),
                                                  iv["lo"], iv["hi"]))
            except KeyError as exc:
                diagnostics.append(f"expected_interval: {exc}")

        correlation = None
        pairs = {}
        cell_index = {c: i for i, (c, _) in enumerate(assumptions)}
        for corr in self.data.get("correlations", []):
            try:
                a, b = resolve(corr["a"]), resolve(corr["b"])
                if a not in cell_index or b not in cell_index:
                    raise KeyError(f"correlation names non-assumption cell {corr['a']}/{corr['b']}")
                if a == b:
                    raise CorrelationError(
                        f"correlation: {model.label_of(a)} is paired with itself")
                pairs[(cell_index[a], cell_index[b])] = corr["rho"]
            except KeyError as exc:
                diagnostics.append(f"correlation: {exc}")
        if pairs:
            correlation = CorrelationSpec.from_pairs(len(assumptions), pairs)

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
            trials=trials if trials is not None else run_defaults.get("trials", DEFAULT_TRIALS),
            seed=seed if seed is not None else run_defaults.get("seed", DEFAULT_SEED),
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
