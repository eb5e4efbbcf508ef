import copy
import json
import os
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from gridmc.cells import parse_cell
from gridmc.correlation import CorrelationError
from gridmc.distributions import Triangular, Uniform
from gridmc.document import DocumentError, ModelDocument, _compile, validate_schema
from gridmc.model import Model, evaluate
from gridmc.simulate import check_labels, run
from tests.conftest import EXAMPLES, example_path, portfolio_documents

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def C(text):
    return parse_cell(text)


def minimal_doc():
    return {
        "name": "mini",
        "cells": [
            {"address": "A1", "label": "x", "formula": 0.5},
            {"address": "A2", "label": "y", "formula": 0.5},
            {"address": "A3", "label": "out", "formula": "=3*A1-2*A2"},
        ],
        "assumptions": [
            {"cell": "x", "distribution": {"type": "uniform", "min": 0, "max": 1}},
            {"cell": "A2", "distribution": {"type": "triangular", "min": 0,
                                            "mode": 0.5, "max": 1}},
        ],
        "forecasts": [{"cell": "A3", "label": "f", "target": {"lo": 0}}],
        "expectations": [{"assumption": "x", "forecast": "f", "sign": "+"}],
        "limits": [{"cell": "A3", "min": -2}],
        "expected_intervals": [{"forecast": "f", "lo": -2, "hi": 3}],
        "correlations": [{"a": "x", "b": "y", "rho": 0.5}],
        "run": {"trials": 200, "seed": 7},
    }


class TestSchema:
    def test_minimal_accepted(self):
        validate_schema(minimal_doc())

    def test_examples_accepted(self, project_doc, hardcode_doc, signflip_doc,
                               noclamp_doc, correlated_doc, sqrt_trap_doc):
        for doc in (project_doc, hardcode_doc, signflip_doc, noclamp_doc,
                    correlated_doc, sqrt_trap_doc):
            validate_schema(doc.data)

    def test_missing_required_key(self):
        data = minimal_doc()
        del data["cells"]
        with pytest.raises(DocumentError, match="cells"):
            validate_schema(data)

    def test_unknown_top_level_key_rejected(self):
        data = minimal_doc()
        data["bogus"] = 1
        with pytest.raises(DocumentError):
            validate_schema(data)

    def test_bad_sign_rejected(self):
        data = minimal_doc()
        data["expectations"][0]["sign"] = "positive"
        with pytest.raises(DocumentError):
            validate_schema(data)

    def test_all_diagnostics_collected(self):
        data = minimal_doc()
        del data["name"]
        data["run"]["trials"] = 0
        with pytest.raises(DocumentError) as exc:
            validate_schema(data)
        assert len(exc.value.diagnostics) >= 2

    def test_rho_out_of_range_rejected(self):
        data = minimal_doc()
        data["correlations"][0]["rho"] = 1.5
        with pytest.raises(DocumentError):
            validate_schema(data)


SCHEMA = json.loads(resources.files("gridmc").joinpath("schema.json").read_text())
BASE_DOCUMENTS = ([json.load(open(example_path(name))) for name in sorted(os.listdir(EXAMPLES))]
                  + portfolio_documents(range(3)))

# values of every JSON type, some near the schema's edges
SWAP_VALUES = [None, True, False, 0, 1, -1, 200.0, 2.5, -1.5, "", "x", "A1", "+",
               "normal", [], [1], [[1, 2]], [[1, 2, 3]], {}, {"type": "custom"}]
EXTRA_KEYS = ["bogus", "label", "type", "min", "rho", "zz"]


def _nodes(x, path=()):
    yield path, x
    children = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """A fixture or generated document with up to four random edits: a
    key or element deleted, an unknown or known key added, or a value
    swapped for one of another type."""
    doc = copy.deepcopy(draw(st.sampled_from(BASE_DOCUMENTS)))
    for _ in range(draw(st.integers(0, 4))):
        path, node = draw(st.sampled_from(list(_nodes(doc))))
        op = draw(st.sampled_from(["delete", "add", "swap"]))
        if op == "delete" and isinstance(node, (dict, list)) and node:
            keys = list(node) if isinstance(node, dict) else range(len(node))
            del node[draw(st.sampled_from(keys))]
        elif op == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(EXTRA_KEYS))] = copy.deepcopy(
                draw(st.sampled_from(SWAP_VALUES)))
        elif path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(SWAP_VALUES)))
        else:
            doc = copy.deepcopy(draw(st.sampled_from(SWAP_VALUES)))
            break
    return doc


def _subschemas(schema):
    yield schema
    for key in ("properties", "$defs"):
        for sub in schema.get(key, {}).values():
            yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


class TestValidatorAgainstReference:
    """The compiled checks of schema.json, held to jsonschema 4.26 as an oracle."""

    def reference(self, data):
        jsonschema = pytest.importorskip("jsonschema")
        errors = sorted(jsonschema.Draft202012Validator(SCHEMA).iter_errors(data),
                        key=lambda e: list(e.absolute_path))
        return [f"{'/'.join(str(p) for p in e.absolute_path) or '<root>'}: {e.message}"
                for e in errors]

    @settings(max_examples=250, deadline=None)
    @given(mutated_documents())
    def test_diagnostics_match_reference(self, data):
        expected = self.reference(data)
        if expected:
            with pytest.raises(DocumentError) as exc:
                validate_schema(data)
            assert exc.value.diagnostics == expected
        else:
            validate_schema(data)

    def test_base_documents_valid_for_both(self):
        for data in BASE_DOCUMENTS:
            assert self.reference(data) == []
            validate_schema(data)

    def test_every_schema_keyword_is_implemented(self):
        samples = [None, True, 0, -2, 1.5, "", "x", [], [0, "a"], {}, {"a": 1}]
        keywords = set()
        for sub in _subschemas(SCHEMA):
            keywords.update(sub)
            check = _compile(sub)  # an unknown keyword raises
            for x in samples:
                check(x, (), [])
        assert {"$ref", "type", "required", "additionalProperties", "items",
                "pattern", "enum", "minimum", "maximum"} <= keywords

    @pytest.mark.parametrize("schema", [{"maxLength": 3}, {"format": "date"},
                                        {"additionalProperties": {"type": "string"}}])
    def test_unknown_keyword_fails_loudly(self, schema):
        with pytest.raises(NotImplementedError):
            _compile(schema)

    def test_cli_runs_without_jsonschema(self, tmp_path):
        code = ("import sys; sys.modules['jsonschema'] = None\n"
                "from gridmc.cli import main\n"
                "sys.exit(main(sys.argv[1:]))")
        path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        project = example_path("project-npv.json")
        for args in (["validate", project],
                     ["run", project, "--trials", "50", "--out", str(tmp_path)]):
            proc = subprocess.run([sys.executable, "-c", code, *args],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "report.json").exists()


class TestBuild:
    def test_declarations_translate(self):
        doc = ModelDocument.from_json(minimal_doc())
        model, spec = doc.build()
        assert spec.trials == 200 and spec.seed == 7
        assert spec.assumption_cells == [C("A1"), C("A2")]
        assert spec.distributions == [Uniform(0, 1), Triangular(0, 0.5, 1)]
        assert spec.forecasts[0].cell == C("A3")
        assert spec.forecasts[0].target_lo == 0
        assert spec.expectations[0].sign == 1
        assert spec.limits[0].min == -2
        assert spec.expected_intervals[0].lo == -2
        assert spec.correlation.as_array()[0, 1] == 0.5
        assert model.label_of(C("A3")) == "out"

    def test_overrides_beat_run_block(self):
        doc = ModelDocument.from_json(minimal_doc())
        _, spec = doc.build(trials=11, seed=99)
        assert spec.trials == 11 and spec.seed == 99

    def test_expectation_resolves_forecast_label(self):
        # "f" is a forecast label, not a cell label
        doc = ModelDocument.from_json(minimal_doc())
        _, spec = doc.build()
        assert spec.expectations[0].forecast == C("A3")

    def test_unknown_assumption_cell(self):
        data = minimal_doc()
        data["assumptions"][0]["cell"] = "nope"
        with pytest.raises(DocumentError, match="nope"):
            ModelDocument.from_json(data).build()

    def test_correlation_must_name_assumptions(self):
        data = minimal_doc()
        data["correlations"][0]["a"] = "out"
        with pytest.raises(DocumentError, match="non-assumption"):
            ModelDocument.from_json(data).build()

    def test_correlation_pair_naming_one_cell_twice(self):
        data = minimal_doc()
        data["correlations"][0]["b"] = "A1"
        with pytest.raises(CorrelationError,
                           match="^correlation: x is paired with itself$"):
            ModelDocument.from_json(data).build()

    def test_all_build_diagnostics_collected(self):
        data = minimal_doc()
        data["assumptions"][0]["cell"] = "ghost1"
        data["limits"][0]["cell"] = "ghost2"
        with pytest.raises(DocumentError) as exc:
            ModelDocument.from_json(data).build()
        joined = "; ".join(exc.value.diagnostics)
        assert "ghost1" in joined and "ghost2" in joined

    def test_check_labels_resolves_forecast_labels_only(self, monkeypatch):
        # build_model checks the cell labels, so check_labels resolves each
        # forecast's label and none of the document's cell labels
        model, spec = ModelDocument.from_json(portfolio_documents([1])[0]).build(trials=300)
        assert len(model.labels) == 27 and len(spec.forecasts) == 1
        names = []
        resolve = Model.cell_by_name

        def counted(self, name, forecasts=()):
            names.append(name)
            return resolve(self, name, forecasts)

        monkeypatch.setattr(Model, "cell_by_name", counted)
        check_labels(model, spec.forecasts)
        assert names == [f.label for f in spec.forecasts]
        names.clear()
        spec.validate(model)
        assert names == [f.label for f in spec.forecasts]

    def test_project_fixture_builds(self, project_doc):
        model, spec = project_doc.build()
        assert len(spec.assumptions) == 4
        assert spec.forecasts[0].label == "ProjectNPV"
        assert len(spec.limits) == 5
        assert len(spec.expectations) == 4


    def test_every_shipped_and_generated_document_builds(self):
        # the build rejects a label that names another defined cell, but not
        # every address-shaped label: the portfolio labels A10..A24 X10..X24
        docs = ([json.load(open(example_path(name))) for name in sorted(os.listdir(EXAMPLES))]
                + portfolio_documents(range(1, 201)))
        assert len(docs) == 206
        for data in docs:
            ModelDocument.from_json(data).build(trials=300)


class TestBakeScenario:
    def test_bakes_constants_and_drops_sampling(self):
        doc = ModelDocument.from_json(minimal_doc())
        model, spec = doc.build()
        baked = doc.bake_scenario(spec, [0.25, 0.75], 9)
        assert baked["name"] == "mini.scenario9"
        cells = {c["address"]: c["formula"] for c in baked["cells"]}
        assert cells["A1"] == 0.25 and cells["A2"] == 0.75
        assert cells["A3"] == "=3*A1-2*A2"
        for gone in ("assumptions", "correlations", "expectations"):
            assert gone not in baked
        validate_schema(baked)  # still a valid document

    def test_baked_document_replays_value(self):
        doc = ModelDocument.from_json(minimal_doc())
        model, spec = doc.build()
        store = run(model, spec)
        t = 3
        baked = ModelDocument.from_json(
            doc.bake_scenario(spec, store.assumption_matrix[t], t))
        baked_model = baked.build_model()
        result = evaluate(baked_model)
        assert result[C("A3")] == store.forecast_matrix[t, 0]

    def test_original_untouched(self):
        doc = ModelDocument.from_json(minimal_doc())
        snapshot = copy.deepcopy(doc.data)
        _, spec = doc.build()
        doc.bake_scenario(spec, [0.1, 0.2], 0)
        assert doc.data == snapshot
