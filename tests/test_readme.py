"""The README's "Library use" block runs as written."""

import os
import re

from gridmc.analytics import SensitivityEntry, TornadoResult

ROOT = os.path.join(os.path.dirname(__file__), "..")


def library_block():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no Library use block"
    return match.group(1)


def test_library_use_block_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the block loads examples/project-npv.json
    names = {}
    exec(compile(library_block(), "<README.md Library use>", "exec"), names)
    assert isinstance(names["torn"], TornadoResult)
    assert all(isinstance(e, SensitivityEntry) for e in names["sens"])
    assert 0.0 <= names["p"] <= 1.0
