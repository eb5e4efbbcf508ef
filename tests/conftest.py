import importlib.util
import os

import pytest

from gridmc.document import ModelDocument

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def example_path(name: str) -> str:
    return os.path.abspath(os.path.join(EXAMPLES, name))


def portfolio_documents(seeds) -> list:
    """The documents benchmarks/portfolio.py generates for these seeds."""
    path = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "portfolio.py")
    spec = importlib.util.spec_from_file_location("portfolio", path)
    portfolio = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(portfolio)
    return [portfolio.generate(seed)[0] for seed in seeds]


@pytest.fixture(scope="session")
def project_doc():
    return ModelDocument.load(example_path("project-npv.json"))


@pytest.fixture(scope="session")
def correlated_doc():
    return ModelDocument.load(example_path("project-npv-correlated.json"))


@pytest.fixture(scope="session")
def hardcode_doc():
    return ModelDocument.load(example_path("project-npv-hardcode.json"))


@pytest.fixture(scope="session")
def signflip_doc():
    return ModelDocument.load(example_path("project-npv-signflip.json"))


@pytest.fixture(scope="session")
def noclamp_doc():
    return ModelDocument.load(example_path("project-npv-noclamp.json"))


@pytest.fixture(scope="session")
def sqrt_trap_doc():
    return ModelDocument.load(example_path("sqrt-trap.json"))
