"""Monte Carlo simulation and logic-error auditing for grid formula models."""

from .analytics import (
    certainty,
    forecast_stats,
    histogram,
    scenario_filter,
    sensitivity,
    tornado,
)
from .audit import AuditFinding, AuditReport, FindingKind, Thresholds, run_audit
from .cells import CellRef, parse_cell
from .correlation import CorrelationSpec, induce_rank_correlation, validate_correlation
from .distributions import (
    Custom,
    DiscreteUniform,
    Distribution,
    Lognormal,
    Normal,
    Triangular,
    Uniform,
)
from .document import DocumentError, ModelDocument
from .formula import FormulaError, parse_formula, render_formula
from .functions import ErrorKind, irr, lookup, npv
from .model import CalcError, Model, ModelBuildError, build_model, evaluate
from .rng import RandomSource
from .simulate import (
    CalcErrorDossier,
    Expectation,
    ExpectedInterval,
    Forecast,
    Limit,
    SimulationSpec,
    StepSession,
    TrialStore,
    replay,
    run,
)

__version__ = "0.1.0"
