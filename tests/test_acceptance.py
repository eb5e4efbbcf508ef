"""Acceptance suite: ten end-to-end criteria, one verdict line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict
lines as they print.
"""

import csv
import math
import time
from dataclasses import replace

import numpy as np

from gridmc import analytics
from gridmc.audit import FindingKind, run_audit
from gridmc.cells import parse_cell
from gridmc.cli import main
from gridmc.correlation import CorrelationSpec, induce_rank_correlation
from gridmc.distributions import Uniform
from gridmc.functions import ErrorKind, EvalFailure, irr
from gridmc.model import CalcError, build_model
from gridmc.rng import RandomSource
from gridmc.simulate import Forecast, SimulationSpec, replay, run
from tests import scipy_reference
from tests.conftest import example_path

PROJECT = example_path("project-npv.json")
SEEDS = range(42, 62)  # pinned 20-seed window for the statistical criteria


def C(text):
    return parse_cell(text)


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] acceptance {num}: {name}{suffix}")
    assert ok, f"acceptance {num} failed: {name}{suffix}"


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_01_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", PROJECT, "--seed", "42", "--out", str(out1)]) == 0
    assert main(["run", PROJECT, "--seed", "42", "--out", str(out2)]) == 0
    identical = all(
        _read_bytes(out1 / name) == _read_bytes(out2 / name)
        for name in ("report.json", "trials.csv"))

    from gridmc.document import ModelDocument
    model, spec = ModelDocument.load(PROJECT).build(trials=10_000, seed=42)
    start = time.perf_counter()
    run(model, spec)
    elapsed = time.perf_counter() - start

    with capsys.disabled():
        _verdict(1, "determinism and speed", identical and elapsed < 5.0,
                 f"byte-identical={identical}, 10k trials in {elapsed:.2f}s")


def test_02_sampling_fidelity(capsys):
    n = 20_000
    critical = 1.63 / math.sqrt(n)
    src = RandomSource(42)
    failures = []
    for k, (dist, ref) in enumerate(scipy_reference.PAIRS):
        u = src.uniform_block(np.arange(n), np.array([k]))[:, 0]
        mean_se, d = scipy_reference.misfit(dist.inverse_cdf(u), ref)
        if not (mean_se < 4 and d < critical):
            failures.append(type(dist).__name__)
    with capsys.disabled():
        _verdict(2, "sampling fidelity against scipy (6 distributions, n=20000)",
                 not failures, f"failures={failures or 'none'}")


def test_03_correlation_induction(capsys):
    n = 2000
    src = RandomSource(42)
    u = src.uniform_block(np.arange(n), np.arange(2))
    spec = CorrelationSpec.from_pairs(2, {(0, 1): 0.8})
    y = induce_rank_correlation(u, spec, src, stream_offset=2)
    rho = analytics.spearman(y[:, 0], y[:, 1])
    marginals = all(np.array_equal(np.sort(u[:, j]), np.sort(y[:, j]))
                    for j in range(2))
    with capsys.disabled():
        _verdict(3, "correlation induction", 0.75 <= rho <= 0.85 and marginals,
                 f"rho={rho:.4f}, marginals exact={marginals}")


def test_04_tornado_exactness(capsys):
    model = build_model([("A1", "a", 0.5), ("A2", "b", 0.5),
                         ("A3", "f", "=3*A1-2*A2")])
    spec = SimulationSpec(
        assumptions=[(C("A1"), Uniform(0, 1)), (C("A2"), Uniform(0, 1))],
        forecasts=[Forecast(C("A3"), "f")], trials=100, seed=42)
    t = analytics.tornado(model, spec)["f"]
    a, b = t.bar("a"), t.bar("b")
    ok = (abs(t.base - 0.5) < 1e-9
          and abs(a.swing - 2.4) < 1e-9 and a.direction == 1
          and abs(b.swing - 1.6) < 1e-9 and b.direction == -1)
    with capsys.disabled():
        _verdict(4, "tornado exactness on f = 3a - 2b", ok,
                 f"base={t.base!r}, swings=({a.swing!r}, {b.swing!r})")


def test_05_scenario_oracle(tmp_path, capsys):
    from gridmc.document import ModelDocument
    doc = ModelDocument.load(PROJECT)
    model, spec = doc.build(trials=400, seed=42)
    store = run(model, spec)
    main(["run", PROJECT, "--trials", "400", "--seed", "42",
          "--out", str(tmp_path)])
    with open(tmp_path / "trials.csv") as fh:
        csv_rows = list(csv.DictReader(fh))

    fcell = spec.forecasts[0].cell
    v = store.forecast_values("ProjectNPV")
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(10):
        lo, hi = sorted(rng.uniform(float(v.min()), float(v.max()), size=2))
        subset = analytics.scenario_filter(store, "ProjectNPV", lo, hi)
        brute = [int(r["trial"]) for r in csv_rows
                 if lo <= float(r["ProjectNPV"]) <= hi]
        ok &= subset.indices == brute
        # paste-back: each selected row's inputs replay to its forecast
        for row, fval in list(zip(subset.assumptions, subset.forecasts))[:5]:
            result = replay(model, spec, row)
            ok &= result[fcell] == fval
    with capsys.disabled():
        _verdict(5, "scenario filter vs CSV brute force + paste-back", ok)


def test_06_error_dossier(sqrt_trap_doc, capsys):
    ok = True
    for seed in SEEDS:
        model, spec = sqrt_trap_doc.build(seed=seed)
        store = run(model, spec)
        d = store.dossier
        if d is None:
            ok = False
            continue
        result = replay(model, spec, d.assumptions)
        ok &= (isinstance(result, CalcError)
               and result.kind is ErrorKind.DOMAIN_ERROR
               and result.cell == C("A2")
               and result.kind is d.error.kind and result.cell == d.error.cell)
    model, spec = sqrt_trap_doc.build(trials=10_000, seed=42,
                                      stop_on_error=False)
    store = run(model, spec)
    rate = len(store.errors) / spec.trials
    ok &= abs(rate - 0.5) <= 0.02
    with capsys.disabled():
        _verdict(6, "error dossier replay (20 seeds) + census rate", ok,
                 f"census rate={rate:.4f}")


def test_07_defect_detection(project_doc, hardcode_doc, signflip_doc,
                             noclamp_doc, capsys):
    hits = {"hardcode": 0, "signflip": 0, "noclamp": 0, "clean": 0}
    for seed in SEEDS:
        model, spec = hardcode_doc.build(trials=5000, seed=seed)
        report = run_audit(model, spec)
        if report.counts == {"Disconnected": 1}:
            hits["hardcode"] += 1

        model, spec = signflip_doc.build(trials=5000, seed=seed)
        report = run_audit(model, spec)
        if report.counts == {"SignMismatch": 1}:
            hits["signflip"] += 1

        model, spec = noclamp_doc.build(trials=5000, seed=seed)
        report = run_audit(model, spec)
        limit_findings = [f for f in report.findings if f.kind is FindingKind.LIMIT_VIOLATION]
        witnesses_ok = bool(limit_findings)
        for f in limit_findings:
            result = replay(model, spec, f.witness)
            witnesses_ok &= (not isinstance(result, CalcError)
                             and result[C(f.evidence["cell"])]
                             < f.evidence["declared_min"])
        if set(report.counts) == {"LimitViolation"} and witnesses_ok:
            hits["noclamp"] += 1

        model, spec = project_doc.build(trials=5000, seed=seed)
        if run_audit(model, spec).findings == []:
            hits["clean"] += 1
    ok = all(v == 20 for v in hits.values())
    with capsys.disabled():
        _verdict(7, "defect detection 20/20 on all four fixtures", ok,
                 f"hits={hits}")


def test_08_correlation_masking(correlated_doc, capsys):
    model, spec = correlated_doc.build(seed=42)
    store = run(model, replace(spec, stop_on_error=False))
    entry = next(e for e in analytics.sensitivity(store)["ProjectNPV"]
                 if e.label == "COGSGrowth")
    torn = analytics.tornado(model, spec)["ProjectNPV"]
    report = run_audit(model, spec)
    maskings = [f for f in report.findings if f.kind is FindingKind.CORRELATION_MASKING]
    ok = (entry.spearman > 0
          and torn.bar("COGSGrowth").direction == -1
          and len(maskings) == 1 and len(report.findings) == 1
          and maskings[0].severity == "warning")
    with capsys.disabled():
        _verdict(8, "correlation-masking reproduction", ok,
                 f"spearman={entry.spearman:.4f}, exactly one warning={ok}")


def test_09_certainty_calibration(capsys):
    model = build_model([("A1", "x", 0.5), ("A2", "f", "=A1")])
    spec = SimulationSpec(assumptions=[(C("A1"), Uniform(0, 1))],
                          forecasts=[Forecast(C("A2"), "f")],
                          trials=10_000, seed=42)
    store = run(model, spec)
    p = analytics.certainty(store, "f", lo=0.0, hi=0.75)
    ok = abs(p - 0.75) <= 0.02
    with capsys.disabled():
        _verdict(9, "certainty calibration", ok, f"certainty(0, 0.75)={p:.4f}")


def test_10_irr_solver(capsys):
    import random
    rng = random.Random(42)
    ok = True
    for _ in range(100):
        n = rng.randint(2, 8)
        flows = [rng.uniform(-200, -50)] + [rng.uniform(10, 80) for _ in range(n)]
        r = irr(flows)
        residual = sum(cf / (1 + r) ** i for i, cf in enumerate(flows))
        ok &= abs(residual) <= 1e-9 * sum(abs(f) for f in flows)
    nonconvergent = 0
    for _ in range(100):
        flows = [rng.uniform(1, 100) for _ in range(rng.randint(2, 8))]
        try:
            irr(flows)
        except EvalFailure as exc:
            if exc.kind is ErrorKind.NON_CONVERGENT:
                nonconvergent += 1
    ok &= nonconvergent == 100
    with capsys.disabled():
        _verdict(10, "IRR residual contract + NonConvergent detection", ok,
                 f"nonconvergent={nonconvergent}/100")
