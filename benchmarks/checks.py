"""Output checks for the benchmark's workloads.

Each check compares gridmc's output with a computation made apart from
gridmc (plain Python, numpy, scipy) or with a property the method must
have. Each returns a list of problems; an empty list means the output is
correct. Tolerances are stated where they are used and in README.md.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import replace

import numpy as np
from scipy import stats

import portfolio

KS_MIN_P = 1e-6          # a correct sampler fails one KS test in a million
NPV_REL_TOL = 1e-9       # reference NPV vs ProjectNPV, relative to max(1, |NPV|)
STATS_REL_TOL = 1e-9     # report.json statistics vs numpy on trials.csv
SPEARMAN_BAND = 0.05     # induced Spearman rho vs its declared target
BINOMIAL_Z = 5.0         # error count vs n*p, in binomial standard deviations


def scipy_distribution(d):
    """The frozen scipy.stats distribution of a continuous document
    distribution."""
    t = d["type"]
    if t == "uniform":
        return stats.uniform(d["min"], d["max"] - d["min"])
    if t == "triangular":
        width = d["max"] - d["min"]
        return stats.triang((d["mode"] - d["min"]) / width, loc=d["min"], scale=width)
    if t == "normal":
        return stats.norm(d["mean"], d["sd"])
    if t == "lognormal":
        return stats.lognorm(d["log_sd"], scale=math.exp(d["log_mean"]))
    raise ValueError(f"no continuous scipy distribution for {t}")


def reference_npv(doc, year1_sales, sales_growth, cogs_growth, opex_pct):
    """project-npv.json's formulas in plain Python: five years of sales,
    COGS, gross profit, opex and tax floored at 0, discounted one period
    per year, less the investment."""
    const = {c["address"]: c["formula"] for c in doc["cells"]}
    rate, cogs_pct, tax_rate, investment = const["B1"], const["B6"], const["B7"], const["B8"]
    sales, cogs = year1_sales, year1_sales * cogs_pct
    total = 0.0
    for year in range(1, 6):
        if year > 1:
            sales *= 1 + sales_growth
            cogs *= 1 + cogs_growth
        gross = sales - cogs
        opex = sales * opex_pct
        tax = max(0.0, tax_rate * (gross - opex))
        total += (gross - opex - tax) / (1 + rate) ** year
    return total - investment


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


def check_npv_run(run_dir, doc_path, trials):
    """Outputs of `gridmc run project-npv.json --trials <trials>`."""
    problems = []
    with open(doc_path) as fh:
        doc = json.load(fh)
    labels = [a["cell"] for a in doc["assumptions"]]
    header, rows = _read_csv(os.path.join(run_dir, "trials.csv"))
    if header != ["trial"] + labels + ["ProjectNPV"]:
        return [f"trials.csv header {header}"]
    data = np.array(rows).reshape(len(rows), len(header))
    if [int(t) for t in data[:, 0]] != list(range(trials)):
        problems.append(f"trials.csv does not list trials 0..{trials - 1} once each, in order")
    bad = [int(r[0]) for r in rows
           if not _close(reference_npv(doc, *r[1:5]), r[5], NPV_REL_TOL)]
    if bad:
        problems.append(f"ProjectNPV differs from the reference NPV on trials {bad[:5]}")
    for j, a in enumerate(doc["assumptions"]):
        p = stats.kstest(data[:, 1 + j], scipy_distribution(a["distribution"]).cdf).pvalue
        if p < KS_MIN_P:
            problems.append(f"{a['cell']}: KS p-value {p:.3g} < {KS_MIN_P}")

    with open(os.path.join(run_dir, "report.json")) as fh:
        report = json.load(fh)
    npv = data[:, -1]
    if report["completed"] != trials or report["errors"] != 0:
        problems.append(f"report.json completed {report['completed']}, errors {report['errors']}")
    f = report["forecasts"][0]
    expected = {"mean": float(np.mean(npv)), "sd": float(np.std(npv)),
                "min": float(npv.min()), "max": float(npv.max())}
    for level, value in f["stats"]["percentiles"].items():
        expected[f"p{level}"] = float(np.percentile(npv, float(level)))
    got = dict(f["stats"], **{f"p{k}": v for k, v in f["stats"]["percentiles"].items()})
    for key, value in expected.items():
        if not _close(value, got[key], STATS_REL_TOL):
            problems.append(f"report.json {key} {got[key]!r} != numpy {value!r}")
    share = int(np.count_nonzero(npv >= 0)) / len(npv)
    if [c["p"] for c in f["certainty"]] != [share]:
        problems.append(f"certainty {f['certainty']} != share of NPV >= 0 {share!r}")
    hist = f["histogram"]
    if sum(hist["counts"]) != trials:
        problems.append(f"report.json histogram counts sum to {sum(hist['counts'])}")
    if hist["edges"][0] != npv.min() or hist["edges"][-1] != npv.max():
        problems.append("report.json histogram edges do not span [min, max]")
    _, hrows = _read_csv(os.path.join(run_dir, "histogram-ProjectNPV.csv"))
    if [r[0] for r in hrows] != hist["edges"][:-1] or sum(r[1] for r in hrows) != trials:
        problems.append("histogram-ProjectNPV.csv disagrees with report.json or the trial count")
    return problems


def check_npv_step(steps, doc_path, seed):
    """A session's steps [(assumption vector, ProjectNPV), ...] against a
    run with the same seed (stepping equals running) and the reference NPV."""
    from gridmc import ModelDocument, run
    with open(doc_path) as fh:
        doc = json.load(fh)
    model, spec = ModelDocument(doc).build(trials=len(steps), seed=seed)
    store = run(model, spec)
    problems = []
    for t, (vector, npv) in enumerate(steps):
        if list(vector) != store.assumption_matrix[t].tolist():
            problems.append(f"step {t}: assumptions differ from row {t} of the run")
        if npv != store.forecast_matrix[t, 0]:
            problems.append(f"step {t}: ProjectNPV differs from row {t} of the run")
        if not _close(reference_npv(doc, *vector), npv, NPV_REL_TOL):
            problems.append(f"step {t}: ProjectNPV differs from the reference NPV")
    return problems[:10]


def check_portfolio_audit(run_dir, doc, plan, trials, seed):
    """audit.json of `gridmc audit` on the generated portfolio document."""
    from gridmc import CalcError, ModelDocument, replay, run
    with open(os.path.join(run_dir, "audit.json")) as fh:
        audit = json.load(fh)
    findings = audit["findings"]
    got = sorted((f["kind"], tuple(f["cells"])) for f in findings)
    problems = []
    if got != plan["findings"]:
        problems.append(f"findings {got} != planted {plan['findings']}")
    model, spec = ModelDocument(doc).build(trials=trials, seed=seed)
    forecast = model.cell_by_name(portfolio.FORECAST_CELL)
    weights, dists = plan["weights"], plan["distributions"]

    for f in findings:
        kind, w = f["kind"], f.get("witness")
        ev = f["evidence"]
        if kind == "Disconnected":
            base = replay(model, spec, w)[forecast]
            j = portfolio.HARDCODED - 1
            for q in (0.1, 0.9):
                moved = list(w)
                moved[j] = float(scipy_distribution(dists[j + 1]).ppf(q))
                if replay(model, spec, moved)[forecast] != base:
                    problems.append("Disconnected witness: moving the assumption moves the forecast")
        elif kind == "LimitViolation":
            cell = model.cell_by_name(f["cells"][0])
            value = replay(model, spec, w)[cell]
            if not value < 0 or value != ev["worst_value"]:
                problems.append(f"LimitViolation witness replays to {value!r}")
        elif kind == "ErrorCensus":
            result = replay(model, spec, w)
            if (not isinstance(result, CalcError) or str(result.cell) != f["cells"][0]
                    or result.kind.value != ev["error_kind"]
                    or not w[portfolio.SQRT_ROOT - 1] < 0):
                problems.append(f"ErrorCensus witness replays to {result!r}")
            d = dists[portfolio.SQRT_ROOT]
            p = stats.norm.cdf(0.0, d["mean"], d["sd"])
            band = BINOMIAL_Z * math.sqrt(trials * p * (1 - p))
            if abs(ev["count"] - trials * p) > band:
                problems.append(f"ErrorCensus count {ev['count']} outside "
                                f"{trials * p:.1f} +/- {band:.1f}")
        elif kind == "SignMismatch":
            i = portfolio.WRONG_SIGN
            direction = np.sign(ev["tornado_high"] - ev["tornado_low"])
            if direction != np.sign(weights[i]) or direction == ev["declared_sign"]:
                problems.append(f"SignMismatch evidence {ev}")
        elif kind == "CorrelationMasking":
            if not (ev["spearman"] < 0 < weights[portfolio.MASKED]):
                problems.append(f"CorrelationMasking evidence {ev}")

    # A run with the same seed, outside the timed phase.
    spec = replace(spec, stop_on_error=False)
    store = run(model, spec)
    sums = [math.fsum(portfolio.forecast_terms(plan, row))
            for row in store.assumption_matrix.tolist()]
    if sums != store.forecast_matrix[:, 0].tolist():
        problems.append("a forecast differs from the fsum of weight x value for its row")
    for a, b, rho in plan["pairs"]:
        r = stats.spearmanr(store.assumption_matrix[:, a - 1],
                            store.assumption_matrix[:, b - 1]).statistic
        if abs(r - rho) > SPEARMAN_BAND:
            problems.append(f"Spearman(X{a:02d}, X{b:02d}) = {r:.3f}, target {rho}")
    full = _all_rows(store)
    if not np.all(full[:, portfolio.SQRT_ROOT - 1][store.trial_indices] >= 0):
        problems.append("a completed trial has a negative SQRT argument")
    negatives = int(np.count_nonzero(full[:, portfolio.SQRT_ROOT - 1] < 0))
    census = [f["evidence"]["count"] for f in findings if f["kind"] == "ErrorCensus"]
    if census != [negatives]:
        problems.append(f"ErrorCensus counts {census}, negative SQRT arguments {negatives}")
    plain = _all_rows(run(model, replace(spec, correlation=None)))
    if not np.array_equal(np.sort(full, axis=0), np.sort(plain, axis=0)):
        problems.append("sorted columns differ from an uncorrelated run's: marginals changed")
    return problems


def _all_rows(store):
    """Assumption matrix of every trial, failed ones included, in trial order."""
    full = np.empty((store.spec.trials, len(store.spec.assumptions)))
    full[store.trial_indices] = store.assumption_matrix
    for te in store.errors:
        full[te.trial] = te.assumptions
    return full
