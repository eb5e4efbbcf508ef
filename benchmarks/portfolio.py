"""Seeded generator of the `portfolio-audit` model document.

The document is a weighted sum of 24 assumptions (four of each of the six
distribution kinds) with one forecast, three declared correlated pairs and
six planted defects at fixed cells. The seed draws every parameter and
weight; the defects stay where they are, so the audit must always report
the same set of findings. The generator returns the document together with
a plan that says, independently of gridmc, what the model computes and
which findings it must produce.
"""

from __future__ import annotations

import math

import numpy as np

N_ASSUMPTIONS = 24
KINDS = ("uniform", "triangular", "normal", "lognormal", "discrete_uniform", "custom")
FORECAST_CELL = "F1"
FORECAST_LABEL = "Portfolio"

# Planted defects, by assumption index (1-based; cell A<i> holds X<i>).
HARDCODED = 1    # uniform: its term cell C1 holds a typed-in constant
WRONG_SIGN = 2   # triangular: negative weight, declared "+"
SQRT_ROOT = 3    # normal: term is w * SQRT(X3), negative on a few per cent
LIMITED = 7      # uniform straddling 0: term cell C7 declared min 0
MASKED = 9       # normal, small positive weight, correlated 0.8 with MASKER
MASKER = 15      # normal, large negative weight
CORRELATED_PAIRS = ((MASKED, MASKER, 0.8), (4, 10, -0.4), (13, 20, 0.5))
CORRECT_SIGNS = (8, 14, MASKER)


def _r(rng, lo, hi, digits=4):
    return round(float(rng.uniform(lo, hi)), digits)


def _distribution(rng, i):
    kind = KINDS[(i - 1) % 6]
    if i == LIMITED:
        return {"type": "uniform", "min": -_r(rng, 0.3, 0.6), "max": _r(rng, 1.5, 2.5)}
    if i == SQRT_ROOT:
        sd = _r(rng, 0.2, 0.4)
        # mean = z * sd with z in [1.75, 2.05]: P(X < 0) between 2% and 4%
        return {"type": "normal", "mean": round(sd * float(rng.uniform(1.75, 2.05)), 6),
                "sd": sd}
    if i in (MASKED, MASKER):
        return {"type": "normal", "mean": _r(rng, 1.0, 3.0), "sd": _r(rng, 1.5, 2.0)}
    if kind == "uniform":
        lo = _r(rng, 0.5, 2.0)
        return {"type": "uniform", "min": lo, "max": round(lo + _r(rng, 0.5, 1.5), 4)}
    if kind == "triangular":
        lo = _r(rng, 0.5, 2.0)
        mode = round(lo + _r(rng, 0.2, 1.0), 4)
        return {"type": "triangular", "min": lo, "mode": mode,
                "max": round(mode + _r(rng, 0.2, 1.0), 4)}
    if kind == "normal":
        return {"type": "normal", "mean": _r(rng, 1.0, 3.0), "sd": _r(rng, 0.1, 0.4)}
    if kind == "lognormal":
        return {"type": "lognormal", "log_mean": _r(rng, -0.2, 0.5),
                "log_sd": _r(rng, 0.1, 0.3)}
    if kind == "discrete_uniform":
        lo = int(rng.integers(1, 4))
        return {"type": "discrete_uniform", "lo": lo, "hi": lo + int(rng.integers(2, 6))}
    # custom: four distinct atoms, each with probability >= 0.1, so the
    # tornado's 10% and 90% quantiles fall on different atoms
    values = sorted(int(v) / 100 for v in rng.choice(np.arange(50, 301), 4, replace=False))
    cents = 10 + rng.multinomial(60, [0.25] * 4)
    return {"type": "custom",
            "pairs": [[v, int(c) / 100] for v, c in zip(values, cents)]}


def _weight(rng, i):
    if i == WRONG_SIGN:
        return -_r(rng, 0.5, 1.2)
    if i == MASKED:
        return _r(rng, 0.2, 0.4)
    if i == MASKER:
        return -_r(rng, 2.5, 3.0)
    if i == LIMITED:
        return _r(rng, 0.5, 1.2)
    return float(rng.choice([-1.0, 1.0])) * _r(rng, 0.3, 1.2)


def _mean_sd(dist):
    """Analytic mean and standard deviation of one assumption."""
    t = dist["type"]
    if t == "uniform":
        a, b = dist["min"], dist["max"]
        return (a + b) / 2, (b - a) / math.sqrt(12)
    if t == "triangular":
        a, m, b = dist["min"], dist["mode"], dist["max"]
        return (a + m + b) / 3, math.sqrt((a * a + m * m + b * b - a * m - a * b - m * b) / 18)
    if t == "normal":
        return dist["mean"], dist["sd"]
    if t == "lognormal":
        mu, s = dist["log_mean"], dist["log_sd"]
        mean = math.exp(mu + s * s / 2)
        return mean, mean * math.sqrt(math.exp(s * s) - 1)
    if t == "discrete_uniform":
        n = dist["hi"] - dist["lo"] + 1
        return (dist["lo"] + dist["hi"]) / 2, math.sqrt((n * n - 1) / 12)
    m = math.fsum(v * p for v, p in dist["pairs"])
    return m, math.sqrt(math.fsum(p * (v - m) ** 2 for v, p in dist["pairs"]))


def generate(seed: int):
    """Return (document, plan) for this seed."""
    rng = np.random.default_rng(seed)
    dists = {i: _distribution(rng, i) for i in range(1, N_ASSUMPTIONS + 1)}
    weights = {i: _weight(rng, i) for i in range(1, N_ASSUMPTIONS + 1)}
    u = dists[HARDCODED]
    hardcoded_value = round(weights[HARDCODED] * (u["min"] + u["max"]) / 2, 4)

    cells = [{"address": f"A{i}", "label": f"X{i:02d}", "formula": 0}
             for i in range(1, N_ASSUMPTIONS + 1)]
    cells.append({"address": f"C{HARDCODED}", "formula": hardcoded_value})
    cells.append({"address": f"D{SQRT_ROOT}", "label": "Root", "formula": f"=SQRT(A{SQRT_ROOT})"})
    cells.append({"address": f"C{LIMITED}", "label": "Margin",
                  "formula": f"=A{LIMITED}*{weights[LIMITED]!r}"})
    terms = []
    for i in range(1, N_ASSUMPTIONS + 1):
        if i in (HARDCODED, LIMITED):
            terms.append(f"C{i}")
        elif i == SQRT_ROOT:
            terms.append(f"D{i}*{weights[i]!r}")
        else:
            terms.append(f"A{i}*{weights[i]!r}")
    cells.append({"address": FORECAST_CELL, "label": FORECAST_LABEL,
                  "formula": "=SUM(" + ",".join(terms) + ")"})

    # Analytic moments of the forecast, ignoring correlation; only used to
    # place an expected interval the forecast certainly leaves.
    mean = var = 0.0
    for i in range(1, N_ASSUMPTIONS + 1):
        if i == HARDCODED:
            mean += hardcoded_value
            continue
        m, s = _mean_sd(dists[i])
        if i == SQRT_ROOT:
            m, s = math.sqrt(m), s / (2 * math.sqrt(m))
        mean += weights[i] * m
        var += (weights[i] * s) ** 2
    half = 0.05 * math.sqrt(var)

    doc = {
        "name": f"portfolio-{seed}",
        "cells": cells,
        "assumptions": [{"cell": f"X{i:02d}", "distribution": dists[i]}
                        for i in range(1, N_ASSUMPTIONS + 1)],
        "correlations": [{"a": f"X{a:02d}", "b": f"X{b:02d}", "rho": rho}
                         for a, b, rho in CORRELATED_PAIRS],
        "forecasts": [{"cell": FORECAST_CELL, "label": FORECAST_LABEL}],
        "limits": [{"cell": f"C{LIMITED}", "min": 0}],
        "expectations": (
            [{"assumption": f"X{WRONG_SIGN:02d}", "forecast": FORECAST_LABEL, "sign": "+"},
             {"assumption": f"X{MASKED:02d}", "forecast": FORECAST_LABEL, "sign": "+"}]
            + [{"assumption": f"X{i:02d}", "forecast": FORECAST_LABEL,
                "sign": "+" if weights[i] > 0 else "-"} for i in CORRECT_SIGNS]),
        "expected_intervals": [{"forecast": FORECAST_LABEL,
                                "lo": round(mean - half, 4), "hi": round(mean + half, 4)}],
    }
    plan = {
        "distributions": dists,
        "weights": weights,
        "hardcoded_value": hardcoded_value,
        "pairs": CORRELATED_PAIRS,
        # (kind, cells) of every finding the audit must report, and no other
        "findings": sorted([
            ("Disconnected", (f"A{HARDCODED}", FORECAST_CELL)),
            ("SignMismatch", (f"A{WRONG_SIGN}", FORECAST_CELL)),
            ("CorrelationMasking", (f"A{MASKED}", FORECAST_CELL)),
            ("LimitViolation", (f"C{LIMITED}",)),
            ("IntervalBreach", (FORECAST_CELL,)),
            ("ErrorCensus", (f"D{SQRT_ROOT}",)),
        ]),
    }
    return doc, plan


def forecast_terms(plan, x):
    """The forecast's summands for one assumption row x (x[0] is X01)."""
    w = plan["weights"]
    terms = []
    for i in range(1, N_ASSUMPTIONS + 1):
        if i == HARDCODED:
            terms.append(plan["hardcoded_value"])
        elif i == SQRT_ROOT:
            terms.append(math.sqrt(x[i - 1]) * w[i])
        else:
            terms.append(x[i - 1] * w[i])
    return terms
