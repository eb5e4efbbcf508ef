"""Report assembly and file export (JSON + plot-ready CSV).

The per-trial tables, trials.csv and scenario.csv, are written
TRIALS_BLOCK rows at a time straight from the arrays: each block is one
`floattext.csv_rows` call, which gives every value the text Python's
`repr` gives it, computed for the whole block with integer arithmetic,
and one write. The export holds one block at a time, however many trials
ran. `write_csv` writes the small tables whose rows mix labels, counts
and None: errors.csv, histogram-*.csv and tornado.csv. Every file is
UTF-8, and a label with a comma, a double quote or a line break is
quoted as the csv module quotes it; a label without them keeps its bytes.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import analytics
from .simulate import TRIALS_BLOCK, Forecast, TrialStore


def write_json(path, payload) -> None:
    """Strict JSON: a NaN or an infinity is a ValueError, and no file is written."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_csv(path, header, rows) -> None:
    """A header and rows; text is quoted where it needs to be, and any
    other value is written as str writes it, None included."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv_line(header))
        for row in rows:
            fh.write(",".join(_csv_field(v) if isinstance(v, str) else str(v)
                              for v in row) + "\n")


def _csv_field(text: str) -> str:
    """text as one CSV field, in double quotes where it holds a comma, a
    double quote or a line break (the csv module's minimal quoting)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(fields) -> str:
    return ",".join(map(_csv_field, fields)) + "\n"


def forecast_report(store: TrialStore, f: Forecast, torn=None, sens=None) -> dict:
    """Analysis bundle for one of the store's forecasts.

    Stats and histogram are reported as null below 2 trials; the
    tornado (torn) and the sensitivity entries (sens) as null when not
    given.
    """
    enough = store.completed >= 2
    out = {"forecast": f.label, "cell": str(f.cell),
           "stats": analytics.forecast_stats(store, f.label).to_json() if enough else None,
           "histogram": analytics.histogram(store, f.label).to_json() if enough else None}
    certainties = []
    if f.target_lo is not None or f.target_hi is not None:
        certainties.append({
            "lo": f.target_lo,
            "hi": f.target_hi,
            "p": analytics.certainty(store, f.label, f.target_lo, f.target_hi),
        })
    out["certainty"] = certainties
    out["sensitivity"] = [e.to_json() for e in sens] if sens is not None else None
    out["tornado"] = torn.to_json() if torn is not None else None
    return out


def run_report(store: TrialStore, tornados: dict) -> dict:
    """report.json's payload; tornados is analytics.tornado's result, or {}."""
    # sensitivity needs 10 trials; it ranks each column once for every forecast
    sens = (analytics.sensitivity(store)
            if store.completed >= 10 and store.spec.assumptions else {})
    payload = {
        "model": None,  # filled by the CLI
        "seed": store.spec.seed,
        "trials": store.spec.trials,
        "completed": store.completed,
        "errors": len(store.errors),
        "forecasts": [
            forecast_report(store, f, tornados.get(f.label), sens.get(f.label))
            for f in store.spec.forecasts
        ],
    }
    return payload


def export_trials(store: TrialStore, path) -> None:
    _write_trial_table(path, ["trial"] + store.assumption_labels + store.forecast_labels,
                       store.trial_indices, store.assumption_matrix, store.forecast_matrix)


def export_scenario(store: TrialStore, subset: analytics.ScenarioSubset, label: str,
                    path) -> None:
    """scenario.csv: each trial of the subset, its assumptions and the value
    of the forecast that label names."""
    _write_trial_table(path, ["trial"] + store.assumption_labels + [label],
                       subset.indices, subset.assumptions, subset.forecasts[:, None])


def _write_trial_table(path, header, trials, *matrices) -> None:
    """The header, then a row of each trial and its rows of the matrices side
    by side, TRIALS_BLOCK rows per write."""
    # imported here: a command that writes no per-trial table never builds
    # the formatter's tables
    from . import floattext

    with open(path, "wb") as fh:
        fh.write(_csv_line(header).encode("utf-8"))
        for start in range(0, len(trials), TRIALS_BLOCK):
            block = slice(start, start + TRIALS_BLOCK)
            fh.write(floattext.csv_rows(trials[block], np.hstack([a[block] for a in matrices])))


def export_errors(store: TrialStore, path) -> None:
    write_csv(path, ["trial", "kind", "cell"],
              [[te.trial, te.error.kind.value, str(te.error.cell)]
               for te in store.errors])


def export_histogram(hist: dict, path) -> None:
    """hist is a report entry's "histogram": one row per bin, left edge and count."""
    rows = list(zip(hist["edges"][:-1], hist["counts"]))
    write_csv(path, ["edge", "count"], rows)


def export_tornado(torn, path) -> None:
    write_csv(path, ["label", "low", "high"],
              [[b.label, b.low, b.high] for b in torn.bars])


def out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)
