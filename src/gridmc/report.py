"""Report assembly and file export (JSON + plot-ready CSV).

`export_trials` streams trials.csv rows to `write_csv`, converting them
to Python values TRIALS_BLOCK rows at a time straight from the
TrialStore's columns, so the export holds one block at a time, however
many trials ran.
"""

from __future__ import annotations

import json
import os

from . import analytics
from .simulate import Forecast, TrialStore

TRIALS_BLOCK = 1024  # trials.csv rows converted and written at a time


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def forecast_report(store: TrialStore, f: Forecast, torn=None, sens=None) -> dict:
    """Analysis bundle for one of the store's forecasts.

    Stats and histogram are reported as null below 2 trials; the
    tornado (torn) and the sensitivity entries (sens) as null when not
    given.
    """
    n = store.completed
    out = {"forecast": f.label, "cell": str(f.cell)}
    if n >= 2:
        out["stats"] = analytics.forecast_stats(store, f.label).to_json()
        out["histogram"] = analytics.histogram(store, f.label).to_json()
    else:
        out["stats"] = None
        out["histogram"] = None
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
    write_csv(path, ["trial"] + store.assumption_labels + store.forecast_labels,
              _trial_rows(store))


def _trial_rows(store: TrialStore):
    """trials.csv rows, converted TRIALS_BLOCK at a time straight from the
    store's columns."""
    for start in range(0, store.completed, TRIALS_BLOCK):
        block = slice(start, start + TRIALS_BLOCK)
        for t, a, f in zip(store.trial_indices[block].tolist(),
                           store.assumption_matrix[block].tolist(),
                           store.forecast_matrix[block].tolist()):
            yield [t, *a, *f]


def export_errors(store: TrialStore, path) -> None:
    write_csv(path, ["trial", "kind", "cell"],
              [[te.trial, te.error.kind.value, str(te.error.cell)]
               for te in store.errors])


def export_histogram(hist, path) -> None:
    # one row per bin: left edge, count
    rows = list(zip(hist.edges[:-1], hist.counts))
    write_csv(path, ["edge", "count"], rows)


def export_tornado(torn, path) -> None:
    write_csv(path, ["label", "low", "high"],
              [[b.label, b.low, b.high] for b in torn.bars])


def safe_label(label: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in label)


def out_path(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)
