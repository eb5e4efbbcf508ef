"""gridmc benchmark: one run of one workload.

    python3 benchmarks/run.py --workload npv-run --seed 1 --seconds 30 --trace 0

Workloads (see README.md):
  npv-run          `gridmc run examples/project-npv.json --trials 10000`, in-process
  portfolio-audit  `gridmc audit` on a 24-assumption document generated from the seed
  npv-step         `StepSession.step()` on project-npv.json, sessions of 400 steps

A run times set-up in fresh interpreters, then runs the workload's
operations for `--seconds` in a process of its own, then checks the
outputs. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workload
from speed import SpeedProbe
from tracing import UNITS

SETUPS = 7  # fresh-interpreter set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 150
# One BLAS thread: on a 2-CPU machine OpenBLAS's second thread waits on a
# core that other tenants share, which made audit times noisier and slower.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")

# Set-up as a user pays it: a fresh interpreter imports gridmc, loads and
# validates the document and builds the model, then says so.
SETUP_CODE = """import sys
sys.path.insert(0, sys.argv[1])
import gridmc
gridmc.ModelDocument.load(sys.argv[2]).build()
sys.stdout.write("built\\n")
sys.stdout.flush()
"""


def _setup_seconds(doc_path):
    """Median scaled set-up time, and the median raw one."""
    probe = SpeedProbe(numpy_share=1.0)  # start-up is imports: small calls, no evaluator
    scaled, raw = [], []
    for _ in range(SETUPS):
        probe.sample()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, workload.SRC, doc_path],
                                stdout=subprocess.PIPE, text=True, env=CHILD_ENV)
        line = proc.stdout.readline()
        end = time.perf_counter()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line != "built\n":
            raise SystemExit(f"set-up failed with exit code {proc.returncode}")
        probe.sample()
        raw.append(end - start)
        scaled.append(probe.scaled(start, end))
    return statistics.median(scaled), statistics.median(raw)


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(result, setup_s, trials_per_op):
    ops = result["op_seconds"]
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_p90_ms": (_p90(ops) * 1e3, "ms"),
        "trials_per_s": (trials_per_op * len(ops) / sum(ops), "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def check(w, result, run_dir, doc_path, seed, plan):
    """The workload's output check; a check that cannot read the outputs
    it needs, or raises, reports that as a problem."""
    try:
        return w.check(w, result["records"], run_dir, doc_path, seed, plan)
    except Exception as exc:
        return [f"the check raised {exc!r}"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(workload.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")

    w = workload.WORKLOADS[args.workload]
    out = os.path.join(workload.OUT, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    doc_path, plan = w.document(args.seed, out)

    setup_s, raw_setup_s = _setup_seconds(doc_path)
    child = [sys.executable, os.path.abspath(workload.__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", out, "--doc", doc_path]
    code = subprocess.run(child, timeout=CHILD_TIMEOUT_S, env=CHILD_ENV).returncode
    if code != 0:
        print(f"error: the workload process exited with {code}", file=sys.stderr)
        return 1
    with open(os.path.join(out, "result.json")) as fh:
        result = json.load(fh)

    problems = check(w, result, os.path.join(out, "run"), doc_path, args.seed, plan)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = len(result["ok"])
    failed = result["ok"].count(False)
    if problems:  # every operation wrote the checked output, so every one failed
        failed = attempted

    if args.trace:
        metrics = {name: (value, UNITS.get(name, "ms"))
                   for name, value in result["layers"].items()}
    else:
        metrics = end_to_end(result, setup_s, w.trials_per_op)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"{args.workload} unscaled: setup {raw_setup_s:.6g} s, op p50 "
          f"{statistics.median(result['raw_op_seconds']) * 1e3:.6g} ms", file=sys.stderr)
    print(f"{args.workload} attempted {attempted}, failed {failed}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
