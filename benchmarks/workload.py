"""The benchmark's workloads, and the timed phase of one run.

`WORKLOADS` defines each workload in one place: its input document, the
operation it repeats, the trials one operation completes, its share of
numpy-call work and the check of its outputs. Run as a script, this module
is the timed phase of one run, in a process of its own: it runs whole
rounds of one workload's operation until `--seconds` have passed, timing
each operation, and writes the timings, the outcome of every operation and
what the checks need to `<out>/result.json`. With `--trace 1` rounds
alternate between traced and untraced, so the tracing overhead is measured
on the same process and inputs.

Run it through `run.py`, which also times set-up and checks the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NPV_DOC = os.path.join(ROOT, "examples", "project-npv.json")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, SRC)
try:
    import gridmc
except ImportError as exc:
    raise SystemExit(f"error: cannot import gridmc from {SRC} ({exc}); "
                     "run from a gridmc checkout")
if not os.path.abspath(gridmc.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"error: gridmc was imported from {gridmc.__file__}, not from {SRC}")
if not os.path.isfile(NPV_DOC):
    raise SystemExit(f"error: {NPV_DOC} is missing; run from a gridmc checkout")

from gridmc import cli  # noqa: E402
from gridmc.document import ModelDocument  # noqa: E402
from gridmc.simulate import StepSession  # noqa: E402

import portfolio  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402

STEPS_PER_SESSION = 400
RUN_OUTPUTS = ("report.json", "trials.csv", "histogram-ProjectNPV.csv")


def _npv_document(seed, out):
    return NPV_DOC, None


def _portfolio_document(seed, out):
    doc, plan = portfolio.generate(seed)
    path = os.path.join(out, "portfolio.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path, plan


# The checks import `checks` when they run: it loads scipy, which must stay
# out of the workload process, whose peak RSS and heap are gridmc's.

def _check_run(w, records, run_dir, doc_path, seed, plan):
    import checks
    return checks.check_npv_run(run_dir, doc_path, w.trials_per_op)


def _check_audit(w, records, run_dir, doc_path, seed, plan):
    import checks
    with open(doc_path) as fh:
        doc = json.load(fh)
    return checks.check_portfolio_audit(run_dir, doc, plan, w.trials_per_op, seed)


def _check_step(w, records, run_dir, doc_path, seed, plan):
    steps = records.get("steps") or []
    if len(steps) != STEPS_PER_SESSION:
        return [f"{len(steps)} steps recorded, not {STEPS_PER_SESSION}"]
    import checks
    return checks.check_npv_step(steps, doc_path, seed)


@dataclass(frozen=True)
class Workload:
    """One workload. A CLI workload's operation is one in-process
    `gridmc <command> <doc> --trials <trials_per_op> --seed S --out D` that
    must exit with `expect` and write `outputs`; without a command, an
    operation is one `StepSession.step()`."""

    trials_per_op: int  # trials one operation completes
    # Share of an operation's time outside the per-trial evaluator, which
    # blends the two reference loops of speed.py: 1 less the
    # model.evaluate_ms share of trace.op_p50_ms in README.md's traced
    # figures, rounded to 0.05.
    numpy_share: float
    document: Callable  # (seed, out directory) -> (document path, plan or None)
    check: Callable  # (self, records, run directory, document path, seed, plan) -> problems
    command: Optional[str] = None
    expect: Optional[int] = None
    outputs: tuple = ()

    def operations(self, seed, doc_path, run_dir):
        if self.command is None:
            return StepWorkload(seed, doc_path)
        argv = [self.command, doc_path, "--trials", str(self.trials_per_op),
                "--seed", str(seed), "--out", run_dir]
        return CliWorkload(argv, self.expect, self.outputs, run_dir)


WORKLOADS = {
    "npv-run": Workload(10000, 0.5, _npv_document, _check_run,
                        command="run", expect=0, outputs=RUN_OUTPUTS),
    "portfolio-audit": Workload(1000, 0.9, _portfolio_document, _check_audit,
                                command="audit", expect=2, outputs=("audit.json",)),
    "npv-step": Workload(1, 1.0, _npv_document, _check_step),
}


def _digest(out, names):
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class CliWorkload:
    """A round is one in-process `gridmc` command. Every operation must
    exit with `expect` and write the same bytes as the first."""

    def __init__(self, argv, expect, outputs, out):
        self.argv, self.expect, self.outputs, self.out = argv, expect, outputs, out
        self.first_digest = None

    def round(self, call):
        """Run one round through call(fn, *args); return each operation's ok."""
        with contextlib.redirect_stdout(io.StringIO()):
            code = call(cli.main, self.argv)
        ok = code == self.expect
        if ok:
            digest = _digest(self.out, self.outputs)
            self.first_digest = self.first_digest or digest
            ok = digest == self.first_digest
        return [ok]

    def records(self):
        return {}


class StepWorkload:
    """A round is a fresh session of STEPS_PER_SESSION steps. Every
    session must step through the same trials as the first."""

    def __init__(self, seed, doc_path):
        self.model, self.spec = ModelDocument.load(doc_path).build(seed=seed)
        self.first = None

    def round(self, call):
        session = StepSession(self.model, self.spec)
        seen, results = [], []
        for t in range(STEPS_PER_SESSION):
            outcome = call(session.step)
            ok = outcome.error is None and outcome.trial == t
            row = (list(outcome.assumptions.values()), outcome.forecasts.get("ProjectNPV"))
            if self.first is not None:
                ok = ok and row == self.first[t]
            seen.append(row)
            results.append(ok)
        if self.first is None:
            self.first = seen
        return results

    def records(self):
        return {"steps": self.first}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--doc", required=True)
    args = p.parse_args(argv)

    w = WORKLOADS[args.workload]
    work = w.operations(args.seed, args.doc, os.path.join(args.out, "run"))
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        # one traced set-up, outside any operation, for the document.* layers
        tracer.install()
        ModelDocument.load(args.doc).build()
        tracer.uninstall()

    clock = time.perf_counter
    windows = []  # (start, end, traced) of every operation
    ok_flags = []
    rounds = 0
    round_seconds = 0.0
    with SpeedProbe(w.numpy_share) as probe:
        deadline = clock() + args.seconds
        while rounds < (2 if tracer else 1) or clock() + round_seconds <= deadline:
            traced = tracer is not None and rounds % 2 == 0

            def call(fn, *a):
                start = clock()
                try:
                    return tracer.run_op(len(windows), fn, *a) if traced else fn(*a)
                finally:
                    windows.append((start, clock(), traced))

            started, before = clock(), len(windows)
            if traced:
                tracer.install()
            try:
                ok_flags += work.round(call)
            except Exception as exc:  # a raise fails every operation of its round
                print(f"operation raised: {exc!r}", file=sys.stderr)
                ok_flags += [False] * (len(windows) - before)
            finally:
                if traced:
                    tracer.uninstall()
            round_seconds = clock() - started
            rounds += 1

    def op_seconds(traced, scaled):
        measure = probe.scaled if scaled else probe.net
        return [measure(start, end) for start, end, t in windows if t == traced]

    result = {
        "workload": args.workload,
        "op_seconds": op_seconds(False, True),
        "raw_op_seconds": op_seconds(False, False),
        "ok": ok_flags,
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": work.records(),
    }
    if tracer is not None:
        tracer.write(os.path.join(args.out, "spans.csv"))
        # span times are scaled by the factor of the operation they belong to
        layers = tracer.layer_metrics(probe.net, {
            op: probe.scaled(start, end) / probe.net(start, end)
            for op, (start, end, traced) in enumerate(windows) if traced})
        traced_p50 = statistics.median(op_seconds(True, True)) * 1e3
        untraced_p50 = statistics.median(op_seconds(False, True)) * 1e3
        layers["trace.op_p50_ms"] = traced_p50
        layers["trace.untraced_op_p50_ms"] = untraced_p50
        layers["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1.0) * 100.0
        result["layers"] = layers
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
