"""Span tracing of gridmc from outside the package.

`Tracer.install()` replaces public functions of gridmc's modules with
wrappers that record one span per call (name, start, end, parent span,
operation) and a few counts; `uninstall()` puts the originals back. The
package itself is not changed: a function imported by name into another
module (`from .model import evaluate`) is replaced in every gridmc module
that holds it. Spans are kept in memory and written out by `write()`.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time


def _draws(tracer, args, kwargs, result):
    spec, n = args[0], args[1]
    tracer.count("distributions.draws", n * len(spec.assumptions))


def _trapped(tracer, args, kwargs, result):
    tracer.count("simulate.trials_trapped",
                 len(result.errors) + (result.dossier is not None))


def _findings(tracer, args, kwargs, result):
    tracer.count("audit.findings", len(result.findings))


def _bytes(tracer, args, kwargs, result):
    tracer.count("report.bytes_written", os.path.getsize(args[0]))


# (module, attribute, count hook). The span name is "<module>.<attribute>"
# without the "gridmc." prefix.
TARGETS = (
    ("gridmc.document", "ModelDocument.load", None),
    ("gridmc.document", "ModelDocument.build", None),
    ("gridmc.rng", "RandomSource.uniform_block", None),
    ("gridmc.simulate", "_sample_matrix", _draws),
    ("gridmc.simulate", "sample_assumptions", None),
    ("gridmc.correlation", "induce_rank_correlation", None),
    ("gridmc.model", "evaluate", None),
    ("gridmc.simulate", "run", _trapped),
    ("gridmc.simulate", "StepSession.step", None),
    ("gridmc.analytics", "forecast_stats", None),
    ("gridmc.analytics", "histogram", None),
    ("gridmc.analytics", "certainty", None),
    ("gridmc.analytics", "sensitivity", None),
    ("gridmc.analytics", "rank_average", None),
    ("gridmc.analytics", "tornado", None),
    ("gridmc.audit", "run_audit", _findings),
    ("gridmc.audit", "detect_disconnected", None),
    ("gridmc.audit", "check_signs", None),
    ("gridmc.audit", "check_limits", None),
    ("gridmc.audit", "check_intervals", None),
    ("gridmc.audit", "error_census", None),
    ("gridmc.report", "run_report", None),
    ("gridmc.report", "forecast_report", None),
    ("gridmc.report", "export_trials", None),
    ("gridmc.report", "export_errors", None),
    ("gridmc.report", "export_histogram", None),
    ("gridmc.report", "write_json", _bytes),
    ("gridmc.report", "write_csv", _bytes),
    ("gridmc.cli", "main", None),
)

OP = "op"  # the benchmark's own span around each operation

# Per-layer metrics made of span self times, summed within an operation.
SELF_TIME_MS = {
    "rng.uniform_block_ms": ("rng.RandomSource.uniform_block",),
    "distributions.sample_ms": ("simulate._sample_matrix", "simulate.sample_assumptions"),
    "correlation.induce_ms": ("correlation.induce_rank_correlation",),
    "model.evaluate_ms": ("model.evaluate",),
    "simulate.capture_ms": ("simulate.run",),
    "analytics.sensitivity_ms": ("analytics.sensitivity",),
    "analytics.rank_ms": ("analytics.rank_average",),
    "analytics.tornado_ms": ("analytics.tornado",),
    "analytics.stats_ms": ("analytics.forecast_stats", "analytics.histogram",
                           "analytics.certainty"),
    "audit.detectors_ms": ("audit.run_audit", "audit.detect_disconnected",
                           "audit.check_signs", "audit.check_limits",
                           "audit.check_intervals", "audit.error_census"),
    "report.export_ms": ("report.run_report", "report.forecast_report",
                         "report.export_trials", "report.export_errors",
                         "report.export_histogram", "report.write_json",
                         "report.write_csv"),
    "cli.overhead_ms": (OP, "cli.main"),
}
# Per-layer metrics made of whole span durations, summed within an operation.
INCLUSIVE_MS = {
    "simulate.run_ms": "simulate.run",
    "simulate.step_ms": "simulate.StepSession.step",
}
# Per-call metrics: the median self time of one call, operations or not.
PER_CALL_MS = {
    "document.load_ms": "document.ModelDocument.load",
    "document.build_ms": "document.ModelDocument.build",
}
COUNTS = ("distributions.draws", "simulate.trials_trapped", "audit.findings",
          "report.bytes_written")

UNITS = {"model.evaluate_calls": "count", "model.evaluate_us_per_trial": "us",
         "analytics.rank_calls": "count", "analytics.tornado_evaluations": "count",
         "distributions.draws": "count", "simulate.trials_trapped": "count",
         "audit.findings": "count", "report.bytes_written": "bytes",
         "trace.overhead_pct": "%"}


class Tracer:
    """Records a span for each call of a function it wrapped; install()
    wraps gridmc's functions and uninstall() unwraps them. One per run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, operation index)
        self.counts = []  # (operation index, name, amount)
        self.op = -1  # index of the operation in progress, -1 outside one
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original object)

    def count(self, name, amount):
        self.counts.append((self.op, name, amount))

    def wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def run_op(self, index, fn, *args):
        """Call fn(*args) as operation `index`, inside an "op" span."""
        self.op = index
        try:
            return self.wrap(OP, fn)(*args)
        finally:
            self.op = -1

    def install(self):
        gridmc_modules = [m for n, m in list(sys.modules.items())
                          if m is not None and (n == "gridmc" or n.startswith("gridmc."))]
        for module_name, attr, hook in TARGETS:
            module = sys.modules[module_name]
            name = module_name[len("gridmc."):] + "." + attr
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(name, raw.__func__, hook))
                else:
                    new = self.wrap(name, raw, hook)
                self._patches.append((cls, method, raw))
                setattr(cls, method, new)
                continue
            original = getattr(module, attr)
            new = self.wrap(name, original, hook)
            for m in gridmc_modules:
                if m.__dict__.get(attr) is original:
                    self._patches.append((m, attr, original))
                    setattr(m, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{op}\n")

    def layer_metrics(self, net, scale):
        """Per-layer metrics: times are medians over operations, counts are
        means over operations (every operation of a workload is alike).
        net(start, end) is the time between two instants less the speed
        samples taken between them, which belong to no layer; scale[op]
        multiplies the times of spans inside operation op."""
        duration = [net(start, end) for _, start, end, _, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += duration[i]
        ops = sorted({s[4] for s in self.spans if s[0] == OP})
        self_ms = {op: {} for op in ops}
        incl_ms = {op: {} for op in ops}
        calls = {op: {} for op in ops}
        tornado_evals = {op: 0 for op in ops}
        per_call = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            factor = scale.get(op, 1.0)
            own = (duration[i] - covered[i]) * 1e3 * factor
            if name in PER_CALL_MS.values():
                per_call.setdefault(name, []).append(own)
            if op < 0:
                continue
            self_ms[op][name] = self_ms[op].get(name, 0.0) + own
            incl_ms[op][name] = incl_ms[op].get(name, 0.0) + duration[i] * 1e3 * factor
            calls[op][name] = calls[op].get(name, 0) + 1
            if (name == "model.evaluate" and parent >= 0
                    and self.spans[parent][0] == "analytics.tornado"):
                tornado_evals[op] += 1
        counted = {op: {} for op in ops}
        for op, name, amount in self.counts:
            if op >= 0:
                counted[op][name] = counted[op].get(name, 0) + amount

        def med(values):
            return statistics.median(values) if values else 0.0

        out = {}
        for metric, span in PER_CALL_MS.items():
            out[metric] = med(per_call.get(span, []))
        for metric, names in SELF_TIME_MS.items():
            out[metric] = med([sum(self_ms[op].get(n, 0.0) for n in names) for op in ops])
        for metric, span in INCLUSIVE_MS.items():
            out[metric] = med([incl_ms[op].get(span, 0.0) for op in ops])
        n_ops = max(len(ops), 1)
        evaluate_calls = sum(calls[op].get("model.evaluate", 0) for op in ops)
        evaluate_ms = sum(self_ms[op].get("model.evaluate", 0.0) for op in ops)
        out["model.evaluate_calls"] = evaluate_calls / n_ops
        # One call evaluates one trial; a batch evaluator must count trials here.
        out["model.evaluate_us_per_trial"] = (
            evaluate_ms * 1e3 / evaluate_calls if evaluate_calls else 0.0)
        out["analytics.rank_calls"] = (
            sum(calls[op].get("analytics.rank_average", 0) for op in ops) / n_ops)
        out["analytics.tornado_evaluations"] = sum(tornado_evals.values()) / n_ops
        for name in COUNTS:
            out[name] = sum(counted[op].get(name, 0) for op in ops) / n_ops
        return out
