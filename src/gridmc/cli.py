"""Command-line front end.

Exit codes: 0 clean, 1 calculation-error halt, model build error (a
formula nested too deeply among them) or a run that cannot complete (too
few trials for the declared correlations, an audit with fewer than 100
completed trials, every trial failing), 2 audit findings with severity
error, 3 usage, schema or history-file error, a document that is not
strict JSON, or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from array import array

import numpy as np

from . import analytics, report
from .audit import Thresholds, run_audit
from .correlation import CorrelationError
from .document import DocumentError, ModelDocument
from .formula import _BARE_RE
from .model import CalcError, ModelBuildError
from .simulate import SimulationError, StepSession, file_stem, histogram_file, run

EXIT_OK = 0
EXIT_CALC_ERROR = 1
EXIT_AUDIT_ERROR = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _number(text: str, kind=float):
    """kind(text) for a number from outside the program: once stripped, the
    text must be a cell's bare literal (formula._BARE_RE), so `1_0`, `+5` and
    non-ASCII digits are rejected. A text that float reads as nan or an
    infinity passes, for the caller to reject in its own words."""
    value = kind(text)
    if not _BARE_RE.fullmatch(text.strip()) and (kind is int or math.isfinite(value)):
        raise ValueError(f"could not convert string to {kind.__name__}: {text!r}")
    return value


def _checked(kind, test=lambda v: True, rule=""):
    """An argparse type: text that _number reads as kind and whose value
    passes test."""
    def parse(text):
        try:
            value = _number(text, kind)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}") from None
        if not test(value):
            raise argparse.ArgumentTypeError(rule)
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "must be >= 1")
_finite = _checked(float, math.isfinite, "must be finite")
_positive_finite = _checked(float, lambda v: math.isfinite(v) and v > 0,
                            "must be finite and > 0")
_non_negative_finite = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                                "must be finite and >= 0")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, shared by every main call: parse_args keeps
    no state between calls. Callers must not change it."""
    parser = _Parser(prog="gridmc",
                     description="Monte Carlo simulation and logic auditing "
                                 "for grid-style formula models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out=True):
        p.add_argument("path", help="model document (JSON)")
        p.add_argument("--trials", type=_positive_int, default=None)
        p.add_argument("--seed", type=_checked(int), default=None)
        if out:
            p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("validate", help="check a model document")
    p.add_argument("path")

    p = sub.add_parser("run", help="run a simulation and write reports")
    add_common(p)
    p.add_argument("--continue-on-error", action="store_true",
                   help="record failing trials instead of halting")

    p = sub.add_parser("tornado", help="one-at-a-time sensitivity sweep")
    add_common(p)
    p.add_argument("--forecast", default=None, help="forecast label (default: first)")
    p.add_argument("--low", type=_checked(float), default=0.10)
    p.add_argument("--high", type=_checked(float), default=0.90)

    p = sub.add_parser("scenario", help="extract trials in a forecast range")
    add_common(p)
    p.add_argument("--forecast", default=None)
    p.add_argument("--min", type=_finite, default=None, dest="lo")
    p.add_argument("--max", type=_finite, default=None, dest="hi")
    p.add_argument("--apply", type=_checked(int), default=None, metavar="TRIAL",
                   help="bake this trial's inputs into a copy of the document")

    p = sub.add_parser("audit", help="run every logic-error detector")
    add_common(p)
    p.add_argument("--history", default=None, help="historical data CSV for back-casting")
    p.add_argument("--z", type=_positive_finite, default=Thresholds().z)
    p.add_argument("--epsilon", type=_non_negative_finite, default=Thresholds().epsilon)

    p = sub.add_parser("step", help="interactive single-step session")
    p.add_argument("path")
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--seed", type=_checked(int), default=None)
    return parser


def _load(path) -> ModelDocument:
    try:
        return ModelDocument.load(path)
    except DocumentError as exc:
        for d in exc.diagnostics:
            print(f"schema error: {d}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except ValueError as exc:
        print(f"error: not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build(doc: ModelDocument, args):
    try:
        return doc.build(trials=getattr(args, "trials", None),
                         seed=getattr(args, "seed", None),
                         stop_on_error=not getattr(args, "continue_on_error", False))
    except ModelBuildError as exc:
        for d in exc.diagnostics:
            print(f"build error: {d}", file=sys.stderr)
        raise SystemExit(EXIT_CALC_ERROR)
    except (DocumentError, SimulationError) as exc:
        print(f"build error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CALC_ERROR)


def _forecast_name(model, spec, name):
    """(--forecast as typed or the first forecast's label, its forecast); exit 3 if none."""
    name = name or spec.forecasts[0].label
    try:
        return name, spec.forecasts[spec.forecast_index(model, name)]
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_validate(args, doc, model, spec) -> int:
    print("ok")
    return EXIT_OK


def cmd_run(args, doc, model, spec) -> int:
    store = run(model, spec)
    report.export_trials(store, report.out_path(args.out, "trials.csv"))
    if store.errors:
        report.export_errors(store, report.out_path(args.out, "errors.csv"))

    if store.dossier is not None:
        d = store.dossier
        report.write_json(report.out_path(args.out, "dossier.json"), d.to_json())
        print(f"halted at trial {d.trial}: {d.error}")
        print(f"assumption vector: {list(d.assumptions)}")
        return EXIT_CALC_ERROR

    tornados = analytics.tornado(model, spec) if spec.assumptions else {}
    payload = report.run_report(store, tornados)
    payload["model"] = doc.name
    report.write_json(report.out_path(args.out, "report.json"), payload)
    for f, entry in zip(spec.forecasts, payload["forecasts"]):
        if entry["histogram"] is not None:
            report.export_histogram(entry["histogram"],
                                    report.out_path(args.out, histogram_file(f.label)))
    print(f"completed {store.completed}/{spec.trials} trials"
          + (f" ({len(store.errors)} errors recorded)" if store.errors else ""))
    return EXIT_OK


def cmd_tornado(args, doc, model, spec) -> int:
    label, forecast = _forecast_name(model, spec, args.forecast)
    if not (0.0 < args.low < args.high < 1.0):
        print("error: need 0 < --low < --high < 1", file=sys.stderr)
        return EXIT_USAGE
    torn = analytics.tornado(model, spec, args.low, args.high)[forecast.label]
    report.write_json(report.out_path(args.out, "tornado.json"),
                      {"forecast": label, **torn.to_json()})
    report.export_tornado(torn, report.out_path(args.out, "tornado.csv"))
    print(f"base {torn.base!r}")
    for b in torn.bars:
        print(f"{b.label}: " + (b.error or f"swing {b.swing!r} direction {b.direction:+d}"))
    return EXIT_OK


def cmd_scenario(args, doc, model, spec) -> int:
    label, _ = _forecast_name(model, spec, args.forecast)
    if args.lo is not None and args.hi is not None and args.lo > args.hi:
        print("error: --min must be <= --max", file=sys.stderr)
        return EXIT_USAGE
    store = run(model, spec)
    if store.dossier is not None:
        print(f"halted at trial {store.dossier.trial}: {store.dossier.error}")
        return EXIT_CALC_ERROR
    subset = analytics.scenario_filter(store, label, args.lo, args.hi)
    report.export_scenario(store, subset, label, report.out_path(args.out, "scenario.csv"))
    print(f"{len(subset.indices)} of {store.completed} trials in range")

    if args.apply is not None:
        if args.apply not in subset.indices:
            print(f"error: trial {args.apply} is not in the scenario subset",
                  file=sys.stderr)
            return EXIT_USAGE
        i = subset.indices.index(args.apply)
        baked = doc.bake_scenario(spec, subset.assumptions[i], args.apply)
        path = report.out_path(args.out, f"{file_stem(doc.name)}.scenario{args.apply}.json")
        report.write_json(path, baked)
        print(f"wrote {path}")
    return EXIT_OK


def _read_history(path, spec, model) -> np.ndarray:
    """The n × k float matrix of a history CSV's assumption columns; forecast
    columns after them are checked, not kept. An error names its physical
    line: a quoted line break in a label makes the header span lines."""
    import csv
    a_labels = [model.label_of(c) for c in spec.assumption_cells]
    f_labels = [f.label for f in spec.forecasts]
    values = array("d")  # the rows' assumption values, one after another
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DocumentError(["history CSV is empty"])
            first = next(reader, None)
            if first is None:
                raise DocumentError(["history CSV has a header but no rows"])
            header = [h.strip() for h in header]
            if header[:len(a_labels)] != [label.strip() for label in a_labels]:
                raise DocumentError([f"history header must start with assumption labels "
                                     f"{a_labels}, got {header}"])
            extra = header[len(a_labels):]
            if extra and extra != [label.strip() for label in f_labels]:
                raise DocumentError([f"trailing history columns must be forecast labels "
                                     f"{f_labels}, got {extra}"])
            for rows, row in enumerate(itertools.chain([first], reader), 1):
                line = reader.line_num
                if len(row) != len(header):
                    raise DocumentError(
                        [f"line {line} has {len(row)} values, the header has {len(header)}"])
                try:
                    numbers = [_number(v) for v in row]
                except ValueError as exc:
                    raise DocumentError([f"line {line}: {exc}"]) from None
                for text, value in zip(row, numbers):
                    if not math.isfinite(value):
                        raise DocumentError([f"line {line}: non-finite value {text!r}"])
                values.extend(numbers[:len(a_labels)])
    except UnicodeDecodeError as exc:
        raise DocumentError([f"not UTF-8 text: {exc}"]) from None
    return np.frombuffer(values).reshape(rows, len(a_labels))


def cmd_audit(args, doc, model, spec) -> int:
    thresholds = Thresholds(z=args.z, epsilon=args.epsilon)
    history = None
    if args.history:
        try:
            history = _read_history(args.history, spec, model)
        except DocumentError as exc:
            for d in exc.diagnostics:
                print(f"history error: {d}", file=sys.stderr)
            return EXIT_USAGE
    audit_report = run_audit(model, spec, thresholds, history)
    report.write_json(report.out_path(args.out, "audit.json"), audit_report.to_json())
    if audit_report.findings:
        for f in audit_report.findings:
            print(f"{f.severity}: {f.kind.value} {list(f.cells)} {f.evidence}")
    else:
        print("no findings")
    return EXIT_AUDIT_ERROR if audit_report.has_errors else EXIT_OK


_STEP_HELP = """commands:
  step      run one trial and print its assumptions and forecasts
  show C    print the current value of cell C
  trace C   print C's formula and the values of its direct precedents
  run N     run N trials
  reset     restart the session at trial 0
  quit      leave the session"""


def _print_outcome(outcome):
    assumptions = ", ".join(f"{c}={v!r}" for c, v in outcome.assumptions.items())
    if outcome.error is not None:
        print(f"trial {outcome.trial}: {outcome.error}")
        print("  assumptions: " + assumptions)
    else:
        print(f"trial {outcome.trial}: " + assumptions)
        print("  forecasts: " + ", ".join(f"{k}={v!r}" for k, v in outcome.forecasts.items()))


def cmd_step(args, doc, model, spec) -> int:
    session = StepSession(model, spec)
    for line in sys.stdin:
        words = line.split()
        if not words:
            continue
        cmd, rest = words[0].lower(), words[1:]
        try:
            if cmd == "quit":
                return EXIT_OK
            elif cmd == "step" and not rest:
                _print_outcome(session.step())
            elif cmd == "run" and len(rest) == 1 and rest[0].isascii() and rest[0].isdigit():
                for _ in range(int(rest[0])):
                    _print_outcome(session.step())
            elif cmd == "show" and len(rest) == 1:
                print(f"{rest[0]} = {session.show(rest[0])!r}")
            elif cmd == "trace" and len(rest) == 1:
                source, precedents = session.trace(rest[0])
                print(f"{rest[0]}: {source}")
                for ref, value in precedents:
                    print(f"  {ref} = {value!r}")
            elif cmd == "reset" and not rest:
                session.reset()
                print("reset to trial 0")
            else:
                print(_STEP_HELP)
        except KeyError as exc:
            print(f"error: {exc.args[0]}")
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "run": cmd_run,
    "tornado": cmd_tornado,
    "scenario": cmd_scenario,
    "audit": cmd_audit,
    "step": cmd_step,
}


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):  # a character it cannot encode prints escaped (\u20ac)
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        doc = _load(args.path)
        return _COMMANDS[args.command](args, doc, *_build(doc, args))
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    except (CorrelationError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CALC_ERROR
    except OSError as exc:  # a document, history or output path
        reason = "no such file" if isinstance(exc, FileNotFoundError) else exc.strerror.lower()
        print(f"error: {reason}: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
