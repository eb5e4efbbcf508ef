"""Command-line front end.

Exit codes: 0 clean, 1 calculation-error halt, model build error or a
run that cannot complete (too few trials for the declared correlations,
an audit with fewer than 100 completed trials, every trial failing),
2 audit findings with severity error, 3 usage, schema or history-file
error, or a document that is not strict JSON.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import analytics, report
from .audit import Thresholds, run_audit
from .correlation import CorrelationError
from .document import DocumentError, ModelDocument
from .model import CalcError, ModelBuildError
from .simulate import SimulationError, StepSession, run

EXIT_OK = 0
EXIT_CALC_ERROR = 1
EXIT_AUDIT_ERROR = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _checked(kind, test, rule):
    """An argparse type: text that kind parses and whose value passes test."""
    def parse(text):
        try:
            value = kind(text)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridmc",
                     description="Monte Carlo simulation and logic auditing "
                                 "for grid-style formula models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out=True):
        p.add_argument("path", help="model document (JSON)")
        p.add_argument("--trials", type=_positive_int, default=None)
        p.add_argument("--seed", type=int, default=None)
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
    p.add_argument("--low", type=float, default=0.10)
    p.add_argument("--high", type=float, default=0.90)

    p = sub.add_parser("scenario", help="extract trials in a forecast range")
    add_common(p)
    p.add_argument("--forecast", default=None)
    p.add_argument("--min", type=_finite, default=None, dest="lo")
    p.add_argument("--max", type=_finite, default=None, dest="hi")
    p.add_argument("--apply", type=int, default=None, metavar="TRIAL",
                   help="bake this trial's inputs into a copy of the document")

    p = sub.add_parser("audit", help="run every logic-error detector")
    add_common(p)
    p.add_argument("--history", default=None, help="historical data CSV for back-casting")
    p.add_argument("--z", type=_positive_finite, default=Thresholds().z)
    p.add_argument("--epsilon", type=_non_negative_finite, default=Thresholds().epsilon)

    p = sub.add_parser("step", help="interactive single-step session")
    p.add_argument("path")
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=None)
    return parser


def _load(path) -> ModelDocument:
    try:
        return ModelDocument.load(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except DocumentError as exc:
        for d in exc.diagnostics:
            print(f"schema error: {d}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except ValueError as exc:
        print(f"error: not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build(doc: ModelDocument, args, stop_on_error=True):
    try:
        return doc.build(trials=getattr(args, "trials", None),
                         seed=getattr(args, "seed", None),
                         stop_on_error=stop_on_error)
    except ModelBuildError as exc:
        for d in exc.diagnostics:
            print(f"build error: {d}", file=sys.stderr)
        raise SystemExit(EXIT_CALC_ERROR)
    except (DocumentError, SimulationError) as exc:
        print(f"build error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CALC_ERROR)


def _forecast_name(spec, name):
    """--forecast as typed, or the first forecast's label; exit 3 if unknown."""
    name = name or spec.forecasts[0].label
    try:
        spec.forecast(name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return name


def cmd_validate(args) -> int:
    doc = _load(args.path)
    _build(doc, args)
    print("ok")
    return EXIT_OK


def cmd_run(args) -> int:
    doc = _load(args.path)
    model, spec = _build(doc, args, stop_on_error=not args.continue_on_error)
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
    for f in spec.forecasts:
        if store.completed >= 2:
            hist = analytics.histogram(store, f.label)
            report.export_histogram(
                hist, report.out_path(args.out, f"histogram-{report.safe_label(f.label)}.csv"))
    print(f"completed {store.completed}/{spec.trials} trials"
          + (f" ({len(store.errors)} errors recorded)" if store.errors else ""))
    return EXIT_OK


def cmd_tornado(args) -> int:
    doc = _load(args.path)
    model, spec = _build(doc, args)
    label = _forecast_name(spec, args.forecast)
    if not (0.0 < args.low < args.high < 1.0):
        print("error: need 0 < --low < --high < 1", file=sys.stderr)
        return EXIT_USAGE
    torn = analytics.tornado(model, spec, args.low, args.high)[spec.forecast(label).label]
    report.write_json(report.out_path(args.out, "tornado.json"),
                      {"forecast": label, **torn.to_json()})
    report.export_tornado(torn, report.out_path(args.out, "tornado.csv"))
    print(f"base {torn.base!r}")
    for b in torn.bars:
        print(f"{b.label}: swing {b.swing!r} direction {b.direction:+d}")
    return EXIT_OK


def cmd_scenario(args) -> int:
    doc = _load(args.path)
    model, spec = _build(doc, args)
    label = _forecast_name(spec, args.forecast)
    if args.lo is not None and args.hi is not None and args.lo > args.hi:
        print("error: --min must be <= --max", file=sys.stderr)
        return EXIT_USAGE
    store = run(model, spec)
    if store.dossier is not None:
        print(f"halted at trial {store.dossier.trial}: {store.dossier.error}")
        return EXIT_CALC_ERROR
    subset = analytics.scenario_filter(store, label, args.lo, args.hi)
    header = ["trial"] + store.assumption_labels + [label]
    rows = [[subset.indices[i]]
            + [float(v) for v in subset.assumptions[i]]
            + [float(subset.forecasts[i])]
            for i in range(len(subset.indices))]
    report.write_csv(report.out_path(args.out, "scenario.csv"), header, rows)
    print(f"{len(subset.indices)} of {store.completed} trials in range")

    if args.apply is not None:
        if args.apply not in subset.indices:
            print(f"error: trial {args.apply} is not in the scenario subset",
                  file=sys.stderr)
            return EXIT_USAGE
        i = subset.indices.index(args.apply)
        baked = doc.bake_scenario(spec, subset.assumptions[i], args.apply)
        path = report.out_path(args.out, f"{doc.name}.scenario{args.apply}.json")
        report.write_json(path, baked)
        print(f"wrote {path}")
    return EXIT_OK


def _read_history(path, spec, model):
    import csv
    with open(path) as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DocumentError(["history CSV is empty"])
    header = [h.strip() for h in rows[0]]
    a_labels = [model.label_of(c) for c in spec.assumption_cells]
    f_labels = [f.label for f in spec.forecasts]
    if header[:len(a_labels)] != a_labels:
        raise DocumentError(
            [f"history header must start with assumption labels {a_labels}, got {header}"])
    extra = header[len(a_labels):]
    observed_cols = None
    if extra:
        if extra != f_labels:
            raise DocumentError(
                [f"trailing history columns must be forecast labels {f_labels}, got {extra}"])
        observed_cols = True
    history, observed = [], [] if observed_cols else None
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DocumentError(
                [f"line {i} has {len(row)} values, the header has {len(header)}"])
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise DocumentError([f"line {i}: {exc}"]) from None
        for text, value in zip(row, values):
            if not math.isfinite(value):
                raise DocumentError([f"line {i}: non-finite value {text!r}"])
        history.append(values[:len(a_labels)])
        if observed_cols:
            observed.append(values[len(a_labels):])
    return history, observed


def cmd_audit(args) -> int:
    doc = _load(args.path)
    model, spec = _build(doc, args)
    thresholds = Thresholds(z=args.z, epsilon=args.epsilon)
    history = observed = None
    if args.history:
        try:
            history, observed = _read_history(args.history, spec, model)
        except FileNotFoundError:
            print(f"error: no such file: {args.history}", file=sys.stderr)
            return EXIT_USAGE
        except DocumentError as exc:
            for d in exc.diagnostics:
                print(f"history error: {d}", file=sys.stderr)
            return EXIT_USAGE
    audit_report = run_audit(model, spec, thresholds, history, observed)
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


def _print_outcome(session, outcome):
    if outcome.error is not None:
        print(f"trial {outcome.trial}: {outcome.error}")
        parts = [f"{c}={v!r}" for c, v in outcome.assumptions.items()]
        print("  assumptions: " + ", ".join(parts))
        return
    parts = [f"{c}={v!r}" for c, v in outcome.assumptions.items()]
    print(f"trial {outcome.trial}: " + ", ".join(parts))
    parts = [f"{k}={v!r}" for k, v in outcome.forecasts.items()]
    print("  forecasts: " + ", ".join(parts))


def cmd_step(args, stdin=None) -> int:
    doc = _load(args.path)
    model, spec = _build(doc, args)
    session = StepSession(model, spec)
    if session.notice:
        print(session.notice)
    stream = stdin if stdin is not None else sys.stdin
    for line in stream:
        words = line.split()
        if not words:
            continue
        cmd, rest = words[0].lower(), words[1:]
        try:
            if cmd == "quit":
                return EXIT_OK
            elif cmd == "step" and not rest:
                _print_outcome(session, session.step())
            elif cmd == "run" and len(rest) == 1 and rest[0].isdigit():
                for outcome in session.run(int(rest[0])):
                    _print_outcome(session, outcome)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    except (CorrelationError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CALC_ERROR


if __name__ == "__main__":
    sys.exit(main())
