"""Smoke test of the benchmark.

    python3 -m pytest benchmarks/test_benchmark.py -q

Runs every workload end to end at a one-second run length, traced and
untraced, and shows that each output check fails on a deliberately
corrupted output: a perturbed forecast, a dropped finding, a swapped
trial row.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import portfolio  # noqa: E402
import run  # noqa: E402
from gridmc import ModelDocument, StepSession, cli, model  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workload import NPV_DOC, ROOT, WORKLOADS  # noqa: E402

SEED = 3
AUDIT_TRIALS = WORKLOADS["portfolio-audit"].trials_per_op


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_benchmark(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, "--workload", workload, "--seed", str(SEED),
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_smoke(workload, trace):
    proc = _run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _bench()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_benchmark("npv-run", 0, cwd=tmp_path,
                          script=str(tmp_path / "benchmarks" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _bench()["workloads"]] == list(WORKLOADS)


def test_check_failure_is_reported_not_raised(tmp_path):
    # no outputs at all: every check must report problems, not raise
    for name, w in WORKLOADS.items():
        doc_path, plan = w.document(SEED, str(tmp_path))
        problems = run.check(w, {"records": {"steps": None}}, str(tmp_path / "run"),
                             doc_path, SEED, plan)
        assert problems, name


# One session of npv-step in which each evaluate call first does a fixed
# amount of busy work, arithmetic that allocates nothing, so all its cost
# falls inside its own calls. Before the session it measures what that
# work costs at the reference speed: its raw time over the slowdown of
# samples taken between calls. Prints that cost, in seconds, last.
BUSY_CHILD = """
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
import workload
from gridmc import simulate
from speed import SpeedProbe

size, out = int(sys.argv[2]), sys.argv[3]


def busy():
    total = 0.0
    for i in range(size):
        total += i * 0.5
    return total


probe = SpeedProbe(workload.WORKLOADS["npv-step"].numpy_share)
raw = []
for _ in range(50):
    probe.sample()
    start = time.perf_counter()
    busy()
    raw.append(time.perf_counter() - start)
if size:
    evaluate = simulate.evaluate

    def slowed(*args, **kwargs):
        busy()
        return evaluate(*args, **kwargs)
    simulate.evaluate = slowed
workload.main(["--workload", "npv-step", "--seed", "3", "--seconds", "1",
               "--out", out, "--doc", workload.NPV_DOC])
print(json.dumps(statistics.median(raw) / statistics.median(probe.slowdowns)))
"""


def test_scaling_keeps_a_slowdown_of_the_program(tmp_path):
    """Busy work added inside model.evaluate must show in the scaled
    op_p50_ms at about its own cost, not be divided away by the speed
    samples taken during the operations."""
    def run_child(size):
        out = tmp_path / f"busy{size}"
        out.mkdir()
        proc = subprocess.run([sys.executable, "-c", BUSY_CHILD, HERE, str(size), str(out)],
                              capture_output=True, text=True, timeout=120, env=run.CHILD_ENV)
        assert proc.returncode == 0, proc.stderr
        result = json.loads((out / "result.json").read_text())
        return statistics.median(result["op_seconds"]), json.loads(proc.stdout.splitlines()[-1])

    base, _ = run_child(0)
    slowed, cost = run_child(150000)
    assert 0.75 * cost < slowed - base < 1.25 * cost, (base, slowed, cost)


def test_speed_samples_collect_no_garbage():
    # with the collector due, a sample must neither collect nor leave it off
    probe = SpeedProbe(0.5)
    collections = []

    def seen(phase, info):
        collections.append(phase)
    gc.collect()
    young = [[] for _ in range(gc.get_threshold()[0] - 10)]
    gc.callbacks.append(seen)
    try:
        probe.sample()
    finally:
        gc.callbacks.remove(seen)
    assert collections == [] and gc.isenabled() and len(young) > 0


def test_tracer_restores_the_package():
    original = model.evaluate
    tracer = Tracer()
    tracer.install()
    assert model.evaluate is not original
    tracer.uninstall()
    assert model.evaluate is original
    import gridmc.simulate
    assert gridmc.simulate.evaluate is original


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def npv_run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("npv-run")
    assert _quiet(["run", NPV_DOC, "--trials", "500", "--seed", str(SEED), "--out", str(out)]) == 0
    return out


def _edit_trials(src, dst, edit):
    shutil.copytree(src, dst)
    path = dst / "trials.csv"
    with open(path) as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return dst


def test_npv_run_check_passes(npv_run_dir):
    assert checks.check_npv_run(npv_run_dir, NPV_DOC, 500) == []


def test_npv_run_check_catches_perturbed_forecast(npv_run_dir, tmp_path):
    def perturb(rows):
        rows[8][-1] = repr(float(rows[8][-1]) * (1 + 1e-6))
    bad = _edit_trials(npv_run_dir, tmp_path / "bad", perturb)
    problems = checks.check_npv_run(bad, NPV_DOC, 500)
    assert any("reference NPV on trials [7]" in p for p in problems), problems


def test_npv_run_check_catches_swapped_row(npv_run_dir, tmp_path):
    def swap(rows):
        rows[4], rows[5] = rows[5], rows[4]
    bad = _edit_trials(npv_run_dir, tmp_path / "bad", swap)
    problems = checks.check_npv_run(bad, NPV_DOC, 500)
    assert any("in order" in p for p in problems), problems


@pytest.fixture(scope="module")
def audit_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("portfolio-audit")
    doc, plan = portfolio.generate(SEED)
    path = out / "portfolio.json"
    path.write_text(json.dumps(doc))
    code = _quiet(["audit", str(path), "--trials", str(AUDIT_TRIALS), "--seed", str(SEED),
                   "--out", str(out)])
    assert code == 2
    return out, doc, plan


def test_audit_check_passes(audit_run):
    out, doc, plan = audit_run
    assert checks.check_portfolio_audit(out, doc, plan, AUDIT_TRIALS, SEED) == []


def test_audit_check_catches_dropped_finding(audit_run, tmp_path):
    out, doc, plan = audit_run
    audit = json.loads((out / "audit.json").read_text())
    audit["findings"] = [f for f in audit["findings"] if f["kind"] != "LimitViolation"]
    (tmp_path / "audit.json").write_text(json.dumps(audit))
    problems = checks.check_portfolio_audit(tmp_path, doc, plan, AUDIT_TRIALS, SEED)
    assert any(p.startswith("findings") for p in problems), problems


def _steps(n):
    m, spec = ModelDocument.load(NPV_DOC).build(seed=SEED)
    return [(list(o.assumptions.values()), o.forecasts["ProjectNPV"])
            for o in StepSession(m, spec).run(n)]


def test_step_check_passes():
    assert checks.check_npv_step(_steps(30), NPV_DOC, SEED) == []


def test_step_check_catches_swapped_row():
    steps = _steps(30)
    steps[3], steps[4] = steps[4], steps[3]
    problems = checks.check_npv_step(steps, NPV_DOC, SEED)
    assert "step 3: assumptions differ from row 3 of the run" in problems
    assert "step 4: ProjectNPV differs from row 4 of the run" in problems


def test_step_check_catches_perturbed_forecast():
    steps = _steps(30)
    steps[6] = (steps[6][0], steps[6][1] * (1 + 1e-6))
    assert checks.check_npv_step(steps, NPV_DOC, SEED) == \
        ["step 6: ProjectNPV differs from row 6 of the run",
         "step 6: ProjectNPV differs from the reference NPV"]
