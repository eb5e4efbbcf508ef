"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 benchmarks/steadiness.py

Runs every workload in BENCHMARK.json RUNS times with distinct seeds (set
A: seeds 1..10, then set B: seeds 11..20), untraced, for the run length
in BENCHMARK.json. For every end-to-end metric it prints each set's
median, quartiles and spread (interquartile range over median), the shift
of B's median against A's in the metric's worse direction, and the bound.
A metric is steady when both spreads (setup_s exempt) and the shift stay
within the bound; the aim is a spread below a third of it. Each run's
result line is appended to .bench_out/steadiness.jsonl.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10  # runs per set and workload
SETS = "AB"


def one_run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = os.path.join(ROOT, ".bench_out", "steadiness.jsonl")

    results = {}  # (set, workload) -> [result line]
    for s, name in enumerate(SETS):
        for i in range(RUNS):
            seed = s * RUNS + i + 1
            for w in workloads:
                r = one_run(bench, w, seed)
                results.setdefault((name, w), []).append(r)
                with open(log, "a") as fh:
                    fh.write(json.dumps({"set": name, "workload": w, "seed": seed, **r}) + "\n")
                print(f"set {name} seed {seed} {w}: correct {r['correct']} "
                      f"attempted {r['attempted']} failed {r['failed']}", file=sys.stderr)

    report(bench, workloads, results)


def report(bench, workloads, results):
    print(f"{RUNS} runs per set, {bench['run_seconds']} s each; "
          "spread = (Q3 - Q1) / median; shift = B's median against A's, + is worse")
    print(f"{'workload':16} {'metric':13} {'A median':>10} {'A Q1..Q3':>21} {'A spread':>8} "
          f"{'B median':>10} {'B Q1..Q3':>21} {'B spread':>8} {'shift':>7} {'bound':>6}")
    for w in workloads:
        for m in bench["end_to_end"]:
            name = m["name"]
            a, b = (summary([r["metrics"][name]["value"] for r in results[(s, w)]])
                    for s in SETS)
            sign = 1 if m["better"] == "lower" else -1
            print(f"{w:16} {name:13}"
                  + "".join(f" {x[0]:10.5g} {x[1]:10.5g}..{x[2]:<9.5g} {x[3]:8.3f}" for x in (a, b))
                  + f" {sign * (b[0] - a[0]) / a[0]:+7.3f} {m['bound']:6.2f}")
        for s in SETS:
            rs = results[(s, w)]
            print(f"{w:16} set {s}: all correct {all(r['correct'] for r in rs)}, "
                  f"failed/attempted {sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}")

if __name__ == "__main__":
    main()
