"""Golden digests: every output of gridmc's commands, bit for bit.

Each case runs one command in process, seed 7 at 2,000 trials, and
hashes its exit code, stdout, stderr and every file it writes.
`golden.json` holds the digests. `PYTHONPATH=src python -m tests.test_golden`,
run from the repository root, runs the cases and rewrites it. Do that
only for an intended output change, and say which in CHANGES.md.

The bits depend on the machine: numpy's SIMD `log` and libm's `exp` and
`pow` round differently on some CPUs. `golden.json` therefore also holds
digests of those three functions on a fixed probe vector. Where this
machine's differ, the cases skip and name the functions, since a digest
taken with other arithmetic says nothing about this code.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest

from gridmc.cli import main
from tests.conftest import EXAMPLES, example_path, portfolio_documents

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
EXAMPLE_NAMES = sorted(name[:-len(".json")] for name in os.listdir(EXAMPLES)
                       if name.endswith(".json"))
PORTFOLIO_SEEDS = (1, 5)
COMMON = ["--trials", "2000", "--seed", "7"]
COMMANDS = {
    "run": ["run"],
    "run --continue-on-error": ["run", "--continue-on-error"],
    "audit": ["audit"],
    "tornado": ["tornado"],
    "scenario --min 0": ["scenario", "--min", "0"],
}
STEP_SCRIPT = "step\nrun 3\nshow B16\ntrace B16\nshow Z99\nreset\nstep\nbogus\nquit\n"
CASE_NAMES = sorted([f"{command} {doc}" for command in COMMANDS
                     for doc in EXAMPLE_NAMES + [f"portfolio-{s}" for s in PORTFOLIO_SEEDS]]
                    + ["step project-npv"])


def _documents(tmp_dir):
    """{name: path} of the six examples and portfolio.generate(1) and (5)."""
    docs = {name: example_path(f"{name}.json") for name in EXAMPLE_NAMES}
    for seed, doc in zip(PORTFOLIO_SEEDS, portfolio_documents(PORTFOLIO_SEEDS)):
        path = os.path.join(tmp_dir, f"portfolio-{seed}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        docs[f"portfolio-{seed}"] = path
    return docs


def _cases(tmp_dir):
    """{case name: (argv without --out, stdin text or None)}."""
    cases = {f"{command} {name}": (argv[:1] + [path] + argv[1:] + COMMON, None)
             for name, path in _documents(tmp_dir).items()
             for command, argv in COMMANDS.items()}
    cases["step project-npv"] = (["step", example_path("project-npv.json")] + COMMON,
                                 STEP_SCRIPT)
    return cases


def run_case(argv, stdin, out_dir):
    """SHA-256 of the exit code, stdout, stderr and the files written to out_dir."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv if stdin is not None else argv + ["--out", out_dir])
    finally:
        sys.stdin = saved_stdin
    files = {}
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    record = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def probe_digests():
    """SHA-256 of the bits of np.log, math.exp and ** on a fixed probe vector.

    The probe is splitmix64 in Python integers, so it is the same on every
    machine; np.log runs on the whole array, as gridmc's arrays do.
    """
    mask, x, u = (1 << 64) - 1, 0, []
    for _ in range(1 << 14):
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        u.append(((z ^ (z >> 31)) >> 11) * 2.0 ** -53 + 2.0 ** -54)
    wide = np.array([v * 2.0 ** (i % 128 - 64) for i, v in enumerate(u)])
    results = {
        "np.log": np.log(wide),
        "math.exp": np.array([math.exp(100.0 * v - 50.0) for v in u]),
        "**": np.array([(0.5 + v) ** (i % 13 - 4 + (i % 2) * 0.5) for i, v in enumerate(u)]),
    }
    return {name: hashlib.sha256(bits.astype("<f8").tobytes()).hexdigest()
            for name, bits in results.items()}


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    differ = [name for name, digest in probe_digests().items()
              if golden["probe"].get(name) != digest]
    if differ:
        pytest.skip(f"golden.json was taken on a machine where {', '.join(differ)} "
                    f"rounded differently from here")
    return golden["cases"], _cases(str(tmp_path_factory.mktemp("docs")))


def test_every_case_has_a_digest(cases):
    digests, defined = cases
    assert sorted(digests) == sorted(defined) == CASE_NAMES


@pytest.mark.parametrize("name", CASE_NAMES)
def test_outputs_match_golden(name, cases, tmp_path):
    digests, defined = cases
    argv, stdin = defined[name]
    digest = run_case(argv, stdin, str(tmp_path))
    assert digest == digests[name], f"{name}: outputs changed; new digest {digest}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for name, (argv, stdin) in sorted(_cases(tmp).items()):
            out_dir = os.path.join(tmp, "out", name.replace(" ", "_"))
            os.makedirs(out_dir)
            digests[name] = run_case(argv, stdin, out_dir)
    with open(GOLDEN, "w") as fh:
        json.dump({"probe": probe_digests(), "cases": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
