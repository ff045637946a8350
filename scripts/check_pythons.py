#!/usr/bin/env python3
"""Check the recorded CLI reports, amplifier sweeps and split densities under other Pythons.

Usage: check_pythons.py PYTHON [PYTHON ...]

Runs the eight suites of treeamp.cli.SUITES, which `treeamp check`
runs, under each interpreter as `PYTHON -m treeamp.cli ...`, one process
per suite with PYTHONPATH set to this checkout's src, and compares each
exit code and the sha256 of each report on stdout with
perfbench/expected.json, which it only reads.  It also runs the two
seed-0 configurations of perfbench's amplifier_sweep (trivial/sl2 and
tempered/torus, Q = 400 ... 12800) under each interpreter, and compares
every window with its recorded values through perfbench's own check,
and computes splitting.empirical_density at the six (polynomial, limit)
pairs of perfbench's split_density and compares each fraction with its
record.  The reports pin CPython behaviour, such as the draws of
random.Random, so every supported Python must give the same bytes, the
same windows and the same fractions.  As denom-check's
report holds only verdicts, it also runs that suite in process with a
random.Random that logs every getrandbits and random result, and
compares the count, the sha256 and the first values of those results
with tests/denom_draws.json, which is that probe's output under the
interpreter that recorded it.

Prints one line per mismatch, then a summary line that counts each
sweep, the draw record and the six fractions as one report each.  Exits
0 when everything matches, 1 on any mismatch, and 2 with one stderr line
when no interpreter is given.
Uses the standard library and treeamp.cli only.
"""

import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from treeamp.cli import SUITES

ROOT = Path(__file__).resolve().parent.parent
SWEEPS = range(2)  # the configurations of amplifier_ops in perfbench/workloads.py
# prints the configuration's name, then one line per window that differs from its record
SWEEP = """import sys, workloads
op = workloads.amplifier_ops(0, workloads.load_expected())[int(sys.argv[1])]
print(op.label, *(f"{name}: {why}" for name, why in op.check(op.call()).items()), sep="\\n")
"""
# prints, as JSON, the generator results the denom-check suite consumes
DRAWS = """import hashlib, json, os, random
from treeamp import cli
results = []
class Logged(random.Random):
    def getrandbits(self, k):
        results.append(r := super().getrandbits(k))
        return r
    def random(self):
        results.append(r := super().random())
        return r
random.Random = Logged
argv = cli.SUITES["denom-check"]
assert cli.main([*argv, "--out", os.devnull]) == 0
print(json.dumps({"argv": " ".join(argv), "results": len(results), "first": results[:8],
                  "sha256": hashlib.sha256(repr(results).encode()).hexdigest()}))
"""
DRAWS_RECORD = ROOT / "tests" / "denom_draws.json"
# prints its name, then one line per (polynomial, limit) of the record in argv[1]
# whose density differs
DENSITY = """import json, sys
from treeamp.splitting import empirical_density, parse_poly
print("split_density fractions")
for text, limits in json.loads(sys.argv[1]).items():
    for limit, want in limits.items():
        x = empirical_density(parse_poly(text), int(limit))
        if f"{x.numerator}/{x.denominator}" != want:
            print(f"{text} limit={limit}: {x.numerator}/{x.denominator}, recorded {want}")
"""


def run(python: str, args: list[str], what: str, *path: Path):
    """The finished process, or the line saying why it did not run."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path)),
           "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run([python, *args], capture_output=True, cwd=ROOT, env=env,
                              timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"{python}: {what}: did not run: {exc}"


def mismatch(python: str, argv: list[str], recorded: dict) -> str | None:
    """None when the suite's exit code and report bytes match the record, else why not."""
    what, want = " ".join(argv), recorded[" ".join(argv)]
    proc = run(python, ["-m", "treeamp.cli", *argv], what, ROOT / "src")
    if isinstance(proc, str):
        return proc
    if proc.returncode != want["exit"]:
        return f"{python}: {what}: exit {proc.returncode}, recorded {want['exit']}"
    if hashlib.sha256(proc.stdout).hexdigest() != want["sha256"]:
        return f"{python}: {what}: report differs from the recorded sha256"
    return None


def probe_mismatch(python: str, what: str, args: list[str], *path: Path) -> str | None:
    """None when a probe that prints its name, then one line per value that
    differs from its record (SWEEP, DENSITY), exits 0 with its name alone,
    else why not."""
    proc = run(python, args, what, *path)
    if isinstance(proc, str):
        return proc
    if proc.returncode != 0:
        return f"{python}: {what}: exit {proc.returncode}, expected 0"
    name, *bad = proc.stdout.decode().splitlines()
    return f"{python}: {name}: {'; '.join(bad)}" if bad else None


def draws_mismatch(python: str) -> str | None:
    """None when denom-check draws what tests/denom_draws.json records, else why not."""
    what = "denom-check draws"
    proc = run(python, ["-c", DRAWS], what, ROOT / "src")
    if isinstance(proc, str):
        return proc
    if proc.returncode != 0:
        return f"{python}: {what}: exit {proc.returncode}, expected 0"
    got, want = json.loads(proc.stdout), json.loads(DRAWS_RECORD.read_text())
    if got != want:
        return f"{python}: {what}: differ from {DRAWS_RECORD.relative_to(ROOT)} in " + \
            ", ".join(key for key in want if got.get(key) != want[key])
    return None


def main() -> int:
    pythons = sys.argv[1:]
    if not pythons or any(arg.startswith("-") for arg in pythons):
        sys.stderr.write("check_pythons.py: error: usage: check_pythons.py PYTHON [PYTHON ...]\n")
        return 2
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    recorded = expected["cli_suites"]
    jobs = [(mismatch, python, argv, recorded) for python in pythons for argv in SUITES.values()]
    jobs += [(probe_mismatch, python, f"amplifier_sweep configuration {index}",
              ["-c", SWEEP, str(index)], ROOT / "src", ROOT / "perfbench")
             for python in pythons for index in SWEEPS]
    jobs += [(draws_mismatch, python) for python in pythons]
    jobs += [(probe_mismatch, python, "split_density fractions",
              ["-c", DENSITY, json.dumps(expected["split_density"])], ROOT / "src")
             for python in pythons]
    with ThreadPoolExecutor(max_workers=2) as pool:
        found = [m for m in pool.map(lambda job: job[0](*job[1:]), jobs) if m]
    for line in found:
        print(line)
    print(f"{len(jobs) - len(found)} of {len(jobs)} reports match under "
          f"{len(pythons)} interpreter(s)")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
