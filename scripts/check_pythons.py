#!/usr/bin/env python3
"""Check the recorded CLI reports under other Python interpreters.

Usage: check_pythons.py PYTHON [PYTHON ...]

Runs the eight suites of scripts/run_all_checks.sh under each
interpreter as `PYTHON -m treeamp.cli ...` with PYTHONPATH set to this
checkout's src, and compares each exit code and the sha256 of each
report on stdout with perfbench/expected.json, which it only reads.
The reports pin CPython behaviour, such as the draws of random.Random,
so every supported Python must give the same bytes.

Prints one line per mismatch, then a summary line.  Exits 0 when every
report matches, 1 on any mismatch, and 2 with one stderr line when no
interpreter is given.  Uses the standard library only.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def suites() -> list[list[str]]:
    """The argv (without --out) of each suite in scripts/run_all_checks.sh."""
    lines = (ROOT / "scripts" / "run_all_checks.sh").read_text().splitlines()
    return [shlex.split(line)[2:] for line in lines if line.startswith("run ")]


def mismatch(python: str, argv: list[str], recorded: dict) -> str | None:
    """None when the suite's exit code and report bytes match the record, else why not."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run([python, "-m", "treeamp.cli", *argv], capture_output=True,
                              cwd=ROOT, env=env, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"{python}: {' '.join(argv)}: did not run: {exc}"
    want = recorded[" ".join(argv)]
    if proc.returncode != want["exit"]:
        return f"{python}: {' '.join(argv)}: exit {proc.returncode}, recorded {want['exit']}"
    if hashlib.sha256(proc.stdout).hexdigest() != want["sha256"]:
        return f"{python}: {' '.join(argv)}: report differs from the recorded sha256"
    return None


def main() -> int:
    pythons = sys.argv[1:]
    if not pythons or any(arg.startswith("-") for arg in pythons):
        sys.stderr.write("check_pythons.py: error: usage: check_pythons.py PYTHON [PYTHON ...]\n")
        return 2
    recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())["cli_suites"]
    jobs = [(python, argv) for python in pythons for argv in suites()]
    with ThreadPoolExecutor(max_workers=2) as pool:
        found = [m for m in pool.map(lambda job: mismatch(*job, recorded), jobs) if m]
    for line in found:
        print(line)
    print(f"{len(jobs) - len(found)} of {len(jobs)} reports match under "
          f"{len(pythons)} interpreter(s)")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
