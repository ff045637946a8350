#!/usr/bin/env python3
"""Record the exact outputs the benchmark checks against, into expected.json.

Run from the root of a checkout whose outputs are known to be right:

    PYTHONPATH=src python3 perfbench/record_expected.py

It records, for every seed in ``workloads.RECORDED_SEEDS``: the sha256 and
exit code of each cli_suites report (keyed by the CLI argv), the density
Fractions, and every amplifier window's exact values.  Each CLI suite runs
as a fresh process, the same way the benchmark runs it.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads


def record_cli(table: dict, argv: list[str], tmp: Path) -> None:
    key = " ".join(argv)
    if key in table:
        return
    out = tmp / "report.json"
    proc = subprocess.run([sys.executable, "-m", "treeamp.cli", *argv, "--out", str(out)],
                          capture_output=True)
    table[key] = {"exit": proc.returncode, "sha256": workloads.sha256(out.read_bytes())}


def main() -> int:
    from treeamp import amplifier, splitting

    expected = {"cli_suites": {}, "split_density": {}, "amplifier_sweep": {}}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for seed in workloads.RECORDED_SEEDS:
            for _, argv in workloads.cli_suites(seed):
                record_cli(expected["cli_suites"], argv, Path(tmp))
    for text in workloads.DENSITY_POLYS:
        f = splitting.parse_poly(text)
        expected["split_density"][text] = {
            str(limit): workloads.fraction_text(splitting.empirical_density(f, limit))
            for limit in workloads.DENSITY_LIMITS}
    f = splitting.parse_poly(workloads.AMPLIFIER_POLY)
    for seed in workloads.RECORDED_SEEDS:
        for label, spectrum, orbit in workloads.amplifier_configs(seed):
            if label in expected["amplifier_sweep"]:
                continue
            reports = amplifier.scaling_sweep(workloads.AMPLIFIER_QS, f, spectrum, orbit)
            expected["amplifier_sweep"][label] = {
                str(r.Q): workloads.window_record(r) for r in reports}
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
