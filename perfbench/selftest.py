#!/usr/bin/env python3
"""Self-test of the benchmark's output checks and metric names.

    PYTHONPATH=src python3 perfbench/selftest.py

Shows that a tampered expected value is counted as a failure on every
workload, that the untampered record passes, that an unrecorded seed falls
back to the verdict check, that a raising call is counted as failed, that
traced runs pair each call with an untraced one, and that run.py emits
exactly the metrics named in BENCHMARK.json.  Takes a few
seconds; exits 1 on the first broken claim.
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads


def expect(claim: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'}  {claim}")
    if not ok:
        sys.exit(1)


def check_density(expected: dict) -> None:
    small = [op for op in workloads.density_ops(0, expected) if op.label.endswith("=10000")]
    _, attempted, failures = workloads.run_pass(small)
    expect("density: recorded Fractions pass", attempted == 2 and not failures)
    tampered = copy.deepcopy(expected)
    tampered["split_density"]["x^3-2"]["10000"] = "201/1229"
    ops = [op for op in workloads.density_ops(0, tampered) if op.label.endswith("=10000")]
    _, _, failures = workloads.run_pass(ops)
    expect("density: a tampered Fraction is one failure, named",
           len(failures) == 1 and failures[0].startswith("density x^3-2 limit=10000"))


def check_amplifier(expected: dict) -> None:
    tampered = copy.deepcopy(expected)
    tampered["amplifier_sweep"]["trivial sl2"]["400"]["Lambda"] = "1/1"
    _, attempted, failures = workloads.run_pass(workloads.amplifier_ops(0, tampered))
    expect("amplifier: a tampered Lambda is one failure out of 12 windows",
           attempted == 12 and len(failures) == 1
           and failures[0].startswith("amplifier trivial sl2 Q=400"))
    tempered = workloads.amplifier_ops(max(workloads.RECORDED_SEEDS) + 1, expected)[1]
    reports = tempered.call()
    expect("amplifier: an unrecorded seed passes on its verdicts", not tempered.check(reports))
    reports[0].verdicts["lambda_positive"] = False
    expect("amplifier: on an unrecorded seed a false verdict is a failure",
           list(tempered.check(reports)) == [tempered.names[0]])


def check_raising_call() -> None:
    def broken():
        raise ValueError("broken")

    op = workloads.Op("broken", ["broken Q=1", "broken Q=2"], broken, lambda result: {})
    _, attempted, failures = workloads.run_pass([op])
    expect("a raising call fails each of its operations", attempted == 2 and len(failures) == 2)


def check_cli(expected: dict) -> None:
    name, argv = workloads.cli_suites(0)[0]
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        out = Path(tmp) / "report.json"
        proc = subprocess.run([sys.executable, "-m", "treeamp.cli", *argv, "--out", str(out)],
                              capture_output=True)
        data = out.read_bytes()
    expect(f"cli: {name} matches its recorded digest",
           workloads.check_cli_report(argv, proc.returncode, data, expected) is None)
    tampered = copy.deepcopy(expected)
    tampered["cli_suites"][" ".join(argv)]["sha256"] = "0" * 64
    expect(f"cli: a tampered {name} digest is a failure",
           workloads.check_cli_report(argv, proc.returncode, data, tampered) is not None)
    expect(f"cli: a tampered {name} exit code is a failure",
           workloads.check_cli_report(argv, 1, data, expected) is not None)
    report = json.loads(data)
    report["verdicts"]["p2_commutativity"] = False
    unrecorded = argv[:-1] + ["7"]  # not a recorded argv, so the verdicts decide
    expect("cli: on an unrecorded argv a false verdict is a failure",
           workloads.check_cli_report(unrecorded, 0, json.dumps(report).encode(), expected)
           is not None)


def check_pass_plan() -> None:
    warm = [workloads.pass_plan(3, True, k) for k in (1, 2)]
    expect("trace: warm passes run each op untraced and traced, back to back",
           all(sorted(plan) == [(i, t) for i in range(3) for t in (False, True)]
               and all(plan[2 * i][0] == plan[2 * i + 1][0] == i for i in range(3))
               for plan in warm)
           and warm[0] != warm[1])
    expect("trace: the first traced pass is all traced",
           workloads.pass_plan(3, True, 0) == [(0, True), (1, True), (2, True)])


def check_metric_names() -> None:
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    root = {"seconds": {}, "calls": {}, "counters": {}}
    one = [(1.0, 1.0)]
    fake = {"walls": {"untraced": one, "traced": one}, "setup": one, "cold_pass": [root],
            "traced_passes": [[root]],
            "per_op": {}, "attempted": 1, "failures": [], "peak_rss_mb": 1.0}
    for section, values in (("end_to_end", run.end_to_end_metrics(fake)),
                            ("per_layer", run.layer_metrics(fake, one, one))):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        emitted = {name: run.unit_of(name) for name in values}
        expect(f"BENCHMARK.json {section} names and units match run.py", declared == emitted)


def main() -> int:
    expected = workloads.load_expected()
    check_density(expected)
    check_amplifier(expected)
    check_raising_call()
    check_cli(expected)
    check_pass_plan()
    check_metric_names()
    return 0


if __name__ == "__main__":
    sys.exit(main())
