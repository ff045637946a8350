"""One library-workload process: import treeamp, build the inputs, run passes.

Started by run.py with PYTHONPATH=src from the checkout root:

    python perfbench/worker.py --workload split_density --seed 0 \
        --seconds 30 --trace 0 --out result.json [--setup-only]

It writes one JSON object to --out.  ``ready`` is CLOCK_MONOTONIC when the
imports and inputs are done; the parent subtracts its spawn time from it to
get the set-up time.  With --trace 1 a cold traced pass gives the counts,
and every later pass runs each op untraced and traced back to back.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import sys
import time

import workloads
from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.workload == "cli_suites":
        import treeamp.cli  # noqa: F401  (the import every CLI call pays)
        ops = workloads.cli_suites(args.seed)
    else:
        ops = workloads.build_ops(args.workload, args.seed, workloads.load_expected())
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import treeamp
    src = os.path.join(os.getcwd(), "src", "")
    if not os.path.abspath(treeamp.__file__).startswith(src):
        sys.exit(f"treeamp was imported from {treeamp.__file__}, not from {src}")
    out = {"ready": ready, "ref_after_ready": workloads.bracket()}
    if not args.setup_only:
        out.update(measure(ops, args.seconds, bool(args.trace)))
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


def measure(ops, seconds: float, trace: bool) -> dict:
    """Run passes (see workloads.pass_plan) until the next would end after ``seconds``."""
    tracer = Tracer() if trace else None
    # per warm pass: (seconds in the calls, the same at reference speed)
    walls: dict[str, list[tuple[float, float]]] = {"untraced": [], "traced": []}
    per_op: dict[str, list[tuple[float, float]]] = {op.label: [] for op in ops}
    attempted = 0
    failures: list[str] = []
    start = time.perf_counter()
    for index in itertools.count():
        began = time.perf_counter()
        sums = {False: [], True: []}
        with tracer.root("pass") if trace else contextlib.nullcontext():
            for i, traced in workloads.pass_plan(len(ops), trace, index):
                if traced:
                    tracer.install()
                try:
                    (timing,), n, failed = workloads.run_pass([ops[i]])
                finally:
                    if traced:
                        tracer.uninstall()
                sums[traced].append(timing)
                if not traced:
                    per_op[ops[i].label].append(timing)
                attempted += n
                failures += failed
        if not (trace and index == 0):  # the cold traced pass gives counts only
            for traced, times in sums.items():
                if times:
                    walls["traced" if traced else "untraced"].append(
                        (sum(t for t, _ in times), sum(r for _, r in times)))
        now = time.perf_counter()
        # start another pass only if it should end inside the budget
        if walls["untraced"] and (now - start) + (now - began) > seconds:
            break
    return {
        "walls": walls,
        "per_op": per_op,
        "attempted": attempted,
        "failures": failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.record() if trace else None,
    }


if __name__ == "__main__":
    sys.exit(main())
