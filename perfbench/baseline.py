#!/usr/bin/env python3
"""Run the benchmark repeatedly and write the numbers to BENCH_<label>.json.

    python3 perfbench/baseline.py --label seed

For every workload in BENCHMARK.json it makes RUNS untraced runs, seeds
FIRST_SEED onwards, then TRACED_RUNS traced runs on the first seed.  Each
end-to-end metric is summarised by its median, quartiles and spread, the
spread being (q3 - q1) / median as ``statistics.quantiles(values, n=4)``
gives them.  The per-layer metrics come from the first traced run; the
count metrics of every traced run are kept, to show that they repeat.  Run
it from the root of a checkout on an otherwise idle machine; it takes about
(RUNS + TRACED_RUNS) x workloads x (run_seconds + 8) seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10
FIRST_SEED = 1
TRACED_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return details, result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]

    out = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for workload in names:
        seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        out.setdefault("env", runs[0][0]["env"])
        traced = [run_once(workload, seeds[0], seconds, 1) for _ in range(TRACED_RUNS)]
        repeats = {name: [r["metrics"][name]["value"] for _, r in traced] for name in counts}
        entry = {
            "seeds": seeds,
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "passes_per_run": [d["wall_s"]["passes"] for d, _ in runs],
            "end_to_end": {name: summary([r["metrics"][name]["value"] for _, r in runs])
                           for name in bounds},
            "per_layer": {k: v["value"] for k, v in traced[0][1]["metrics"].items()},
            "per_layer_correct": all(r["correct"] for _, r in traced),
            "traced_wall_s": traced[0][0]["traced_wall_s"],
            "traced_counts": repeats,
            "counts_repeat": all(len(set(v)) == 1 for v in repeats.values()),
        }
        out["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload:16s} {name:12s} median {s['median']:.4f}  spread {s['spread']:.4f}"
                  f"  (bound {bounds[name]})", flush=True)
        print(f"{workload:16s} counts repeat over {TRACED_RUNS} traced runs: "
              f"{entry['counts_repeat']}", flush=True)
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
