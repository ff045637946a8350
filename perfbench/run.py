#!/usr/bin/env python3
"""treeamp benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_suites --seed 0 --seconds 36 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``cli_suites``: the eight ``scripts/run_all_checks.sh`` suites, each a
  fresh ``python -m treeamp.cli`` process with ``PYTHONPATH=src``.
* ``split_density``: ``splitting.empirical_density`` for x^2+1 and x^3-2 at
  10^4, 10^5 and 10^6, in one worker process.
* ``amplifier_sweep``: ``amplifier.scaling_sweep`` on x^2+1 for
  Q = 400 .. 12800, trivial/sl2 and tempered/torus, in one worker process.

One closed-loop client: each operation starts when the previous one ended.
A pass runs every operation of the workload once; passes repeat until the
next one would end after ``--seconds``.  Every output is checked, see
workloads.py.  The last stdout line is the result JSON; the line before it
holds the environment, quartiles and pass counts.  ``--trace 1`` runs a
cold traced pass for the counts, then passes that make each call untraced
and traced back to back, and reports the per-layer metrics instead of the
end-to-end ones.  Times are rescaled to a reference CPU speed, see
workloads.py.  When the benchmark itself cannot measure (no ``src/treeamp``,
a worker that cannot import treeamp) it exits nonzero without a result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli_suites", "split_density", "amplifier_sweep")
SUITE_NAMES = [name for name, _ in workloads.cli_suites(0)]
SETUP_SAMPLES = 11  # set-up processes per run, besides the library worker itself
PROBE_SAMPLES = 3  # `python -c pass` and `import treeamp.cli` probes
CHILD_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median(values), "q1": q1, "q3": q3, "passes": len(values)}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def at_ref(pairs) -> list[float]:
    return [ref for _, ref in pairs]


def raw(pairs) -> list[float]:
    return [seconds for seconds, _ in pairs]


class Runner:
    """One run of one workload.  Timings are (raw seconds, seconds at reference speed)."""

    def __init__(self, args, root: Path, work: Path):
        self.args = args
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH="src")
        self.expected = workloads.load_expected()

    # -- processes -----------------------------------------------------------

    def _timed_child(self, cmd: list[str]) -> tuple[float, int, int]:
        """(wall seconds, exit code, peak RSS in KiB) of one child process."""
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss

    @staticmethod
    def _bracketed(measure) -> tuple[float, float]:
        before = workloads.bracket()
        seconds = measure()
        return seconds, workloads.at_reference_speed(seconds, before + workloads.bracket())

    def python_floor(self) -> tuple[float, float]:
        return self._bracketed(
            lambda: self._timed_child([sys.executable, "-c", "pass"])[0])

    def cli_import(self) -> tuple[float, float]:
        code = ("import time; t = time.perf_counter(); import treeamp.cli; "
                "print(time.perf_counter() - t)")

        def measure() -> float:
            proc = subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise BenchError(f"cannot import treeamp.cli: {proc.stderr.strip()[-500:]}")
            return float(proc.stdout)

        return self._bracketed(measure)

    def worker(self, setup_only: bool) -> dict:
        out = self.work / "worker.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
               "--trace", str(self.args.trace), "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        ref_before = workloads.bracket()
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=self.args.seconds + 90)
        if proc.returncode != 0:
            raise BenchError(f"worker failed: {proc.stderr.strip()[-1500:]}")
        result = json.loads(out.read_text())
        setup = result["ready"] - spawned
        result["setup"] = (setup, workloads.at_reference_speed(
            setup, ref_before + result["ref_after_ready"]))
        return result

    # -- workloads -----------------------------------------------------------

    def run_library(self) -> dict:
        res = self.worker(setup_only=False)
        passes = [[root] for root in tracer.summarize(res["trace"])] if res["trace"] else []
        return {
            "setup": [res["setup"]],
            "walls": res["walls"],
            "cold_pass": passes[0] if passes else [],
            "traced_passes": passes[1:],
            "per_op": res["per_op"],
            "attempted": res["attempted"],
            "failures": res["failures"],
            "peak_rss_mb": res["maxrss_kb"] / 1024,
        }

    def run_cli(self) -> dict:
        suites = workloads.cli_suites(self.args.seed)
        trace = bool(self.args.trace)
        walls: dict[str, list[tuple[float, float]]] = {"untraced": [], "traced": []}
        per_op: dict[str, list[tuple[float, float]]] = {name: [] for name, _ in suites}
        passes: list[list[dict]] = []  # the traced CLI calls' roots, per pass
        attempted, failures, peak_kb = 0, [], 0
        start = time.perf_counter()
        for index in itertools.count():
            began = time.perf_counter()
            sums: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
            roots, before = [], workloads.bracket()
            for i, traced in workloads.pass_plan(len(suites), trace, index):
                name, argv = suites[i]
                out, spans = self.work / f"{name}.json", self.work / f"{name}.spans.json"
                for path in (out, spans):
                    path.unlink(missing_ok=True)
                if traced:
                    cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans)]
                else:
                    cmd = [sys.executable, "-m", "treeamp.cli"]
                elapsed, code, rss_kb = self._timed_child(cmd + argv + ["--out", str(out)])
                after = workloads.bracket()
                timing = (elapsed, workloads.at_reference_speed(elapsed, before + after))
                before = after
                sums[traced].append(timing)
                peak_kb = max(peak_kb, rss_kb)
                if not traced:
                    per_op[name].append(timing)
                elif spans.exists():
                    roots += tracer.summarize(json.loads(spans.read_text()))
                data = out.read_bytes() if out.exists() else None
                why = workloads.check_cli_report(argv, code, data, self.expected)
                attempted += 1
                if why:
                    failures.append(f"{name}: {why}")
            if trace:
                passes.append(roots)
            if not (trace and index == 0):  # the cold traced pass gives counts only
                for traced, times in sums.items():
                    if times:
                        walls["traced" if traced else "untraced"].append(
                            (sum(t for t, _ in times), sum(r for _, r in times)))
            now = time.perf_counter()
            if walls["untraced"] and (now - start) + (now - began) > self.args.seconds:
                break
        return {
            "setup": [],
            "walls": walls,
            "cold_pass": passes[0] if passes else [],
            "traced_passes": passes[1:],
            "per_op": per_op,
            "attempted": attempted,
            "failures": failures,
            "peak_rss_mb": peak_kb / 1024,
        }

    # -- metrics -------------------------------------------------------------

    def run(self, nproc: int) -> tuple[dict, dict]:
        floor = [self.python_floor() for _ in range(PROBE_SAMPLES)]
        setups = [self.worker(setup_only=True)["setup"] for _ in range(SETUP_SAMPLES)]
        run = self.run_cli() if self.args.workload == "cli_suites" else self.run_library()
        run["setup"] = setups + run["setup"]
        if self.args.trace:
            imports = [self.cli_import() for _ in range(PROBE_SAMPLES)]
            values = layer_metrics(run, floor, imports)
        else:
            values = end_to_end_metrics(run)
        walls = run["walls"]
        details = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "env": environment(self.root, nproc, median(raw(floor))),
            "wall_s": quartiles(at_ref(walls["untraced"])),
            "raw_wall_s": quartiles(raw(walls["untraced"])),
            "setup_s": {"median": median(at_ref(run["setup"])),
                        "raw_median": median(raw(run["setup"])), "samples": len(run["setup"])},
            "op_wall_s": {label: median(at_ref(t)) for label, t in run["per_op"].items()},
            "failures": run["failures"][:50],
        }
        if self.args.trace:
            details["traced_wall_s"] = quartiles(at_ref(walls["traced"]))
        result = {
            "correct": not run["failures"],
            "attempted": run["attempted"],
            "failed": len(run["failures"]),
            "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()},
        }
        return details, result


def end_to_end_metrics(run: dict) -> dict:
    return {"wall_s": median(at_ref(run["walls"]["untraced"])),
            "setup_s": median(at_ref(run["setup"])),
            "peak_rss_mb": run["peak_rss_mb"]}


def _merge(roots: list[dict], scale: float) -> dict:
    """Add up the per-root summaries of one pass, seconds rescaled by ``scale``."""
    total = {"seconds": {}, "calls": {}, "counters": {}}
    for root in roots:
        for kind, table in total.items():
            for key, v in root[kind].items():
                table[key] = table.get(key, 0) + (v * scale if kind == "seconds" else v)
    return total


def layer_metrics(run: dict, floor: list, imports: list) -> dict:
    walls = run["walls"]
    # a warm traced pass's layer seconds get the same speed correction as its
    # traced calls' wall time
    passes = [_merge(roots, ref / seconds if seconds else 1.0)
              for roots, (seconds, ref) in zip(run["traced_passes"], walls["traced"])]

    def secs(name: str) -> float:
        return median(p["seconds"].get(name, 0.0) for p in passes)

    # counts come from the cold traced pass, so they do not depend on run length
    cold = _merge(run["cold_pass"], 1.0)
    calls = cold["calls"]
    count = cold["counters"]
    hits = count.get("tree.convolution_count_hits", 0)
    lookups = hits + count.get("tree.convolution_count_misses", 0)
    tests = count.get("splitting.primes_tested", 0)
    return {
        "cli.import_s": median(at_ref(imports)),
        "cli.python_floor_s": median(at_ref(floor)),
        "cli.write_report_s": secs("cli.write_report"),
        **{f"cli.{name}.wall_s": median(at_ref(run["per_op"].get(name, ())))
           for name in SUITE_NAMES},
        "splitting.empirical_density_s": secs("splitting.empirical_density"),
        "splitting.split_primes_in_s": secs("splitting.split_primes_in"),
        "splitting.primes_in_s": secs("splitting.primes_in"),
        "splitting.discriminant_s": secs("splitting.discriminant"),
        "splitting.primes_sieved": count.get("splitting.primes_sieved", 0),
        "splitting.primes_tested": tests,
        "splitting.split_ratio": count.get("splitting.splits", 0) / tests if tests else 0.0,
        "hecke.global_assemble_s": secs("hecke.global_assemble"),
        "hecke.support_points": count.get("hecke.support_points", 0),
        "hecke.norm_inf_s": secs("hecke.norm_inf"),
        "hecke.convolve_calls": calls.get("hecke.convolve", 0),
        "hecke.convolve_s": secs("hecke.convolve"),
        "hecke.eigenvalue_sequence_calls": calls.get("hecke.eigenvalue_sequence", 0),
        "hecke.eigenvalue_sequence_s": secs("hecke.eigenvalue_sequence"),
        "orbits.count_global_intersections_s": secs("orbits.count_global_intersections"),
        "orbits.brute_force_intersect_s": secs("orbits.brute_force_intersect"),
        "amplifier.build_amplifier_s": secs("amplifier.build_amplifier"),
        "amplifier.self_s": secs("amplifier.self"),
        "amplifier.pick_local_calls": calls.get("amplifier.pick_local", 0),
        "amplifier.primes_kept": count.get("amplifier.primes_kept", 0),
        "tree.convolution_count_calls": lookups,
        "tree.convolution_count_hit_ratio": hits / lookups if lookups else 0.0,
        "tree.iter_sphere_vertices": count.get("tree.iter_sphere_vertices", 0),
        "gaussian.denom_calls": calls.get("gaussian.denom", 0),
        "gaussian.denom_s": secs("gaussian.denom"),
        "gaussian.denom_mat_s": secs("gaussian.denom_mat"),
        "gaussian.product_formula_check_s": secs("gaussian.product_formula_check"),
        "gaussian.gaussian_factor_calls": calls.get("gaussian.gaussian_factor", 0),
        # traced over untraced time of the same calls, made back to back
        "trace_overhead_frac":
            sum(at_ref(walls["traced"])) / sum(at_ref(walls["untraced"])) - 1,
        "fail_frac": len(run["failures"]) / run["attempted"],
    }


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, if it is a git repository; git looks no higher than it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent), GIT_CONFIG_NOSYSTEM="1",
               GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(root: Path, nproc: int, python_floor_s: float) -> dict:
    return {
        "commit": _git_commit(root),
        "python": platform.python_version(),
        "sympy": _version("sympy"),
        "numpy": _version("numpy"),
        "nproc": nproc,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cli.python_floor_s": python_floor_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="treeamp benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # turn SIGTERM into SystemExit so children are stopped and the work dir removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # one core for the client, every child and the speed reference
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path.cwd()
    if not (root / "src" / "treeamp" / "__init__.py").is_file():
        print("perfbench: no src/treeamp here; run from the root of a treeamp checkout",
              file=sys.stderr)
        return 2
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as work:
            details, result = Runner(args, root, Path(work)).run(nproc)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for failure in details["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
