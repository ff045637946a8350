"""Workload inputs and output checks shared by the benchmark's processes.

Nothing here imports treeamp at module level: the orchestrator imports this
module without paying for treeamp, and the library workers import treeamp
inside ``build_ops`` so that the import is part of their measured set-up.

Seeds: workload seed ``n`` runs ``denom-check --seed n`` and the tempered
amplifier spectrum with seed ``42 + n``, so the default ``n = 0`` is exactly
``scripts/run_all_checks.sh``.  On ``split_density`` the seed orders the six
density calls.  Outputs whose inputs were recorded in ``expected.json`` are
compared exactly; other seeds fall back to "exit code 0 and every verdict
true".
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED_PATH = Path(__file__).with_name("expected.json")
RECORDED_SEEDS = range(32)
TEMPERED_SEED_OFFSET = 42

DENSITY_POLYS = ("x^2+1", "x^3-2")
DENSITY_LIMITS = (10 ** 4, 10 ** 5, 10 ** 6)

AMPLIFIER_POLY = "x^2+1"
AMPLIFIER_QS = [400 * 2 ** k for k in range(6)]  # 400 .. 12800


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def cli_suites(seed: int) -> list[tuple[str, list[str]]]:
    """The eight suites of scripts/run_all_checks.sh, in order, without --out."""
    return [
        ("verify-hecke", ["verify-hecke", "--primes", "2,3,5,7,11", "--max-radius", "8"]),
        ("split-density-quad", ["split-density", "--poly", "x^2+1", "--limit", "100000",
                                "--expected", "1/2"]),
        ("split-density-cube", ["split-density", "--poly", "x^3-2", "--limit", "100000",
                                "--expected", "1/6"]),
        ("denom-check", ["denom-check", "--samples", "1000", "--seed", str(seed)]),
        ("orbit-check-sl2", ["orbit-check", "--orbit", "sl2", "--primes", "2,3,5",
                             "--max-j", "3"]),
        ("orbit-check-torus", ["orbit-check", "--orbit", "torus", "--primes", "2,3,5",
                               "--max-j", "3"]),
        ("amplifier-trivial", ["amplifier", "--Q", "50,100,200,400", "--spectrum", "trivial",
                               "--orbit", "sl2"]),
        ("amplifier-tempered", ["amplifier", "--Q", "50,100,200,400", "--spectrum", "tempered",
                                "--seed", str(TEMPERED_SEED_OFFSET + seed), "--orbit", "torus"]),
    ]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _failing_verdicts(verdicts: dict) -> str | None:
    if not verdicts:
        return "no verdicts"
    failing = sorted(k for k, v in verdicts.items() if v is not True)
    return f"verdicts false: {', '.join(failing)}" if failing else None


def check_cli_report(argv: list[str], exit_code: int, data: bytes | None,
                     expected: dict) -> str | None:
    """None when the CLI call is right, else the reason it is wrong."""
    recorded = expected["cli_suites"].get(" ".join(argv))
    if recorded is not None:
        if exit_code != recorded["exit"]:
            return f"exit code {exit_code}, recorded {recorded['exit']}"
        if data is None or sha256(data) != recorded["sha256"]:
            return "report bytes differ from the recorded digest"
        return None
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        return _failing_verdicts(json.loads(data)["verdicts"])
    except (TypeError, ValueError, KeyError):
        return "report missing or unreadable"


# ---------------------------------------------------------------------------
# CPU-speed reference
#
# On a VM that shares its cores, CPU speed can swing by 20-50% within a second
# and over minutes, and CPU time tracks wall time, so raw seconds do not
# repeat from run to run.  Every process is pinned to one core, a small fixed
# pure-Python job is timed around (and, in library workers, during) every
# measured interval, and the interval is rescaled to the speed at which that
# job takes REF_NOMINAL_S.


REF_NOMINAL_S = 0.0025
BRACKET = 4  # reference jobs timed before and after each interval
SAMPLE_EVERY_S = 0.1  # reference jobs timed during a library call


def reference_s() -> float:
    """Seconds one fixed pure-Python job takes at the CPU's current speed."""
    start = time.perf_counter()
    table = {}
    for i in range(10_000):
        table[i] = (i * i + 7) % 1009
    sorted(table.values())
    return time.perf_counter() - start


def bracket() -> list[float]:
    return [reference_s() for _ in range(BRACKET)]


def at_reference_speed(seconds: float, refs: list[float]) -> float:
    """Rescale measured seconds to the reference speed seen in ``refs``."""
    return seconds * REF_NOMINAL_S * len(refs) / sum(refs)


class SpeedSampler:
    """Times the reference job every SAMPLE_EVERY_S while a call runs.

    A SIGALRM handler runs it between bytecodes of the call, on the same
    core, so a long call gets speed samples from its own duration; their time
    is subtracted from the call's.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(reference_s())

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


# ---------------------------------------------------------------------------
# Passes


def pass_plan(n_ops: int, trace: bool, index: int) -> list[tuple[int, bool]]:
    """(op index, traced) in the order pass ``index`` runs them.

    Untraced runs call every op once per pass.  Traced runs start with a cold
    traced pass, which only gives the counts; every later pass runs each op
    twice back to back, untraced and traced, in alternating order, so the
    trace overhead is measured on the same op at nearly the same CPU speed.
    """
    if not trace:
        return [(i, False) for i in range(n_ops)]
    if index == 0:
        return [(i, True) for i in range(n_ops)]
    return [(i, traced) for i in range(n_ops)
            for traced in ((False, True) if (i + index) % 2 else (True, False))]


# ---------------------------------------------------------------------------
# Library workloads


@dataclass
class Op:
    """One timed library call; it counts as ``len(names)`` operations."""

    label: str
    names: list[str]
    call: Callable[[], object]
    check: Callable[[object], dict[str, str]]  # failing name -> reason


def run_pass(ops: list[Op]) -> tuple[list[tuple[float, float]], int, list[str]]:
    """Run every op once: per-op timings, operations attempted, failures.

    A timing is (seconds, seconds at reference speed).  Seconds exclude the
    sampler's reference jobs; the rescaling uses the reference jobs timed
    just before, during and just after the op.
    """
    times: list[tuple[float, float]] = []
    failures: list[str] = []
    before = bracket()
    for op in ops:
        with SpeedSampler() as sampler:
            start = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a raising call is a failed operation, not a crash
                result, error = None, exc
            seconds = time.perf_counter() - start
        seconds -= sum(sampler.samples)
        after = bracket()
        times.append((seconds, at_reference_speed(seconds, before + sampler.samples + after)))
        before = after
        try:
            if error is not None:
                raise error
            bad = op.check(result)
        except Exception as exc:  # a raising call or an unreadable result fails the op
            bad = {name: f"raised {type(exc).__name__}: {exc}" for name in op.names}
        failures += [f"{name}: {why}" for name, why in bad.items()]
    return times, sum(len(op.names) for op in ops), failures


def fraction_text(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def density_ops(seed: int, expected: dict) -> list[Op]:
    from treeamp import splitting

    def op(text: str, limit: int) -> Op:
        f = splitting.parse_poly(text)
        name = f"density {text} limit={limit}"
        want = expected["split_density"][text][str(limit)]

        def check(got) -> dict[str, str]:
            return {} if fraction_text(got) == want else {name: f"{fraction_text(got)} != {want}"}

        # look the function up at call time so the tracer's wrapper is seen
        return Op(name, [name], lambda: splitting.empirical_density(f, limit), check)

    ops = [op(text, limit) for text in DENSITY_POLYS for limit in DENSITY_LIMITS]
    random.Random(seed).shuffle(ops)
    return ops


def window_record(report) -> dict:
    """The exact per-window values an amplifier report must reproduce."""
    primes = ",".join(map(str, report.primes_used)).encode()
    return {
        "ell": report.ell,
        "Lambda": fraction_text(report.Lambda),
        "tau1_at_identity": report.tau1_at_identity,
        "norm_inf": report.norm_inf,
        "intersection_count": report.intersection_count,
        "primes_used": {"count": len(report.primes_used), "sha256": sha256(primes)},
        "verdicts": dict(report.verdicts),
    }


def amplifier_configs(seed: int):
    """(label, spectrum, orbit) for the two amplifier suites."""
    from treeamp import amplifier, orbits
    tempered = TEMPERED_SEED_OFFSET + seed
    return [
        ("trivial sl2", amplifier.SpectrumModel.trivial(),
         orbits.OrbitModel(orbits.OrbitKind.SL2)),
        (f"tempered seed={tempered} torus", amplifier.SpectrumModel.tempered(tempered),
         orbits.OrbitModel(orbits.OrbitKind.MULTIPLICATIVE)),
    ]


def amplifier_ops(seed: int, expected: dict) -> list[Op]:
    from treeamp import amplifier, splitting
    f = splitting.parse_poly(AMPLIFIER_POLY)

    def op(label, spectrum, orbit) -> Op:
        names = [f"amplifier {label} Q={Q}" for Q in AMPLIFIER_QS]
        recorded = expected["amplifier_sweep"].get(label)

        def check(reports) -> dict[str, str]:
            if [r.Q for r in reports] != AMPLIFIER_QS:
                return {name: "wrong windows" for name in names}
            bad = {}
            for name, report in zip(names, reports):
                got = window_record(report)
                if recorded is None:
                    why = _failing_verdicts(got["verdicts"])
                else:
                    want = recorded[str(report.Q)]
                    diff = sorted(k for k in want if got.get(k) != want[k])
                    why = f"differs from the record in {', '.join(diff)}" if diff else None
                if why:
                    bad[name] = why
            return bad

        return Op(f"amplifier {label}", names,
                  lambda: amplifier.scaling_sweep(AMPLIFIER_QS, f, spectrum, orbit), check)

    return [op(*config) for config in amplifier_configs(seed)]


def build_ops(workload: str, seed: int, expected: dict) -> list[Op]:
    if workload == "split_density":
        return density_ops(seed, expected)
    if workload == "amplifier_sweep":
        return amplifier_ops(seed, expected)
    raise ValueError(f"{workload} is not a library workload")
