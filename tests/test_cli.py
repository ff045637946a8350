import ast
import gc
import hashlib
import importlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treeamp import cli, gaussian
from treeamp.cli import main
from treeamp.gaussian import GaussRat, Mat2
from treeamp.orbits import OrbitKind

ROOT = Path(__file__).resolve().parent.parent

def run(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


class TestVerifyHecke:
    def test_passes(self, tmp_path):
        code, raw = run(tmp_path, "vh.json", ["verify-hecke", "--primes", "2,3", "--max-radius", "4"])
        assert code == 0
        report = json.loads(raw)
        assert report["verdicts"]["p2_degree2_identity"] is True
        assert all(report["verdicts"].values())

    def test_any_prime_below_psi_13_runs(self, tmp_path):
        # convolution cost does not depend on p, so no prime is too large
        code, raw = run(tmp_path, "big.json", ["verify-hecke", "--primes", "17,10007,1000003"])
        assert code == 0
        assert set(json.loads(raw)["results"]) == {"17", "10007", "1000003"}

    def test_radius_cap(self):
        with pytest.raises(SystemExit):
            main(["verify-hecke", "--primes", "2", "--max-radius", "10"])


class TestSplitDensity:
    def test_gaussian_half(self, tmp_path):
        code, raw = run(tmp_path, "sd.json",
                        ["split-density", "--poly", "x^2+1",
                         "--limit", "10000", "--expected", "1/2"])
        assert code == 0
        report = json.loads(raw)
        assert report["verdicts"]["density_within_tolerance"] is True
        num, den = report["results"]["density"].split("/")
        assert abs(int(num) / int(den) - 0.5) < 0.02

    def test_wrong_expected_fails(self, tmp_path):
        code, _ = run(tmp_path, "sd2.json",
                      ["split-density", "--poly", "x^2+1",
                       "--limit", "10000", "--expected", "1/6"])
        assert code == 1


def fraction_denom_check_inputs(seed, samples):
    """What denom-check hands to denom and denom_mat, in order, with every
    number drawn as two Fractions and every shear built by make: the oracle."""
    rng = random.Random(seed)

    def draw():
        return GaussRat.make(Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                             Fraction(rng.randint(-30, 30), rng.randint(1, 12)))

    seen = []
    for _ in range(samples):
        x, y = draw(), draw()
        seen += [("denom", x), ("denom", y), ("denom", x + y), ("denom", x * y)]
    for _ in range(max(1, samples // 10)):
        m = Mat2(tuple(draw() for _ in range(4)))
        k = Mat2.identity()
        for _ in range(4):
            s = GaussRat.make(rng.randint(-3, 3), rng.randint(-3, 3))
            one, zero = GaussRat.make(1), GaussRat.make(0)
            k = k * (Mat2((one, s, zero, one)) if rng.random() < 0.5 else Mat2((one, zero, s, one)))
        seen += [("denom_mat", m * k), ("denom_mat", m), ("denom_mat", k.inverse()),
                 ("denom_mat", k)]
    return seen


class TestDenomCheck:
    def test_passes(self, tmp_path):
        code, raw = run(tmp_path, "dc.json",
                        ["denom-check", "--samples", "200", "--seed", "1"])
        assert code == 0
        assert all(json.loads(raw)["verdicts"].values())

    @pytest.mark.parametrize("seed", range(4))
    def test_integer_draws_equal_fraction_draws(self, tmp_path, monkeypatch, seed):
        seen = []
        for name in ("denom", "denom_mat"):
            fn = getattr(gaussian, name)
            monkeypatch.setattr(gaussian, name,
                                lambda x, name=name, fn=fn: seen.append((name, x)) or fn(x))
        code, _ = run(tmp_path, "dc.json", ["denom-check", "--samples", "60", "--seed", str(seed)])
        assert code == 0
        assert seen == fraction_denom_check_inputs(seed, 60)


class TestOrbitCheck:
    @pytest.mark.parametrize("orbit", ["sl2", "torus"])
    def test_passes(self, tmp_path, orbit):
        code, raw = run(tmp_path, f"oc-{orbit}.json",
                        ["orbit-check", "--orbit", orbit, "--primes", "2,3", "--max-j", "2"])
        assert code == 0
        report = json.loads(raw)
        assert all(report["verdicts"].values())
        if orbit == "sl2":
            assert report["results"]["p2_j1"]["closed_form"] == "0"
        else:
            assert report["results"]["p2_j1"]["closed_form"] == "2"


class TestAmplifier:
    def test_trivial_smoke(self, tmp_path):
        code, raw = run(tmp_path, "amp.json",
                        ["amplifier", "--Q", "50,100", "--spectrum", "trivial"])
        assert code == 0
        report = json.loads(raw)
        first = report["results"][0]
        assert first["Q"] == "50"
        assert first["primes_used"] == ["53", "61", "73", "89", "97"]
        assert first["Lambda"] == "873882282/1"
        assert "." not in first["Lambda"]  # exact, never a float

    def test_tempered_torus(self, tmp_path):
        code, raw = run(tmp_path, "amp2.json",
                        ["amplifier", "--Q", "50", "--spectrum", "tempered",
                         "--seed", "42", "--orbit", "torus"])
        assert code == 0
        report = json.loads(raw)
        assert int(report["results"][0]["intersection_count"]) > 0


def run_all_checks_suites() -> dict[str, list[str]]:
    """name -> argv (without --out) of each suite in scripts/run_all_checks.sh."""
    suites = {}
    for line in (ROOT / "scripts" / "run_all_checks.sh").read_text().splitlines():
        if line.startswith("run "):
            _, name, *argv = shlex.split(line)
            suites[name] = argv
    return suites


ALL_CHECKS = run_all_checks_suites()


class TestDeterminism:
    CASES = [
        ("verify-hecke", ["verify-hecke", "--primes", "2,3", "--max-radius", "4"]),
        ("split-density", ["split-density", "--poly", "x^3-2", "--limit", "5000"]),
        ("denom-check", ["denom-check", "--samples", "100", "--seed", "7"]),
        ("orbit-check", ["orbit-check", "--primes", "2", "--max-j", "2"]),
        ("amplifier", ["amplifier", "--Q", "50", "--spectrum", "tempered", "--seed", "3"]),
    ]

    @pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
    def test_byte_identical_reruns(self, tmp_path, name, argv):
        _, first = run(tmp_path, f"{name}-a.json", argv)
        _, second = run(tmp_path, f"{name}-b.json", argv)
        assert first == second

    @pytest.mark.parametrize("argv", ALL_CHECKS.values(), ids=ALL_CHECKS.keys())
    def test_run_all_checks_report_matches_recorded_digest(self, argv, capsys):
        recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        want = recorded["cli_suites"][" ".join(argv)]
        code = main(argv)
        stdout = capsys.readouterr().out
        assert (code, hashlib.sha256(stdout.encode()).hexdigest()) == \
            (want["exit"], want["sha256"])

    def test_seed_changes_tempered_report(self, tmp_path):
        base = ["amplifier", "--Q", "50", "--spectrum", "tempered"]
        _, a = run(tmp_path, "s1.json", base + ["--seed", "1"])
        _, b = run(tmp_path, "s2.json", base + ["--seed", "2"])
        assert a != b

    def test_stdout_matches_file(self, tmp_path, capsys):
        argv = ["orbit-check", "--primes", "2", "--max-j", "1"]
        code = main(argv)
        assert code == 0
        stdout = capsys.readouterr().out
        _, filed = run(tmp_path, "oc.json", argv)
        assert stdout.encode() == filed


BAD_INPUT = {
    "verify-hecke-non-prime": ["verify-hecke", "--primes", "4"],
    "verify-hecke-large-non-prime": ["verify-hecke", "--primes", "2,1000001"],
    # is_prime refuses to decide at psi_13 and above
    "verify-hecke-psi-13": ["verify-hecke", "--primes", "3317044064679887385961981"],
    "verify-hecke-empty-primes": ["verify-hecke", "--primes", ""],
    "verify-hecke-malformed-primes": ["verify-hecke", "--primes", "abc"],
    "amplifier-malformed-q": ["amplifier", "--Q", "50,x"],
    "verify-hecke-max-radius-0": ["verify-hecke", "--max-radius", "0"],
    "verify-hecke-max-radius-1": ["verify-hecke", "--max-radius", "1"],
    "verify-hecke-max-radius-negative": ["verify-hecke", "--max-radius", "-4"],
    "verify-hecke-max-radius-3": ["verify-hecke", "--max-radius", "3"],
    "verify-hecke-max-radius-7": ["verify-hecke", "--max-radius", "7"],
    "orbit-check-index-0": ["orbit-check", "--index", "0"],
    "orbit-check-max-j-0": ["orbit-check", "--max-j", "0"],
    "orbit-check-sphere-p7-j4": ["orbit-check", "--primes", "7", "--max-j", "4"],
    "orbit-check-sphere-p13-j3": ["orbit-check", "--primes", "13", "--max-j", "3"],
    # refused from the radius alone, without building (p+1) p^(2j-1)
    "orbit-check-max-j-huge-p2": ["orbit-check", "--primes", "2", "--max-j", "100000"],
    "orbit-check-max-j-huge-p3": ["orbit-check", "--primes", "3", "--max-j", "5000"],
    "denom-check-negative-samples": ["denom-check", "--samples", "-5"],
    "amplifier-q-below-floor": ["amplifier", "--Q", "10"],
    "amplifier-q-descending": ["amplifier", "--Q", "400,200"],
    "amplifier-empty-q": ["amplifier", "--Q", ""],
    "amplifier-malformed-poly": ["amplifier", "--poly", "x^^2"],
    "amplifier-non-monic": ["amplifier", "--poly", "2x^2+1", "--Q", "50"],
    "split-density-non-monic": ["split-density", "--poly", "2x^2+1"],
    "split-density-zero-denominator": ["split-density", "--poly", "x^2+1",
                                       "--expected", "1/0"],
    "split-density-limit-above-cap": ["split-density", "--poly", "x^2+1",
                                      "--limit", "1000001"],
    "amplifier-q-above-cap": ["amplifier", "--Q", "50,500001"],
    "amplifier-duplicate-q": ["amplifier", "--Q", "50,50"],
    "split-density-degree-above-cap": ["split-density", "--poly", "x^9+1"],
    "amplifier-degree-huge": ["amplifier", "--poly", "x^1000000000+1"],
    "verify-hecke-repeated-prime": ["verify-hecke", "--primes", "2,2"],
    "orbit-check-repeated-prime": ["orbit-check", "--primes", "2,2"],
    "orbit-check-unknown-orbit": ["orbit-check", "--orbit", "cone"],
    "amplifier-unknown-orbit": ["amplifier", "--orbit", "cone"],
    # relative to the directory the test runs in, which holds only a-directory/
    "out-missing-parent": ["verify-hecke", "--primes", "2", "--max-radius", "2",
                           "--out", "missing/report.json"],
    "out-is-directory": ["verify-hecke", "--primes", "2", "--max-radius", "2",
                         "--out", "a-directory"],
}


class TestBadInput:
    @pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=BAD_INPUT.keys())
    def test_exits_2_with_error_line(self, argv, capsys, tmp_path, monkeypatch):
        (tmp_path / "a-directory").mkdir()
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err.splitlines()[-1]
        assert "Traceback" not in captured.err
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("argv,value", [
        (BAD_INPUT["split-density-limit-above-cap"], "1000001"),
        (BAD_INPUT["amplifier-q-above-cap"], "500001"),
    ])
    def test_sieve_cap_names_value_and_cap(self, argv, value, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        line = capsys.readouterr().err.strip()
        assert line.startswith("treeamp: error:")
        assert value in line and str(cli.MAX_SIEVE) in line

    @pytest.mark.parametrize("name,p,j", [
        ("orbit-check-sphere-p7-j4", 7, 4),
        ("orbit-check-sphere-p13-j3", 13, 3),
        ("orbit-check-max-j-huge-p2", 2, 100000),
        ("orbit-check-max-j-huge-p3", 3, 5000),
    ])
    def test_sphere_cap_names_prime_j_and_cap(self, name, p, j, capsys):
        with pytest.raises(SystemExit):
            main(BAD_INPUT[name])
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("treeamp: error:")
        assert f"p={p}, j={j}" in lines[0] and str(cli.MAX_SPHERE) in lines[0]
        assert len(lines[0]) < 120  # the sphere size itself is never printed

    @pytest.mark.parametrize("argv,value", [
        (BAD_INPUT["verify-hecke-malformed-primes"], "'abc'"),
        (BAD_INPUT["amplifier-malformed-q"], "'50,x'"),
    ])
    def test_malformed_list_names_the_text_not_the_parser(self, argv, value, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        line = capsys.readouterr().err.splitlines()[-1]
        assert value in line
        assert "_int_list" not in line

    @pytest.mark.parametrize("name", ["orbit-check-unknown-orbit", "amplifier-unknown-orbit"])
    def test_unknown_orbit_names_it_and_every_kind(self, name, capsys):
        with pytest.raises(SystemExit):
            main(BAD_INPUT[name])
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("treeamp: error:")
        assert "'cone'" in lines[0]
        assert all(repr(kind.value) in lines[0] for kind in OrbitKind)


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with src on the path, capturing bytes."""
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


PROCESS_CASES = {
    "pass": (["orbit-check", "--primes", "2", "--max-j", "1"], 0),
    "failing-verdict": (["split-density", "--poly", "x^2+1", "--limit", "1000",
                         "--expected", "0"], 1),
    "bad-input": (BAD_INPUT["verify-hecke-non-prime"], 2),
}


def stderr_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("wall time: ")]


class TestProcessEntry:
    @pytest.mark.parametrize("argv,code", PROCESS_CASES.values(), ids=PROCESS_CASES.keys())
    def test_process_matches_in_process_main(self, argv, code, capsys):
        proc = fresh_python("-m", "treeamp.cli", *argv)
        try:
            in_process = main(argv)
        except SystemExit as exc:
            in_process = exc.code
        captured = capsys.readouterr()
        assert (proc.returncode, in_process) == (code, code)
        assert proc.stdout == captured.out.encode()
        err = proc.stderr.decode()
        assert "Traceback" not in err
        assert stderr_lines(err) == stderr_lines(captured.err)
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("treeamp: error:")

    @pytest.mark.parametrize("case", ["pass", "bad-input"])
    def test_run_freezes_the_heap_before_exit(self, case, tmp_path):
        argv, code = PROCESS_CASES[case]
        probe = ("import atexit, gc; from treeamp import cli; "
                 "before = gc.get_freeze_count(); "
                 "atexit.register(lambda: print(before, gc.get_freeze_count() > 0)); "
                 "cli.run()")
        proc = fresh_python("-c", probe, *argv, "--out", str(tmp_path / "r.json"))
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == b"0 True\n"

    def test_main_leaves_the_heap_unfrozen(self, tmp_path):
        before = gc.get_freeze_count()
        assert run(tmp_path, "oc.json", PROCESS_CASES["pass"][0])[0] == 0
        assert gc.get_freeze_count() == before

    def test_console_script_is_the_main_block_entry(self):
        # the installed treeamp script and python -m treeamp.cli call one function
        scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1]
        module, func = re.search(r'^treeamp = "([\w.]+):(\w+)"$', scripts, re.M).groups()
        assert getattr(importlib.import_module(module), func) is cli.run
        body = [node for node in ast.parse(Path(cli.__file__).read_text()).body
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [ast.unparse(stmt) for block in body for stmt in block.body] == [f"{func}()"]


def test_finish_names_every_failing_verdict(tmp_path, capsys):
    report = {"config": {"limit": 7, "poly": "x^2 + 1"},
              "verdicts": {"first_bad": False, "fine": True, "second_bad": False}}
    assert cli.finish(report, str(tmp_path / "r.json"), 0.0) == 1
    fail = capsys.readouterr().err.splitlines()[-1]
    assert fail.startswith("FAIL: first_bad, second_bad ")
    assert "fine" not in fail
    assert '{"limit": "7", "poly": "x^2 + 1"}' in fail


def run_probe(probe: str, *args: str, flags: tuple[str, ...] = ()) -> str:
    """Run probe in a fresh interpreter with src on the path; its stdout."""
    proc = fresh_python(*flags, "-c", probe, *args)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode().strip()


def test_import_loads_no_sympy():
    probe = ("import sys, treeamp.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))")
    assert run_probe(probe) == "[]"


LOADED = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'treeamp'))"


def test_import_loads_no_library_module():
    assert run_probe("import sys, treeamp.cli; " + LOADED) == "treeamp treeamp.cli"


def test_import_loads_no_typing_or_random():
    # -S: without site, whose imports may load either module first
    probe = ("import sys, treeamp.cli, treeamp.orbits; "
             "print([m for m in ('typing', 'random') if m in sys.modules])")
    assert run_probe(probe, flags=("-S",)) == "[]"


# Tiny flags for each subcommand and the library modules it loads, besides
# the value base _value and the primality module _primes; every other
# treeamp module must stay unloaded.  The tree-only subcommands load no
# split filter.
SUBCOMMAND_LOADS = {
    "denom-check": (["--samples", "2"], {"gaussian"}),
    "split-density": (["--poly", "x^2+1", "--limit", "100"], {"splitting"}),
    "verify-hecke": (["--primes", "2", "--max-radius", "2"], {"hecke", "tree"}),
    "orbit-check": (["--primes", "2", "--max-j", "1"], {"orbits", "tree"}),
    "amplifier": (["--Q", "50"], {"amplifier", "orbits", "splitting", "tree"}),
}


@pytest.mark.parametrize("command", SUBCOMMAND_LOADS)
def test_subcommand_loads_only_what_it_runs(command, tmp_path):
    flags, modules = SUBCOMMAND_LOADS[command]
    probe = "import sys; from treeamp.cli import main; main(sys.argv[1:]); " + LOADED
    loaded = run_probe(probe, command, *flags, "--out", str(tmp_path / "r.json")).split()
    assert loaded == sorted({"treeamp", "treeamp.cli", "treeamp._value", "treeamp._primes"}
                            | {f"treeamp.{m}" for m in modules})


@pytest.mark.parametrize("command", SUBCOMMAND_LOADS)
def test_subcommand_imports_no_dataclasses(command, tmp_path):
    # nor fractions, where the subcommand builds no rational
    flags, _ = SUBCOMMAND_LOADS[command]
    absent = ["dataclasses", "fractions"] if command in ("verify-hecke", "orbit-check") \
        else ["dataclasses"]
    probe = ("import sys; from treeamp.cli import main; main(sys.argv[1:]); "
             f"print([m for m in {absent!r} if m in sys.modules])")
    assert run_probe(probe, command, *flags, "--out", str(tmp_path / "r.json")) == "[]"


# Edge values per flag, valid and invalid; every flag that sets a
# workload size is always given, so no drawn run exceeds 10^4 primes
# or a radius-4 ball.
EDGE_VALUES = {
    "verify-hecke": {"--primes": ["2", "2,3", "13", "", "4", "17", "2,2"],
                     "--max-radius": [None, "0", "2", "3", "4", "8", "10"]},
    "split-density": {"--poly": ["x^2+1", "x-1", "x^2", "x^3-3x+2", "2x^2+1", "x^^2"],
                      "--limit": ["100", "101", "10000", "99"],
                      "--expected": [None, "1/2", "0", "1/0"]},
    "denom-check": {"--samples": ["1", "2", "20", "0", "-5"],
                    "--seed": [None, "-1", "0", "7"]},
    "orbit-check": {"--orbit": [None, "sl2", "torus", "cone"],
                    "--index": [None, "1", "3", "0"],
                    "--primes": ["2", "3", "2,3", "", "4", "2,2"],
                    "--max-j": ["1", "2", "0"]},
    "amplifier": {"--Q": ["11", "50", "50,100", "10", "400,200", ""],
                  "--poly": [None, "x^2+1", "x-1", "x^3-3x+2", "2x^2+1", "x^^2"],
                  "--spectrum": [None, "trivial", "tempered"],
                  "--orbit": [None, "sl2", "torus", "cone"],
                  "--index": [None, "1", "2", "0"]},
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(EDGE_VALUES)))
    argv = [command]
    for flag, values in EDGE_VALUES[command].items():
        value = draw(st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
    return argv


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_argv())
def test_exit_code_is_0_1_or_2(argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), argv
