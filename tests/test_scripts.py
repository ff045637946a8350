import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treeamp.cli import MAX_SIEVE, SUITES

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)


def assert_usage_error(proc: subprocess.CompletedProcess, name: str) -> str:
    """Exit 2 with nothing on stdout and one line on stderr, "<name>: error: ..."; that line."""
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{name}: error: "), proc.stderr
    return lines[0]


def test_scan_dichotomy_certifies_2_and_3_at_half():
    proc = run_script("scan_dichotomy.py", "--max-prime", "13", "--threshold", "1/2")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    certified = {int(row[0]): row[-1] for row in rows}
    assert certified == {2: "yes", 3: "yes", 5: "NO", 7: "NO", 11: "NO", 13: "NO"}


@pytest.mark.parametrize("flag,value", [("--threshold", "abc"), ("--threshold", "1/0"),
                                        ("--max-prime", "-5"), ("--max-prime", "x")])
def test_scan_dichotomy_rejects_bad_flags(flag, value):
    proc = run_script("scan_dichotomy.py", flag, value)
    assert value in assert_usage_error(proc, "scan_dichotomy.py")


def test_scan_dichotomy_refuses_a_bound_above_the_sieve_cap():
    proc = run_script("scan_dichotomy.py", "--max-prime", str(MAX_SIEVE + 1))
    line = assert_usage_error(proc, "scan_dichotomy.py")
    assert "--max-prime" in line and str(MAX_SIEVE + 1) in line and f"cap {MAX_SIEVE}" in line


@pytest.mark.parametrize("orbit,spectrum", [("sl2", "trivial"), ("torus", "tempered")])
def test_run_scaling_sweep_tabulates_each_window(orbit, spectrum):
    proc = run_script("run_scaling_sweep.py", "--Q", "50,100", "--spectrum", spectrum,
                      "--orbit", orbit)
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["50", "100"]
    assert all(row.endswith(" ok") for row in rows)


@pytest.mark.parametrize("q", ["5", "50,50", "abc", "400,200", ""])
def test_run_scaling_sweep_rejects_bad_q(q):
    proc = run_script("run_scaling_sweep.py", "--Q", q)
    assert_usage_error(proc, "run_scaling_sweep.py")
    assert "_int_list" not in proc.stderr


def test_run_scaling_sweep_refuses_a_window_above_the_sieve_cap():
    proc = run_script("run_scaling_sweep.py", "--Q", "500001")
    line = assert_usage_error(proc, "run_scaling_sweep.py")
    assert "500001" in line and str(MAX_SIEVE) in line


def test_run_scaling_sweep_exits_1_on_a_failed_verdict():
    # at seed 10 the two split primes in [11, 22] draw eigenvalues too
    # small to beat the identity mass, so Lambda < 0
    proc = run_script("run_scaling_sweep.py", "--Q", "11", "--spectrum", "tempered",
                      "--seed", "10")
    assert proc.returncode == 1, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 1 and rows[0].endswith(" lambda_positive")


def run_all_checks(args: list[str], bin_dir: Path, env: dict) -> subprocess.CompletedProcess:
    """scripts/run_all_checks.sh with bin_dir first on PATH."""
    env = dict(env, PATH=os.pathsep.join([str(bin_dir), env.get("PATH", "")]))
    return subprocess.run(["bash", str(ROOT / "scripts" / "run_all_checks.sh"), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("given,outdir,stub_exit", [("out", "out", 1), (None, "reports", 0),
                                                    ("", "reports", 2)])
def test_run_all_checks_is_one_treeamp_check_call(tmp_path, given, outdir, stub_exit):
    # a treeamp on PATH that records its argv, one per line
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    stub = bin_dir / "treeamp"
    stub.write_text(f'#!/bin/sh\nprintf "%s\\n" "$@" >> "{tmp_path}/calls"\nexit {stub_exit}\n')
    stub.chmod(0o755)
    proc = run_all_checks([] if given is None else [given], bin_dir, dict(os.environ))
    assert proc.returncode == stub_exit, proc.stdout + proc.stderr
    assert (tmp_path / "calls").read_text().splitlines() == ["check", "--out", outdir]


@pytest.mark.parametrize("on_path", [False, True], ids=["python3-m", "treeamp"])
def test_run_all_checks_writes_every_recorded_report(tmp_path, on_path):
    # python3 is the running interpreter, and treeamp, when on PATH, runs it
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "python3").symlink_to(sys.executable)
    if on_path:
        (bin_dir / "treeamp").write_text(f'#!/bin/sh\nexec {sys.executable} -m treeamp.cli "$@"\n')
        (bin_dir / "treeamp").chmod(0o755)
    path = [d for d in os.environ.get("PATH", "").split(os.pathsep)
            if d and not (Path(d) / "treeamp").exists()]
    env = dict(os.environ, PATH=os.pathsep.join(path), PYTHONPATH=str(ROOT / "src"))
    outdir = tmp_path / "reports"
    proc = run_all_checks([str(outdir)], bin_dir, env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [line for name in SUITES for line in (
        f"== {name}", f"   ok -> {outdir}/{name}.json")]
    recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())["cli_suites"]
    assert sorted(p.name for p in outdir.iterdir()) == sorted(f"{name}.json" for name in SUITES)
    for name, argv in SUITES.items():
        report = (outdir / f"{name}.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == recorded[" ".join(argv)]["sha256"], name


def test_check_pythons_matches_every_recorded_report_on_every_supported_python(
        supported_pythons):
    # eight CLI suites, two amplifier sweeps, the denom-check draws and the
    # six split_density fractions per interpreter
    pythons = supported_pythons
    proc = run_script("check_pythons.py", *pythons)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    n = 12 * len(pythons)
    assert proc.stdout.splitlines() == [f"{n} of {n} reports match under "
                                        f"{len(pythons)} interpreter(s)"]


def test_check_pythons_reports_each_mismatch(tmp_path):
    fake = tmp_path / "python"
    fake.write_text("#!/bin/sh\nexit 3\n")
    fake.chmod(0o755)
    proc = run_script("check_pythons.py", str(fake))
    assert proc.returncode == 1
    *lines, summary = proc.stdout.splitlines()
    assert len(lines) == 12 and all(line.startswith(f"{fake}: ") for line in lines)
    assert all(line.endswith(", recorded 0") for line in lines[:8])
    assert lines[8:] == [f"{fake}: amplifier_sweep configuration {i}: exit 3, expected 0"
                         for i in (0, 1)] + [f"{fake}: denom-check draws: exit 3, expected 0",
                                             f"{fake}: split_density fractions: exit 3, expected 0"]
    assert summary == "0 of 12 reports match under 1 interpreter(s)"


def test_check_pythons_catches_a_drifted_generator(tmp_path):
    # an interpreter whose Mersenne Twister gives other bits: the tempered
    # suite, the tempered sweep and denom-check's draws differ; denom-check's
    # report, which holds only verdicts, and the rest still match
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        "import random\n"
        "class Drifted(random.Random):\n"
        "    def getrandbits(self, k):\n"
        "        return super().getrandbits(k) ^ 1\n"
        "random.Random = Drifted\n")
    fake = tmp_path / "python"
    fake.write_text(f'#!/bin/sh\nPYTHONPATH="{site}:$PYTHONPATH" exec {sys.executable} "$@"\n')
    fake.chmod(0o755)
    proc = run_script("check_pythons.py", str(fake))
    assert proc.returncode == 1
    *lines, summary = proc.stdout.splitlines()
    assert [line.split(": ")[1] for line in lines] == [
        "amplifier --Q 50,100,200,400 --spectrum tempered --seed 42 --orbit torus",
        "amplifier tempered seed=42 torus",
        "denom-check draws",
    ]
    assert "amplifier tempered seed=42 torus Q=400: differs from the record in " in lines[1]
    assert lines[2].endswith(": differ from tests/denom_draws.json in results, first, sha256")
    assert summary == "9 of 12 reports match under 1 interpreter(s)"


def test_check_pythons_catches_a_drifted_density(tmp_path):
    # an interpreter whose densities have a numerator one too small:
    # the two split-density suites and the six fractions differ, the rest match
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        "from fractions import Fraction\n"
        "from treeamp import splitting\n"
        "density = splitting.empirical_density\n"
        "def drifted(f, limit):\n"
        "    x = density(f, limit)\n"
        "    return Fraction(x.numerator - 1, x.denominator)\n"
        "splitting.empirical_density = drifted\n")
    fake = tmp_path / "python"
    fake.write_text(f'#!/bin/sh\nPYTHONPATH="{site}:$PYTHONPATH" exec {sys.executable} "$@"\n')
    fake.chmod(0o755)
    proc = run_script("check_pythons.py", str(fake))
    assert proc.returncode == 1
    *lines, summary = proc.stdout.splitlines()
    assert [line.split(": ")[1] for line in lines] == [
        " ".join(SUITES["split-density-quad"]), " ".join(SUITES["split-density-cube"]),
        "split_density fractions"]
    assert lines[2].count(", recorded ") == 6
    assert "x^3-2 limit=1000000: 723/4361, recorded 724/4361" in lines[2]
    assert summary == "9 of 12 reports match under 1 interpreter(s)"


def test_check_pythons_needs_an_interpreter():
    proc = run_script("check_pythons.py")
    assert_usage_error(proc, "check_pythons.py")
