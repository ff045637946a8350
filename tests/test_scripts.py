import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from treeamp.cli import MAX_SIEVE

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)


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
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr.splitlines()[-1]


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
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr.splitlines()[-1]
    assert "_int_list" not in proc.stderr


def test_run_scaling_sweep_refuses_a_window_above_the_sieve_cap():
    proc = run_script("run_scaling_sweep.py", "--Q", "500001")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    line = proc.stderr.splitlines()[-1]
    assert "error:" in line and "500001" in line and str(MAX_SIEVE) in line


def test_run_scaling_sweep_exits_1_on_a_failed_verdict():
    # at seed 10 the two split primes in [11, 22] draw eigenvalues too
    # small to beat the identity mass, so Lambda < 0
    proc = run_script("run_scaling_sweep.py", "--Q", "11", "--spectrum", "tempered",
                      "--seed", "10")
    assert proc.returncode == 1, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 1 and rows[0].endswith(" lambda_positive")


@pytest.mark.parametrize("stub_exit,script_fails", [(1, True), (0, False)])
def test_run_all_checks_runs_every_suite_and_reports_failure(tmp_path, stub_exit, script_fails):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    stub = bin_dir / "treeamp"
    stub.write_text(f"#!/bin/sh\nexit {stub_exit}\n")
    stub.chmod(0o755)
    env = dict(os.environ, PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))
    proc = subprocess.run(["bash", str(ROOT / "scripts" / "run_all_checks.sh"),
                           str(tmp_path / "reports")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode != 0) == script_fails, proc.stdout + proc.stderr
    assert sum(line.startswith("==") for line in proc.stdout.splitlines()) == 8


def test_run_all_checks_runs_from_a_checkout_without_treeamp_on_path(tmp_path):
    # python3 is the running interpreter; no PATH entry holds a treeamp
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "python3").symlink_to(sys.executable)
    path = [str(bin_dir)] + [d for d in os.environ.get("PATH", "").split(os.pathsep)
                             if d and not (Path(d) / "treeamp").exists()]
    env = dict(os.environ, PATH=os.pathsep.join(path), PYTHONPATH=str(ROOT / "src"))
    script = ROOT / "scripts" / "run_all_checks.sh"
    proc = subprocess.run(["bash", str(script), str(tmp_path / "reports")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())["cli_suites"]
    suites = [shlex.split(line)[1:] for line in script.read_text().splitlines()
              if line.startswith("run ")]
    assert len(suites) == 8
    for name, *argv in suites:
        report = (tmp_path / "reports" / f"{name}.json").read_bytes()
        assert hashlib.sha256(report).hexdigest() == recorded[" ".join(argv)]["sha256"], name
