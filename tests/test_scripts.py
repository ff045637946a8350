import os
import subprocess
import sys
from pathlib import Path

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
