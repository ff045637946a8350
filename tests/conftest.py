import os
import re
import sys
from pathlib import Path

import pytest

from treeamp import hecke

from oracles import subtract_identity


@pytest.fixture
def materialise():
    """Expand the amplifier of build_amplifier's kept picks (p, j, num, den, met)
    over its support, each h_p the radius-2j indicator with the sign of num.

    Returns (tau1, tau), tau1 = (sum zeta_p h_p)(...)^* and
    tau = tau1 - tau1(1) delta: the oracle the closed-form report is
    checked against.
    """
    def expand(picks):
        t1 = hecke.global_assemble({p: (hecke.basic(p, j), -1 if num < 0 else 1)
                                    for p, j, num, den, met in picks})
        return t1, subtract_identity(t1)
    return expand


@pytest.fixture(scope="session")
def supported_pythons() -> list[str]:
    """This interpreter plus every pyenv CPython 3.10 or later, by its version directory."""
    pythons = [sys.executable]
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    for exe in sorted(versions.glob("3.*/bin/python3")):
        minor = re.match(r"3\.(\d+)", exe.parent.parent.name)
        if (minor and int(minor[1]) >= 10
                and exe.resolve() not in {Path(p).resolve() for p in pythons}):
            pythons.append(str(exe))
    return pythons


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok in results.items():
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {name}")
