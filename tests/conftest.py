import sys

import pytest

from treeamp import hecke

from oracles import subtract_identity


@pytest.fixture
def materialise():
    """Expand the amplifier of build_amplifier's kept choices over its support.

    Returns (tau1, tau), tau1 = (sum zeta_p h_p)(...)^* and
    tau = tau1 - tau1(1) delta: the oracle the closed-form report is
    checked against.
    """
    def expand(kept):
        t1 = hecke.global_assemble({c.prime: (hecke.basic(c.prime, c.j), c.phase) for c in kept})
        return t1, subtract_identity(t1)
    return expand


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok in results.items():
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {name}")
