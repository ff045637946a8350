import ast
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from treeamp import amplifier, cli, hecke, orbits, splitting

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "treeamp"
MODULES = ["amplifier", "cli", "gaussian", "hecke", "orbits", "splitting", "tree"]

# Helpers that were deleted, or moved to the tests' oracles; nothing in src/ or
# scripts/ may name them again.
DELETED = ["_round_div", "gauss_gcd", "canonical_associate", "UNITS", r"GaussPrime\.make",
           "ord_at", "ord_rat", "MAX_PRIME", "adjugate", "_PROVEN_PRIMES",
           "spectral_value", "global_identity", "subtract_identity", "canonical_vertex",
           "identity_value", "ball_radius", "as_dict", "support_size", "LocalChoice",
           "_window", "count_amplifier_intersections"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_exported_name(name):
    namespace = {}
    exec(f"from treeamp.{name} import *", namespace)  # AttributeError on a missing name
    exported = getattr(importlib.import_module(f"treeamp.{name}"), "__all__", [])
    assert [n for n in exported if n not in namespace] == []


def test_no_module_imports_dataclasses():
    pattern = re.compile(r"^\s*(?:import|from)\s+dataclasses\b", re.MULTILINE)
    assert [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
            if pattern.search(path.read_text())] == []


def test_no_file_imports_argparse():
    pattern = re.compile(r"^\s*(?:import|from)\s+argparse\b", re.MULTILINE)
    assert [path.name for folder in ("src", "scripts")
            for path in sorted((ROOT / folder).rglob("*.py"))
            if pattern.search(path.read_text())] == []


def test_test_only_spectrum_and_second_sieve_stay_deleted():
    # "sieve" and "explicit" are words in docstrings, so no name search
    assert not hasattr(splitting, "sieve")
    assert not hasattr(amplifier.SpectrumModel, "explicit")
    assert not hasattr(amplifier.SpectrumKind, "EXPLICIT")
    assert not hasattr(amplifier.AmplifierReport, "all_pass")


def test_deleted_helpers_stay_deleted():
    pattern = re.compile(r"\b(?:" + "|".join(DELETED) + r")\b")
    hits = [f"{path.relative_to(ROOT)}:{k}: {line.strip()}"
            for folder in ("src", "scripts") for path in sorted((ROOT / folder).rglob("*"))
            if path.is_file() and path.suffix in (".py", ".sh")
            for k, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_local_hecke_element_has_no_test_only_methods():
    # the tests read coeffs; a name search would match GaussRat.is_zero
    assert [m for m in ("as_dict", "is_zero", "__getitem__")
            if hasattr(hecke.LocalHeckeElement, m)] == []
    assert not hasattr(amplifier.SpectrumModel, "lambda_p")  # the tests read seeds


def test_benchmark_tracer_finds_and_restores_every_name():
    """perfbench/tracer.py wraps library names it looks up with getattr, so
    deleting one breaks the traced benchmark run; the untraced run never notices."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()  # AttributeError on a name src/ no longer has
        wrapped = list(tracer._saved)
        assert [attr for owner, attr, orig in wrapped if getattr(owner, attr) is orig] == []
    finally:
        tracer.uninstall()
    assert [attr for owner, attr, orig in wrapped if getattr(owner, attr) is not orig] == []


def test_benchmark_tracer_sees_the_amplifier():
    """scaling_sweep runs build_amplifier once per Q, which counts orbit points
    by count_global_intersections, so the traced benchmark reads both."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    gauss, spectrum = splitting.parse_poly("x^2+1"), amplifier.SpectrumModel.tempered(42)
    torus = orbits.OrbitModel(orbits.OrbitKind.MULTIPLICATIVE)
    tracer.install()
    try:
        with tracer.root("sweep"):
            reports = amplifier.scaling_sweep([400, 800], gauss, spectrum, torus)
    finally:
        tracer.uninstall()
    [summary] = module.summarize(tracer.record())
    assert summary["calls"]["amplifier.build_amplifier"] == 2
    assert summary["calls"]["orbits.count_global_intersections"] == 2
    assert summary["counters"]["amplifier.primes_kept"] == sum(len(r.primes_used) for r in reports)
    assert summary["seconds"]["amplifier.self"] > 0


def test_benchmark_suite_table_is_cli_suites(monkeypatch):
    """perfbench/workloads.py keeps its own copy of the suites that
    treeamp check runs; it must name the same argvs in the same order."""
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclasses reads its module
    spec.loader.exec_module(workloads)
    assert workloads.cli_suites(0) == list(cli.SUITES.items())


def test_unchecked_builds_stay_at_their_four_sites():
    """object.__new__ builds a value without its class's checks.  Only the
    words iter_sphere streams, the lowest terms _reduced divides out, the
    places _place builds for _prime_above over a proved prime and the
    matrices _mat builds from four entries of GaussRat arithmetic are valid
    by construction; any other site needs a deliberate edit here."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__new__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"):
                sites.append(scope)
            visit(child, scope)

    for path in sorted((ROOT / "src").rglob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert sites == ["gaussian._place", "gaussian._reduced", "gaussian._mat", "tree.iter_sphere"]


# Run in a fresh interpreter, so every import, class creation and lru_cache miss
# happens under the profiler: `treeamp check`, both scripts' main and the
# split_density library calls (at 10^5; reach does not depend on the limit).
REACH_PROBE = """
import contextlib, io, json, runpy, sys, tempfile, threading
scripts, entered = sys.argv[1], set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(profile)
threading.setprofile(profile)
try:
    from treeamp import cli, splitting
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", "--out", out]) == 0
        for script in ("run_scaling_sweep.py", "scan_dichotomy.py"):
            sys.argv = [script]
            assert runpy.run_path(f"{scripts}/{script}")["main"]() == 0
        for text in ("x^2+1", "x^3-2"):
            splitting.empirical_density(splitting.parse_poly(text), 10 ** 5)
finally:
    sys.setprofile(None)
    threading.setprofile(None)
print(json.dumps([[c.co_filename, c.co_firstlineno, c.co_name] for c in entered]))
"""
REACH_REASONS = {"api", "large-input", "error-path", "value-protocol", "test-only"}


def src_functions() -> dict[tuple[str, int, str], str]:
    """(path, first line, name) -> module.qualname of every def and method in
    src/treeamp and its subpackages, a module named by its dotted path below
    treeamp; lambdas, comprehensions and class bodies are not functions here."""
    found = {}

    def walk(code, path, prefix):
        for const in code.co_consts:
            if isinstance(const, type(code)):
                name = f"{prefix}{const.co_name}"
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    found[(path, const.co_firstlineno, const.co_name)] = name
                walk(const, path, f"{name}.")

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        walk(compile(path.read_text(), str(path), "exec"), str(path), f"{module}.")
    return found


def test_every_unreached_function_is_in_the_reach_ledger():
    """tests/unreached.txt lists, with one reason each, the functions of src/
    that the suites, the scripts and the split_density calls never enter.  A
    new unreached function fails, and so does a listed one that is now reached."""
    proc = subprocess.run([sys.executable, "-c", REACH_PROBE, str(ROOT / "scripts")],
                          capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    entered = {(str(Path(path).resolve()), line, name)
               for path, line, name in json.loads(proc.stdout)}
    functions = src_functions()
    unreached = {name for key, name in functions.items() if key not in entered}
    ledger = reach_ledger()
    assert sorted(unreached - ledger.keys()) == []  # unreached and unlisted
    assert sorted(ledger.keys() - unreached) == []  # listed, but now reached or gone


def reach_ledger() -> dict[str, str]:
    """tests/unreached.txt as {module.qualname: reason}, each reason checked."""
    ledger = {}
    for line in (ROOT / "tests" / "unreached.txt").read_text().splitlines():
        if fields := line.partition("#")[0].split():
            name, reason = fields
            assert reason in REACH_REASONS, line
            ledger[name] = reason
    return ledger


# The test-only code still in src/, waiting to move to tests/oracles.py: the
# ledger's test-only class may lose names, and may gain none.
TEST_ONLY = {
    "amplifier.pick_local",
    "gaussian.Mat2.__add__",
    "hecke.GlobalHeckeElement.__init__",
    "hecke.GlobalHeckeElement.from_dict",
    "hecke.eigenvalue_sequence",
    "hecke.global_assemble",
    "hecke.norm_inf",
    "splitting.IntPoly.discriminant",
}


def test_the_test_only_class_only_shrinks():
    ledger = reach_ledger()
    assert sorted({name for name, reason in ledger.items() if reason == "test-only"}
                  - TEST_ONLY) == []
