import ast
import importlib.util
import re
from pathlib import Path

import pytest

from treeamp import amplifier, hecke, splitting

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["amplifier", "cli", "gaussian", "hecke", "orbits", "splitting", "tree"]

# Helpers that were deleted, or moved to the tests' oracles; nothing in src/ or
# scripts/ may name them again.
DELETED = ["_round_div", "gauss_gcd", "canonical_associate", "UNITS", r"GaussPrime\.make",
           "ord_at", "ord_rat", "MAX_PRIME", "adjugate", "_PROVEN_PRIMES",
           "spectral_value", "global_identity", "subtract_identity", "canonical_vertex",
           "identity_value", "ball_radius", "as_dict"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_finds_every_exported_name(name):
    namespace = {}
    exec(f"from treeamp.{name} import *", namespace)  # AttributeError on a missing name
    exported = getattr(importlib.import_module(f"treeamp.{name}"), "__all__", [])
    assert [n for n in exported if n not in namespace] == []


def test_no_module_imports_dataclasses():
    pattern = re.compile(r"^\s*(?:import|from)\s+dataclasses\b", re.MULTILINE)
    assert [path.name for path in sorted((ROOT / "src" / "treeamp").glob("*.py"))
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


def test_support_size_left_hecke():
    # a name search would match LocalChoice.support_size in amplifier.py
    assert not hasattr(hecke, "support_size")


def test_local_hecke_element_has_no_test_only_methods():
    # the tests read coeffs; a name search would match GaussRat.is_zero
    assert [m for m in ("as_dict", "is_zero") if hasattr(hecke.LocalHeckeElement, m)] == []


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


def test_unchecked_builds_stay_at_their_three_sites():
    """object.__new__ builds a value without its class's checks.  Only the
    words iter_sphere streams, the lowest terms _reduced divides out and the
    places _place builds for _prime_above over a proved prime are valid by
    construction; any other site needs a deliberate edit here."""
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
    assert sites == ["gaussian._place", "gaussian._reduced", "tree.iter_sphere"]
