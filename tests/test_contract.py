"""One contract for every bounded-integer parameter, every model kind and
every polynomial, orbit model and Hecke element parameter.

Each bounded integer goes through _value.integer, each kind through
_value.member and each value of one class through _value.instance, so each
row below must refuse the same inputs with the same message: the first
slice of a contract test over every exported name.
"""

import re

import pytest

from treeamp import gaussian, hecke, splitting, tree
from treeamp.amplifier import SpectrumKind, SpectrumModel, build_amplifier
from treeamp.orbits import (
    OrbitKind,
    OrbitModel,
    brute_force_intersect,
    count_global_intersections,
    orbit_intersect_one_sided,
)

TORUS = OrbitModel(OrbitKind.MULTIPLICATIVE)
X2_PLUS_1 = splitting.parse_poly("x^2+1")

# name -> (call with the parameter, the name its messages give, its least value)
BOUNDED = {
    "sphere_size radius": (lambda r: tree.sphere_size(3, r), "radius", 0),
    "iter_sphere radius": (lambda r: next(tree.iter_sphere(3, r)), "radius", 0),
    "check_even_radius": (tree.check_even_radius, "radius", 0),
    "convolution_count radius": (lambda a: tree.convolution_count(3, a, 2, 2), "radius", 0),
    "basic j": (lambda j: hecke.basic(3, j), "j", 1),
    "eigenvalue_sequence max_j": (lambda n: hecke.eigenvalue_sequence(3, 1, n), "max_j", 2),
    "OrbitModel index": (lambda m: OrbitModel(OrbitKind.MULTIPLICATIVE, m),
                         "index multiplier", 1),
    "orbit_intersect_one_sided j": (lambda j: orbit_intersect_one_sided(TORUS, 3, j), "j", 1),
    "brute_force_intersect j": (lambda j: brute_force_intersect(TORUS, 3, j), "j", 0),
    "empirical_density limit": (lambda n: splitting.empirical_density(X2_PLUS_1, n),
                                "limit", 100),
    "GaussRat d": (lambda d: gaussian.GaussRat(1, 0, d), "d", 1),
}


def outcome(call, x):
    """call(x)'s value, or the type and message of what it raised."""
    try:
        return call(x)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("row", BOUNDED)
class TestBoundedIntegers:
    def test_below_the_bound_names_the_parameter_and_value(self, row):
        call, name, low = BOUNDED[row]
        with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {low - 1}$"):
            call(low - 1)

    @pytest.mark.parametrize("x", [1.5, "2", None], ids=repr)
    def test_a_non_integer_is_refused(self, row, x):
        call, name, _ = BOUNDED[row]
        message = f"^{name} must be an integer, got {re.escape(repr(x))}$"
        with pytest.raises(ValueError, match=message):
            call(x)


@pytest.mark.parametrize("row", [row for row, (_, _, low) in BOUNDED.items() if low <= 1])
def test_true_is_taken_as_1(row):
    call = BOUNDED[row][0]
    assert outcome(call, True) == outcome(call, 1)


# name -> (the model built from its kind alone, the noun its message gives, the kinds)
KINDS = {
    "OrbitModel": (OrbitModel, "orbit", OrbitKind),
    "SpectrumModel": (SpectrumModel, "spectrum", SpectrumKind),
}


@pytest.mark.parametrize("row", KINDS)
class TestKinds:
    def test_a_kind_or_its_name(self, row):
        build, _, kinds = KINDS[row]
        for kind in kinds:
            assert build(kind.value) == build(kind)
            assert build(kind.value).kind is kind

    @pytest.mark.parametrize("x", ["cone", None, 1.5, "SL2", "TRIVIAL"], ids=repr)
    def test_an_unknown_kind_lists_every_kind(self, row, x):
        build, noun, kinds = KINDS[row]
        known = ", ".join(repr(kind.value) for kind in kinds)
        message = re.escape(f"unknown {noun} {x!r} (choose from {known})")
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(x)


# name -> (call with the parameter, the name its message gives, the class it takes)
INSTANCES = {
    "empirical_density f": (lambda f: splitting.empirical_density(f, 1000), "polynomial",
                            splitting.IntPoly),
    "split_primes_in f": (lambda f: splitting.split_primes_in(f, 2, 100), "polynomial",
                          splitting.IntPoly),
    "build_amplifier f": (lambda f: build_amplifier(50, f, SpectrumModel.trivial(), TORUS),
                          "polynomial", splitting.IntPoly),
    "orbit_intersect_one_sided model": (lambda m: orbit_intersect_one_sided(m, 3, 1),
                                        "orbit model", OrbitModel),
    "brute_force_intersect model": (lambda m: brute_force_intersect(m, 3, 1), "orbit model",
                                    OrbitModel),
    "count_global_intersections model": (lambda m: count_global_intersections(m, [[1]]),
                                         "orbit model", OrbitModel),
    "convolve f": (lambda f: hecke.convolve(f, hecke.basic(2, 1)), "Hecke element",
                   hecke.LocalHeckeElement),
    "convolve g": (lambda g: hecke.convolve(hecke.basic(2, 1), g), "Hecke element",
                   hecke.LocalHeckeElement),
    "total_mass f": (hecke.total_mass, "Hecke element", hecke.LocalHeckeElement),
}


@pytest.mark.parametrize("row", INSTANCES)
@pytest.mark.parametrize("x", ["x^2+1", "sl2", None], ids=repr)
def test_a_value_of_another_class_is_refused(row, x):
    call, name, cls = INSTANCES[row]
    message = re.escape(f"{name} must be ") + "an? " + re.escape(f"{cls.__name__}, got {x!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(x)
