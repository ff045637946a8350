"""Value semantics of the library's value classes.

Each class keeps the behaviour of a frozen dataclass: field-wise equality
within one class only, hash of the field tuple, the Name(field=value)
repr, no assignment or deletion, and pickle and copy round-trips that go
back through the constructor's checks.  AmplifierReport is the mutable,
unhashable exception.
"""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from treeamp.amplifier import AmplifierReport, LocalChoice, SpectrumKind, SpectrumModel
from treeamp.gaussian import GaussInt, GaussPrime, GaussRat, Mat2
from treeamp.hecke import EigenvalueSequence, GlobalHeckeElement, LocalHeckeElement
from treeamp.orbits import OrbitKind, OrbitModel
from treeamp.splitting import IntPoly
from treeamp.tree import TreeVertex

R = GaussRat(1, 2, 3)

# (build, its field tuple, repr of a frozen dataclass with the same fields)
FROZEN = {
    "IntPoly": (lambda: IntPoly((1, 0, 1)), ((1, 0, 1),), "IntPoly(coeffs=(1, 0, 1))"),
    "TreeVertex": (lambda: TreeVertex(3, (0, 2)), (3, (0, 2)),
                   "TreeVertex(prime=3, word=(0, 2))"),
    "GaussInt": (lambda: GaussInt(1, -2), (1, -2), "GaussInt(a=1, b=-2)"),
    "GaussPrime": (lambda: GaussPrime(GaussInt(2, 1), 5), (GaussInt(2, 1), 5),
                   "GaussPrime(generator=GaussInt(a=2, b=1), residue_size=5)"),
    "GaussRat": (lambda: GaussRat(1, 2, 3), (1, 2, 3), "GaussRat(a=1, b=2, d=3)"),
    "Mat2": (lambda: Mat2((R, GaussRat(0, 0), GaussRat(-1, 0), GaussRat(0, 1, 2))),
             ((R, GaussRat(0, 0), GaussRat(-1, 0), GaussRat(0, 1, 2)),),
             "Mat2(entries=(GaussRat(a=1, b=2, d=3), GaussRat(a=0, b=0, d=1), "
             "GaussRat(a=-1, b=0, d=1), GaussRat(a=0, b=1, d=2)))"),
    "LocalHeckeElement": (lambda: LocalHeckeElement(2, ((0, 6), (2, 1))), (2, ((0, 6), (2, 1))),
                          "LocalHeckeElement(prime=2, coeffs=((0, 6), (2, 1)))"),
    "EigenvalueSequence": (lambda: EigenvalueSequence(2, (Fraction(1), Fraction(6))),
                           (2, (Fraction(1), Fraction(6))),
                           "EigenvalueSequence(prime=2, lambdas=(Fraction(1, 1), Fraction(6, 1)))"),
    "GlobalHeckeElement": (
        lambda: GlobalHeckeElement((((), 4), (((5, 2),), 2), (((5, 2), (13, 2)), -2))),
        ((((), 4), (((5, 2),), 2), (((5, 2), (13, 2)), -2)),),
        "GlobalHeckeElement(coeffs=(((), 4), (((5, 2),), 2), (((5, 2), (13, 2)), -2)))"),
    "OrbitModel": (lambda: OrbitModel(OrbitKind.MULTIPLICATIVE, 2), (OrbitKind.MULTIPLICATIVE, 2),
                   "OrbitModel(kind=<OrbitKind.MULTIPLICATIVE: 'torus'>, index_multiplier=2)"),
    "SpectrumModel": (lambda: SpectrumModel.explicit({5: Fraction(1, 2)}),
                      (SpectrumKind.EXPLICIT, 0, ((5, Fraction(1, 2)),)),
                      "SpectrumModel(kind=<SpectrumKind.EXPLICIT: 'explicit'>, seed=0, "
                      "values=((5, Fraction(1, 2)),))"),
    "LocalChoice": (lambda: LocalChoice(5, 2, 4, Fraction(-30), -1, True),
                    (5, 2, 4, Fraction(-30), -1, True),
                    "LocalChoice(prime=5, j=2, ell=4, lam=Fraction(-30, 1), phase=-1, "
                    "guarantee_met=True)"),
}

# constructor arguments each class's checks reject
TAMPERED = {
    "IntPoly": (IntPoly, ((1, 0),)),
    "TreeVertex": (TreeVertex, (4, ())),
    "GaussPrime": (GaussPrime, (GaussInt(2, 1), 7)),
    "GaussRat": (GaussRat, (2, 4, 6)),
    "Mat2": (Mat2, ((R, R, R),)),
    "LocalHeckeElement": (LocalHeckeElement, (2, ((2, 1), (0, 6)))),
    "EigenvalueSequence": (EigenvalueSequence, (4, ())),
    "GlobalHeckeElement": (GlobalHeckeElement, (((((5, 0),), 1),),)),
    "OrbitModel": (OrbitModel, (OrbitKind.SL2, 0)),
    "SpectrumModel": (SpectrumModel, (SpectrumKind.EXPLICIT, 0, ((7, 1), (5, 1)))),
}


def report(**scaled):
    return AmplifierReport(50, 2, [53, 61], Fraction(7, 2), 3, 3, 2, 0, 0.0, 0.5,
                           {"lambda_positive": True}, **scaled)


@pytest.mark.parametrize("name", FROZEN)
class TestFrozen:
    def test_equal_values_are_equal_and_hash_as_their_fields(self, name):
        build, fields, _ = FROZEN[name]
        x, y = build(), build()
        assert x is not y and x == y and not x != y
        assert hash(x) == hash(y) == hash(fields)
        assert {x: 1}[y] == 1

    def test_never_equal_to_its_field_tuple(self, name):
        build, fields, _ = FROZEN[name]
        assert build() != fields and fields != build()

    def test_assignment_and_deletion_raise(self, name):
        build, _, text = FROZEN[name]
        x = build()
        field = re.match(r"\w+\((\w+)=", text).group(1)
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert x == build()

    def test_repr(self, name):
        build, _, text = FROZEN[name]
        assert repr(build()) == text

    def test_pickle_and_copy_round_trip(self, name):
        x = FROZEN[name][0]()
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)


class Tampered:
    """Pickles as a call to cls(*args), as a value class does."""

    def __init__(self, cls, args):
        self.call = cls, args

    def __reduce__(self):
        return self.call


@pytest.mark.parametrize("name", TAMPERED)
def test_tampered_state_is_rejected(name):
    cls, args = TAMPERED[name]
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(Tampered(cls, args)))


def test_cross_class_equality():
    assert GaussInt(1, 0) != (1, 0)
    assert GaussInt(1, 0) != GaussRat(1, 0)
    assert GaussRat(1, 0) != GaussInt(1, 0)
    assert GaussInt(1, 0).__eq__(GaussRat(1, 0)) is NotImplemented


def test_keywords_and_defaults():
    assert GaussRat(1, 0) == GaussRat(a=1, b=0, d=1)
    assert OrbitModel(OrbitKind.SL2) == OrbitModel(kind=OrbitKind.SL2, index_multiplier=1)
    assert SpectrumModel(SpectrumKind.TEMPERED_RANDOM, seed=3) == \
        SpectrumModel(SpectrumKind.TEMPERED_RANDOM, 3, ())
    assert SpectrumModel(SpectrumKind.TRIVIAL).seed == 0
    assert TreeVertex(prime=2, word=()) == TreeVertex(2, ())
    assert report().lambda_scaled is None


class TestSequenceFieldsAreTuples:
    def test_tree_vertex(self):
        v = TreeVertex(2, [0, 1])
        assert v == TreeVertex(2, (0, 1)) and hash(v) == hash(TreeVertex(2, (0, 1)))
        assert v.word == (0, 1)

    def test_int_poly(self):
        f = IntPoly([1, 0, 1])
        assert f == IntPoly((1, 0, 1)) and hash(f) == hash(IntPoly((1, 0, 1)))
        assert f.discriminant() == -4

    def test_local_hecke_element(self):
        h, want = LocalHeckeElement(2, [(0, 1)]), LocalHeckeElement(2, ((0, 1),))
        assert h == want and hash(h) == hash(want)

    def test_local_hecke_element_from_nested_lists(self):
        h, want = LocalHeckeElement(2, [[0, 1], [2, -1]]), LocalHeckeElement(2, ((0, 1), (2, -1)))
        assert h == want and hash(h) == hash(want)
        assert h.coeffs == ((0, 1), (2, -1))

    def test_global_hecke_element_from_nested_lists(self):
        g = GlobalHeckeElement([((), 1), ([[2, 2], [3, 4]], -1), ([(5, 2)], 1)])
        want = GlobalHeckeElement((((), 1), (((2, 2), (3, 4)), -1), (((5, 2),), 1)))
        assert g == want and hash(g) == hash(want)
        with pytest.raises(ValueError, match="strictly ascending"):
            GlobalHeckeElement([([(5, 2)], 1), ((), 1)])

    def test_other_sequence_fields(self):
        assert EigenvalueSequence(2, [1, 6]) == EigenvalueSequence(2, (1, 6))
        assert GlobalHeckeElement([((), 1)]) == GlobalHeckeElement((((), 1),))
        assert SpectrumModel(SpectrumKind.EXPLICIT, values=[(5, 1)]) == \
            SpectrumModel(SpectrumKind.EXPLICIT, values=((5, 1),))
        hash(SpectrumModel(SpectrumKind.EXPLICIT, values=[(5, 1)]))

    def test_eigenvalue_sequence_checks_its_prime(self):
        with pytest.raises(ValueError, match="p must be prime, got 4"):
            EigenvalueSequence(4, ())


class TestAmplifierReport:
    def test_field_wise_equality_and_unhashable(self):
        assert report() == report() and report() != report(lambda_scaled=1.0)
        with pytest.raises(TypeError):
            hash(report())

    def test_mutable_with_every_field_in_vars(self):
        rep = report()
        rep.lambda_scaled = 2.5
        assert rep == report(lambda_scaled=2.5)
        assert list(vars(rep)) == re.findall(r"(\w+)=", repr(report()))

    def test_repr(self):
        assert repr(report()) == (
            "AmplifierReport(Q=50, ell=2, primes_used=[53, 61], Lambda=Fraction(7, 2), "
            "tau1_at_identity=3, c_tau=3, norm_inf=2, intersection_count=0, "
            "ratio_intersections=0.0, ratio_positivity=0.5, "
            "verdicts={'lambda_positive': True}, lambda_scaled=None, norm_inf_scaled=None, "
            "positivity_scaled=None)")

    def test_pickle_and_deepcopy_round_trip(self):
        rep = report(positivity_scaled=0.25)
        for other in (pickle.loads(pickle.dumps(rep)), copy.deepcopy(rep)):
            assert other == rep and other is not rep
