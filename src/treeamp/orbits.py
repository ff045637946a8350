"""Small-subgroup orbits in products of tree pairs and their
intersections with one-sided Hecke supports.

Two orbit shapes occur.  The diagonal orbit {(v, v)} (conjugates of the
real subgroup) never meets a one-sided support: the right coordinate
would have to be the root, pinning the left coordinate there too.  The
torus orbit is a product of two apartments through the root; the left
apartment crosses each sphere of positive radius in exactly two
vertices, once per coset translate.

brute_force_intersect checks these closed forms by walking the orbit
through the radius-2j ball and testing each point against the support's
definition, right coordinate at the root and left coordinate at depth 2j.
count_global_intersections counts the amplifier's support from its local
squares; counting over the expanded tau is its test oracle.
"""

import enum
import math

from . import tree
from ._value import Value, instance, integer, member
from ._primes import check_prime

__all__ = [
    "OrbitKind",
    "OrbitModel",
    "orbit_intersect_one_sided",
    "brute_force_intersect",
    "count_global_intersections",
]


class OrbitKind(enum.Enum):
    MULTIPLICATIVE = "torus"
    SL2 = "sl2"


class OrbitModel(Value):
    """An orbit shape together with its finite-index multiplier.

    The kind is an OrbitKind or its name, so OrbitModel("sl2") is
    OrbitModel(OrbitKind.SL2).  The multiplier counts coset translates of
    the base orbit; root-stabilizer translation leaves intersection
    cardinalities unchanged, so translates only scale counts.
    """

    __slots__ = ("kind", "index_multiplier")

    def __init__(self, kind: OrbitKind | str, index_multiplier: int = 1):
        super().__init__(member(OrbitKind, kind, "orbit"),
                         integer(index_multiplier, "index multiplier", 1))


def orbit_intersect_one_sided(model: OrbitModel, p: int, j: int) -> int:
    """Closed-form count of orbit points inside a one-sided support."""
    instance(model, OrbitModel, "orbit model")
    check_prime(p)
    integer(j, "j", 1)
    if model.kind is OrbitKind.SL2:
        return 0
    return 2 * model.index_multiplier


def _apartment_words(max_depth: int) -> list[tuple[int, ...]]:
    """The canonical geodesic through the root, truncated to a ball, as words.

    One ray is 0, 00, 000, ...; the other is 1, 10, 100, ...
    """
    rays = ((0,) * k for k in range(1, max_depth + 1))
    return [()] + [w for ray in rays for w in (ray, (1,) + ray[1:])]


def brute_force_intersect(model: OrbitModel, p: int, j: int) -> int:
    """Enumerate the orbit inside the radius-2j ball and count one-sided support hits.

    Independent of the closed form: p and j are checked here, and each orbit
    point (left, right), a pair of words, is tested against the definition of
    the radius-2j one-sided support, sphere x {root}.  At j = 0 that is the
    identity coset {(root, root)}.  The diagonal streams tree._sphere_words.
    """
    instance(model, OrbitModel, "orbit model")
    check_prime(p)
    j = integer(j, "j", 0)
    if model.kind is OrbitKind.SL2:  # the diagonal orbit: all (w, w) within the ball
        orbit = ((w, w) for r in range(2 * j + 1) for w in tree._sphere_words(p, r))
    else:
        apartment = _apartment_words(2 * j)
        orbit = ((left, right) for left in apartment for right in apartment)
    hits = sum(1 for left, right in orbit if right == () and len(left) == 2 * j)
    return hits * model.index_multiplier


def count_global_intersections(model: OrbitModel, columns: list[list[int]]) -> int:
    """Orbit points inside the support of the amplifier tau, from its local squares.

    columns[k] holds each prime's h_p * h_p at radius 2k, 0 where it has none.
    Off the identity, tau lives on their nonzero positive radii and on one point
    per pair of primes; the torus orbit meets these twice and 2 * 2 times,
    and the finite-index multiplier scales each support point once.
    """
    if instance(model, OrbitModel, "orbit model").kind is OrbitKind.SL2:
        return 0
    one_prime = sum([len(c) - c.count(0) for c in columns[1:]])
    return model.index_multiplier * (2 * one_prime + 4 * math.comb(len(columns[0]), 2))
