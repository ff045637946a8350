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

from __future__ import annotations

import enum
import math

from . import tree
from ._value import Value, integer
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

    The multiplier counts coset translates of the base orbit; root-
    stabilizer translation leaves intersection cardinalities unchanged,
    so translates only scale counts.
    """

    __slots__ = ("kind", "index_multiplier")

    def __init__(self, kind: OrbitKind, index_multiplier: int = 1):
        index_multiplier = integer(index_multiplier, "index multiplier")
        if index_multiplier < 1:
            raise ValueError("index multiplier must be >= 1")
        super().__init__(kind, index_multiplier)


def orbit_intersect_one_sided(model: OrbitModel, p: int, j: int) -> int:
    """Closed-form count of orbit points inside a one-sided support."""
    check_prime(p)
    if integer(j, "j") < 1:
        raise ValueError("j must be >= 1")
    if model.kind is OrbitKind.SL2:
        return 0
    return 2 * model.index_multiplier


def _apartment_points(p: int, max_depth: int) -> list[tree.TreeVertex]:
    """The canonical geodesic through the root, truncated to a ball.

    One ray is 0, 00, 000, ...; the other is 1, 10, 100, ...
    """
    points = [tree.root(p)]
    for k in range(1, max_depth + 1):
        points.append(tree.TreeVertex(p, (0,) * k))
        points.append(tree.TreeVertex(p, (1,) + (0,) * (k - 1)))
    return points


def brute_force_intersect(model: OrbitModel, p: int, j: int) -> int:
    """Enumerate the orbit inside the radius-2j ball and count one-sided support hits.

    Independent of the closed form: each orbit point (left, right) is
    tested against the definition of the radius-2j one-sided support,
    sphere x {root}.  At j = 0 that is the identity coset {(root, root)}.
    """
    j = integer(j, "j")
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    if model.kind is OrbitKind.SL2:  # the diagonal orbit: all (v, v) within the ball
        orbit = ((v, v) for r in range(2 * j + 1) for v in tree.iter_sphere(p, r))
    else:
        apartment = _apartment_points(p, 2 * j)
        orbit = ((left, right) for left in apartment for right in apartment)
    hits = sum(1 for left, right in orbit if right.is_root() and left.depth() == 2 * j)
    return hits * model.index_multiplier


def count_global_intersections(model: OrbitModel, squares: list[tuple[int, ...]]) -> int:
    """Orbit points inside the support of the amplifier tau, from its local squares.

    Each h_p * h_p is its sequence of coefficients at index r/2.  Off the
    identity, tau lives on their nonzero positive radii and on one point
    per pair of primes; the torus orbit meets these twice and 2 * 2 times,
    and the finite-index multiplier scales each support point once.
    """
    if model.kind is OrbitKind.SL2:
        return 0
    one_prime = sum([len(s) - 1 - s[1:].count(0) for s in squares])
    return model.index_multiplier * (2 * one_prime + 4 * math.comb(len(squares), 2))
