"""Combinatorics of the (p+1)-regular rooted tree.

Vertices are no-backtrack words: the first digit ranges over [0, p]
(the root has p+1 neighbours), every later digit over [0, p-1].
Word length is graph distance to the root, and two vertices are
adjacent exactly when one word extends the other by a single digit.
This is the vertex set of the Bruhat-Tits tree of SL2(Qp) with the
root playing the role of the standard maximal compact subgroup.
Spheres are streamed by iter_sphere and never held as sets; callers
bound their size with sphere_size.  Each public function checks its input.

The structure constants of the spherical Hecke algebra are path counts
in closed form: the vertices z on the sphere of radius a around the
root o that lie at distance b from a fixed vertex y on the sphere of
radius r all leave the geodesic from o to y at the same branch point,
at distance m = (a + r - b)/2 from o, and are counted by the
directions out of it: the cached kernel _convolution_count, which
callers with checked inputs read, behind the checked convolution_count.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from ._value import Value, integer
from ._primes import check_prime

__all__ = [
    "TreeVertex",
    "root",
    "iter_sphere",
    "sphere_size",
    "distance",
    "check_even_radius",
    "convolution_count",
]


def check_even_radius(r: int) -> None:
    """The one even-radius precondition of the Hecke algebra; r is taken by operator.index."""
    r = integer(r, "radius")
    if r < 0 or r % 2 != 0:
        raise ValueError(f"radius must be even and nonnegative, got {r}")


class TreeVertex(Value):
    """A tree vertex in word normal form.

    ``word`` is a tuple of digits; the empty tuple is the root.
    """

    __slots__ = ("prime", "word")

    def __init__(self, prime: int, word: tuple[int, ...]):
        check_prime(prime)
        word = tuple(word)
        for i, d in enumerate(word):
            hi = prime if i == 0 else prime - 1
            if not 0 <= d <= hi:
                raise ValueError(f"digit {d} at position {i} out of range [0, {hi}]")
        super().__init__(prime, word)

    def depth(self) -> int:
        return len(self.word)

    def is_root(self) -> bool:
        return not self.word


def root(p: int) -> TreeVertex:
    return TreeVertex(p, ())


def sphere_size(p: int, r: int) -> int:
    check_prime(p)
    r = integer(r, "radius")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0:
        return 1
    return (p + 1) * p ** (r - 1)


def iter_sphere(p: int, r: int):
    """Stream all vertices at distance exactly r from the root, built without
    TreeVertex's digit check: each word is a no-backtrack string by construction."""
    check_prime(p)
    r = integer(r, "radius")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0:
        yield root(p)
        return
    set_prime, set_word = TreeVertex.prime.__set__, TreeVertex.word.__set__
    for word in itertools.product(range(p + 1), *[range(p)] * (r - 1)):
        v = object.__new__(TreeVertex)
        set_prime(v, p)
        set_word(v, word)
        yield v


def distance(v: TreeVertex, w: TreeVertex) -> int:
    """Graph distance: |v| + |w| - 2 * (longest common prefix)."""
    if v.prime != w.prime:
        raise ValueError(f"vertices live on different trees (p={v.prime} vs p={w.prime})")
    lcp = 0
    for a, b in zip(v.word, w.word):
        if a != b:
            break
        lcp += 1
    return len(v.word) + len(w.word) - 2 * lcp


def convolution_count(p: int, a: int, b: int, r: int) -> int:
    """The checked entry of _convolution_count: p prime and a, b, r even integers with
    r <= a + b, checked before its cache, which cache_info() reports, is read."""
    check_prime(p)
    for radius in (a, b, r):
        check_even_radius(radius)
    if r > a + b:
        raise ValueError(f"r={r} exceeds a+b={a + b}")
    return _convolution_count(p, a, b, r)


@lru_cache(maxsize=None)
def _convolution_count(p: int, a: int, b: int, r: int) -> int:
    """Count vertices z with d(o, z) = a and d(z, y) = b for y = 0^r.

    By vertex-transitivity the count does not depend on which vertex at
    distance r is taken as y.  The path from o to z follows the
    geodesic to y for m = (a + r - b)/2 steps (an integer, since a, b
    and r are even), so there is no such z unless 0 <= m <= r; m <= a
    holds because r <= a + b.  If m = a, z is the vertex at distance a
    on that geodesic.  Otherwise z leaves it at the branch point, in
    one of its p + 1 directions less the one back to o (when m > 0) and
    the one on to y (when m < r), and then takes any of p directions at
    each of its a - m - 1 further steps.
    """
    m = (a + r - b) // 2
    if not 0 <= m <= r:
        return 0
    if m == a:
        return 1
    return (p + 1 - (m > 0) - (m < r)) * p ** (a - m - 1)


convolution_count.cache_info = _convolution_count.cache_info
