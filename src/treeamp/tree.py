"""Combinatorics of the (p+1)-regular rooted tree.

Vertices are no-backtrack words: the first digit ranges over [0, p]
(the root has p+1 neighbours), every later digit over [0, p-1].
Word length is graph distance to the root, and two vertices are
adjacent exactly when one word extends the other by a single digit.
This is the vertex set of the Bruhat-Tits tree of SL2(Qp) with the
root playing the role of the standard maximal compact subgroup.
Spheres are streamed by iter_sphere and never held as sets; callers
bound their size with sphere_size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .splitting import is_prime

__all__ = [
    "TreeVertex",
    "root",
    "canonical_vertex",
    "iter_sphere",
    "sphere_size",
    "distance",
    "convolution_count",
]


@lru_cache(maxsize=None)  # every vertex checks its prime; only primes are cached
def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


@dataclass(frozen=True)
class TreeVertex:
    """A tree vertex in word normal form.

    ``word`` is a tuple of digits; the empty tuple is the root.
    """

    prime: int
    word: tuple[int, ...]

    def __post_init__(self):
        _check_prime(self.prime)
        p = self.prime
        for i, d in enumerate(self.word):
            hi = p if i == 0 else p - 1
            if not 0 <= d <= hi:
                raise ValueError(f"digit {d} at position {i} out of range [0, {hi}]")

    def depth(self) -> int:
        return len(self.word)

    def is_root(self) -> bool:
        return not self.word


def root(p: int) -> TreeVertex:
    return TreeVertex(p, ())


def canonical_vertex(p: int, r: int) -> TreeVertex:
    """The all-zeros vertex at distance r from the root."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return TreeVertex(p, (0,) * r)


def sphere_size(p: int, r: int) -> int:
    _check_prime(p)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0:
        return 1
    return (p + 1) * p ** (r - 1)


def iter_sphere(p: int, r: int):
    """Stream all vertices at distance exactly r from the root."""
    _check_prime(p)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0:
        yield root(p)
        return
    for first in range(p + 1):
        for rest in itertools.product(range(p), repeat=r - 1):
            yield TreeVertex(p, (first,) + rest)


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


def _count_leading_zeros_exact(p: int, a: int, k: int) -> int:
    """Number of length-a words whose leading-zero run is exactly k."""
    if a == 0:
        return 1 if k == 0 else 0
    if k == a:
        return 1
    if k == 0:
        # first digit nonzero: p of the p+1 choices, rest free
        return p * p ** (a - 1)
    # first k digits zero, digit k nonzero among [0, p-1], rest free
    return (p - 1) * p ** (a - 1 - k)


def _count_leading_zeros_at_least(p: int, a: int, k: int) -> int:
    """Number of length-a words whose leading-zero run is at least k."""
    if k == 0:
        return sphere_size(p, a)
    if k > a:
        return 0
    return p ** (a - k) if k < a else 1


@lru_cache(maxsize=None)
def convolution_count(p: int, a: int, b: int, r: int) -> int:
    """Count vertices z with d(o, z) = a and d(z, y) = b for y = 0^r.

    By vertex-transitivity the count does not depend on which vertex at
    distance r is taken as y.  For z of length a, d(z, 0^r) =
    a + r - 2 * min(leading zeros of z, r), so counting reduces to
    counting leading-zero runs.
    """
    _check_prime(p)
    for name, val in (("a", a), ("b", b), ("r", r)):
        if val < 0:
            raise ValueError(f"{name} must be nonnegative")
        if val % 2 != 0:
            raise ValueError(f"{name} must be even, got {val}")
    if r > a + b:
        raise ValueError(f"r={r} exceeds a+b={a + b}")
    two_m = a + r - b
    if two_m < 0 or two_m % 2 != 0:
        return 0
    m = two_m // 2
    if m > min(a, r):
        return 0
    if m < r:
        return _count_leading_zeros_exact(p, a, m)
    # m == r: any leading-zero run of length >= r gives common prefix r
    return _count_leading_zeros_at_least(p, a, r)
