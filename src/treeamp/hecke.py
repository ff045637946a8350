"""Spherical Hecke algebra on the (p+1)-regular tree.

Elements are finitely supported integer combinations of the radius-2j
double-coset indicators.  Convolution is computed from the tree path
counts, so every identity here is exact integer arithmetic.  Global
(multi-prime) elements are indexed by support points: finitely
supported maps prime -> even radius, the empty map being the identity
coset.  Only the tests build global elements, to expand the amplifier;
its spectral evaluation lives in tests/oracles.py.
"""

from __future__ import annotations

from . import tree
from ._value import Value
from ._primes import check_prime

__all__ = [
    "MAX_RADIUS",
    "LocalHeckeElement",
    "GlobalHeckeElement",
    "EigenvalueSequence",
    "identity",
    "basic",
    "convolve",
    "total_mass",
    "eigenvalue_sequence",
    "global_assemble",
    "norm_inf",
]

# Input support radii beyond this are rejected outright.
MAX_RADIUS = 8

SupportPoint = tuple[tuple[int, int], ...]  # sorted ((prime, radius), ...)

# Both element classes store one tuple pair per key, keys ascending, so
# equal elements compare equal and every sum over coeffs counts a key once.
_NOT_CANONICAL = "coeffs must be strictly ascending by key with no zero coefficient"


class LocalHeckeElement(Value):
    """Finitely supported function on even radii at a single prime."""

    __slots__ = ("prime", "coeffs")  # coeffs: sorted (radius, coefficient), coefficient != 0

    def __init__(self, prime: int, coeffs: tuple[tuple[int, int], ...]):
        check_prime(prime)
        coeffs = tuple((r, c) for r, c in coeffs)
        last = -1
        for r, c in coeffs:
            tree.check_even_radius(r)
            if r <= last or c == 0:
                raise ValueError(f"{_NOT_CANONICAL}, got {coeffs}")
            last = r
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def from_dict(p: int, coeffs: dict[int, int]) -> "LocalHeckeElement":
        return LocalHeckeElement(p, tuple(sorted((r, c) for r, c in coeffs.items() if c != 0)))

    def __getitem__(self, r: int) -> int:
        return dict(self.coeffs).get(r, 0)

    def max_radius(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else 0


def identity(p: int) -> LocalHeckeElement:
    """The identity element: the radius-0 indicator."""
    return LocalHeckeElement(p, ((0, 1),))


def basic(p: int, j: int) -> LocalHeckeElement:
    """The radius-2j double-coset indicator."""
    if j < 1:
        raise ValueError("j must be >= 1; use identity() for j = 0")
    if 2 * j > MAX_RADIUS:
        raise ValueError(f"radius 2j={2 * j} exceeds the cap {MAX_RADIUS}")
    return LocalHeckeElement(p, ((2 * j, 1),))


def total_mass(f: LocalHeckeElement):
    """Sum of coefficient * sphere size over the support."""
    return sum(c * tree.sphere_size(f.prime, r) for r, c in f.coeffs)


def convolve(f: LocalHeckeElement, g: LocalHeckeElement) -> LocalHeckeElement:
    """Convolution product, bilinear in the structure constants.

    The product of the radius-a and radius-b indicators lives on the
    radii |a - b|, |a - b| + 2, ..., a + b, each with a nonzero count, so
    the coefficients are summed into a list indexed by r/2 and read off
    in ascending order.
    """
    if f.prime != g.prime:
        raise ValueError(f"prime mismatch: {f.prime} vs {g.prime}")
    p = f.prime
    top = (f.max_radius(), g.max_radius())
    if max(top) > MAX_RADIUS:
        raise ValueError(f"input radius {max(top)} exceeds the cap {MAX_RADIUS}")
    out = [0] * (sum(top) // 2 + 1)
    for a, ca in f.coeffs:
        for b, cb in g.coeffs:
            w = ca * cb
            for r in range(abs(a - b), a + b + 1, 2):
                out[r // 2] += w * tree.convolution_count(p, a, b, r)
    return LocalHeckeElement(p, tuple((2 * k, c) for k, c in enumerate(out) if c))


class EigenvalueSequence(Value):
    """Eigenvalues of the radius-2j operators, lambda[0] = 1."""

    __slots__ = ("prime", "lambdas")

    def __init__(self, prime: int, lambdas: tuple):
        check_prime(prime)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "lambdas", tuple(lambdas))

    def value(self, j: int):
        if j < 0:
            raise ValueError(f"j must be >= 0, got {j}")
        if j >= len(self.lambdas):
            raise ValueError(f"sequence at p={self.prime} too short for j={j}")
        return self.lambdas[j]


def eigenvalue_sequence(p: int, lambda_p, max_j: int) -> EigenvalueSequence:
    """Extend a seed eigenvalue of the radius-2 operator up to j = max_j.

    Multiplicativity forces lambda(radius 2) * lambda(radius 2j) to
    equal the eigenvalue of their convolution; the top structure
    constant is 1, so each new term is solved triangularly, exactly: a
    float seed is read by its binary value.
    """
    from fractions import Fraction
    if max_j < 2:
        raise ValueError("max_j must be >= 2")
    lam = [Fraction(1), Fraction(lambda_p)]
    for j in range(1, max_j):
        # lambda_p * lam[j] = sum_k N(2, 2j, 2k) lam[k], top term k = j+1 has N = 1
        acc = lam[1] * lam[j]
        for k in range(j + 1):
            n = tree.convolution_count(p, 2, 2 * j, 2 * k)
            if n:
                acc -= n * lam[k]
        lam.append(acc)
    return EigenvalueSequence(p, tuple(lam))


# ---------------------------------------------------------------------------
# Global (multi-prime) elements


class GlobalHeckeElement(Value):
    """Finitely supported integer function on support points."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[tuple[SupportPoint, int], ...]):
        coeffs = tuple((tuple((p, r) for p, r in point), c) for point, c in coeffs)
        last = None
        for point, c in coeffs:
            if (last is not None and point <= last) or c == 0:
                raise ValueError(f"{_NOT_CANONICAL}, got {coeffs}")
            last = point
            primes = [p for p, _ in point]
            if primes != sorted(set(primes)):
                raise ValueError(f"support point must list distinct primes in ascending order: {point}")
            for p, r in point:
                check_prime(p)
                tree.check_even_radius(r)
                if r == 0:
                    raise ValueError("support points must not carry radius 0 entries")
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def from_dict(coeffs: dict[SupportPoint, int]) -> "GlobalHeckeElement":
        """Sum the coefficients of each point, whatever its prime order, and drop zeros."""
        merged: dict[SupportPoint, int] = {}
        for point, c in coeffs.items():
            key = tuple(sorted(point))
            merged[key] = merged.get(key, 0) + c
        return GlobalHeckeElement(tuple(sorted((k, c) for k, c in merged.items() if c != 0)))


def global_assemble(parts: dict[int, tuple[LocalHeckeElement, int]]) -> GlobalHeckeElement:
    """Expand (sum_p zeta_p h_p) * (sum_p zeta_p h_p)^* in the support basis.

    Each h_p must be a basic operator at its prime and zeta_p a sign.
    Same-prime terms contribute zeta_p^2 (h_p * h_p); cross terms
    contribute 2 zeta_p zeta_q on the product of the two spheres.
    """
    primes = sorted(parts)
    out: dict[SupportPoint, int] = {}
    for p in primes:
        h, zeta = parts[p]
        if h.prime != p:
            raise ValueError(f"element at key {p} has prime {h.prime}")
        if zeta not in (1, -1):
            raise ValueError(f"phase must be +1 or -1, got {zeta}")
        if len(h.coeffs) != 1 or h.coeffs[0][1] != 1 or h.coeffs[0][0] == 0:
            raise ValueError(f"element at prime {p} is not a basic operator")
        square = convolve(h, h)  # zeta_p^2 = 1
        for r, c in square.coeffs:
            point: SupportPoint = () if r == 0 else ((p, r),)
            out[point] = out.get(point, 0) + c
    for i, p in enumerate(primes):
        hp, zp = parts[p]
        rp = hp.coeffs[0][0]
        for q in primes[i + 1:]:
            hq, zq = parts[q]
            rq = hq.coeffs[0][0]
            point = tuple(sorted(((p, rp), (q, rq))))
            out[point] = out.get(point, 0) + 2 * zp * zq
    return GlobalHeckeElement.from_dict(out)


def norm_inf(t: GlobalHeckeElement) -> int:
    """Largest absolute coefficient away from the identity coset."""
    return max((abs(c) for point, c in t.coeffs if point), default=0)

