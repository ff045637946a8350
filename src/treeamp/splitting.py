"""Complete-splitting filter for rational primes.

A monic integer polynomial f splits completely mod p exactly when
x^p = x in Z[x]/(f, p), that is, when f divides x^p - x mod p.  Since
x^p - x is squarefree, this already fails at every prime dividing
disc(f), so no separate discriminant test is needed.

The filter maps the sieve's byte table over [lo, hi], built in
O(hi - lo + sqrt(hi)) steps of C, to a byte mask of the split primes.
Quadratics and binomials x^d + c0 reduce to y^d = a: x^2 + bx + c to
y^2 = b^2 - 4c with y = 2x + b, and x^d + c0 to y^d = -c0.  For p not
dividing d, F_p^* is cyclic of order p - 1, so y^d = a has d distinct
roots exactly when p does not divide a, d divides p - 1 and
a^((p-1)/d) = 1 mod p.  A binomial with d >= 3 never splits at 2 or at
p | d, where y^d - a is inseparable, so it reads the (hi - lo)/lcm(2, d)
offsets p = 1 mod lcm(2, d) and makes one modular power per prime there.

A quadratic takes min(4|a|, #primes) decisions, one per class of p mod
4|a|: by quadratic reciprocity (a/p) depends only on that class for odd
p not dividing a, and a class sharing a factor with 4a holds at most one
prime.  A class is decided at its first prime, by the modular power or,
at p = 2 where y = 2x + b is not a change of variable (x^2 + x splits
there), by the Frobenius test.  a = 0 never splits.  Every other
polynomial takes one Frobenius test per prime.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import isqrt, lcm

from ._primes import check_prime, is_prime  # re-exported: splitting's API
from ._value import Value

__all__ = [
    "MAX_DEGREE",
    "IntPoly",
    "parse_poly",
    "splits_completely",
    "split_primes_in",
    "empirical_density",
    "is_prime",
    "check_prime",
    "primes_in",
]

MAX_DEGREE = 8  # parse_poly refuses higher degrees before building coefficients


def _prime_table(lo: int, hi: int) -> bytearray:
    """Segmented sieve for 2 <= lo: byte i is 1 iff lo + i is prime.

    O(hi - lo + sqrt(hi)) time and memory, so a narrow window far above
    10^14 pays mostly for the base sieve of the primes up to isqrt(hi).
    """
    if hi < lo:
        return bytearray()
    base = _prime_table(2, isqrt(hi))
    table = bytearray([1]) * (hi - lo + 1)
    for p in compress(range(2, len(base) + 2), base):
        start = max(p * p, -(-lo // p) * p) - lo
        table[start:: p] = bytes(len(range(start, len(table), p)))
    return table


def _primes_of(lo: int, table: bytes) -> list[int]:
    """Each lo + i whose byte i is set, ascending; reads 2 and odd offsets only."""
    odd = (lo + 1) % 2
    out = [2] if lo == 2 and table[:1] == b"\x01" else []
    out += compress(range(lo + odd, lo + len(table), 2), table[odd::2])
    return out


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi], ascending, by one segmented sieve."""
    lo = max(lo, 2)
    return _primes_of(lo, _prime_table(lo, hi))


class IntPoly(Value):
    """Integer polynomial, coefficients from the constant term up."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        coeffs = tuple(coeffs)
        if not coeffs or coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        if len(coeffs) < 2:
            raise ValueError("degree must be >= 1")
        object.__setattr__(self, "coeffs", coeffs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def discriminant(self) -> int:
        return _discriminant(self.coeffs)

    def __str__(self) -> str:
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "x" if i == 1 else f"x^{i}" if i > 1 else ""
            mag = abs(c)
            body = term if (mag == 1 and term) else f"{mag}{term}" if term else f"{mag}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


@lru_cache(maxsize=None)
def _discriminant(coeffs: tuple[int, ...]) -> int:
    from sympy import Poly, Symbol, discriminant  # lazy: keeps sympy off the import path

    x = Symbol("x")
    expr = sum(c * x ** i for i, c in enumerate(coeffs))
    return int(discriminant(Poly(expr, x)))


def parse_poly(text: str) -> IntPoly:
    """Parse ASCII polynomials like "x^3-2" or "2x^2 + x - 5"."""
    s = text.replace(" ", "").replace("**", "^")
    if not s:
        raise ValueError("empty polynomial")
    s = s.replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        if not term:
            raise ValueError(f"malformed polynomial {text!r}")
        neg = term.startswith("-")
        if neg:
            term = term[1:]
        if "x" in term:
            head, _, tail = term.partition("x")
            coef = int(head) if head else 1
            if tail.startswith("^"):
                power = int(tail[1:])
            elif tail == "":
                power = 1
            else:
                raise ValueError(f"malformed term in {text!r}")
        else:
            coef = int(term)
            power = 0
        coeffs[power] = coeffs.get(power, 0) + (-coef if neg else coef)
    deg = max((k for k, v in coeffs.items() if v != 0), default=0)
    if deg > MAX_DEGREE:
        raise ValueError(f"degree {deg} of {text!r} exceeds the cap {MAX_DEGREE}")
    return IntPoly(tuple(coeffs.get(i, 0) for i in range(deg + 1)))


def _frobenius_fixes_x(coeffs: tuple[int, ...], p: int) -> bool:
    """True iff x^p = x in F_p[x]/(f), for monic f of degree >= 2."""
    deg = len(coeffs) - 1
    f = [c % p for c in coeffs]
    # power = x, square-and-multiply on the exponent p
    power = [0, 1] + [0] * (deg - 2)
    base = power[:]
    acc = [1] + [0] * (deg - 1)
    e = p
    while e:
        if e & 1:
            acc = _polmulmod(acc, base, f, p, deg)
        e >>= 1
        if e:
            base = _polmulmod(base, base, f, p, deg)
    return acc[1] == 1 % p and all(c == 0 for i, c in enumerate(acc) if i != 1)


def _polmulmod(u: list[int], v: list[int], f: list[int], p: int, deg: int) -> list[int]:
    prod = [0] * (2 * deg - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                if vj:
                    prod[i + j] = (prod[i + j] + ui * vj) % p
    for k in range(2 * deg - 2, deg - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(deg):
                prod[k - deg + j] = (prod[k - deg + j] - c * f[j]) % p
    return prod[:deg]


def _quadratic_class_splits(coeffs: tuple[int, ...], a: int, p: int) -> bool:
    """Whether x^2 + bx + c, with a = b^2 - 4c != 0, splits at p and so
    at every prime congruent to p mod 4|a|."""
    return _frobenius_fixes_x(coeffs, p) if p == 2 else pow(a, (p - 1) // 2, p) == 1


def _split_filter(f: IntPoly, lo: int, table: bytes) -> bytearray:
    """Byte mask, over a prime table at lo, of the primes where f splits.

    The only place that checks f is monic and decides splitting.  Costs
    beyond the sieve: a quadratic, min(4|a|, #primes) decisions, with one
    slice clearing each failed class of p mod 4|a|; a binomial of degree
    d >= 3, (hi - lo)/lcm(2, d) candidates and one pow per p = 1 mod d;
    any other f, one Frobenius test x^p = x mod (f, p) per prime.
    """
    if not f.is_monic():
        raise ValueError(f"splitting test requires a monic polynomial, got {f}")
    coeffs, d = f.coeffs, f.degree()
    if d == 1:
        return bytearray(table)
    mask = bytearray(len(table))
    if d == 2:
        a = coeffs[1] * coeffs[1] - 4 * coeffs[0]
        m, n = 4 * abs(a), len(table)
        if a:
            # todo holds the primes whose class is still undecided; i is
            # the first prime of its class, so only later ones are cleared
            mask, todo = bytearray(table), bytearray(table)
            i = todo.find(1)
            while i >= 0:
                if not _quadratic_class_splits(coeffs, a, lo + i):
                    mask[i::m] = bytes((n - 1 - i) // m + 1)
                if i + m < n:
                    todo[i + m::m] = bytes((n - 1 - i) // m)
                i = todo.find(1, i + 1)
        return mask
    if not any(coeffs[1:-1]):
        a, step = -coeffs[0], lcm(2, d)
        first = (1 - lo) % step  # the offset of the first p = 1 mod step
        split = [p for p in compress(range(lo + first, lo + len(table), step), table[first::step])
                 if pow(a, p // d, p) == 1]
    else:
        split = [p for p in _primes_of(lo, table) if _frobenius_fixes_x(coeffs, p)]
    for p in split:
        mask[p - lo] = 1
    return mask


def splits_completely(f: IntPoly, p: int) -> bool:
    """True iff f factors into deg(f) distinct linear factors mod p.

    Primes dividing disc(f) give False; non-primes raise ValueError.
    The filter runs on a one-byte table at p, so p is never sieved.
    """
    check_prime(p)
    return _split_filter(f, p, b"\x01") == b"\x01"


def split_primes_in(f: IntPoly, lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi] where f splits completely, ascending."""
    if lo > hi:
        raise ValueError("empty range")
    lo = max(lo, 2)
    return _primes_of(lo, _split_filter(f, lo, _prime_table(lo, hi)))


def empirical_density(f: IntPoly, limit: int) -> Fraction:
    """Fraction of primes up to limit where f splits completely."""
    if limit < 100:
        raise ValueError("limit must be >= 100")
    table = _prime_table(2, limit)
    return Fraction(_split_filter(f, 2, table).count(1), table.count(1))
