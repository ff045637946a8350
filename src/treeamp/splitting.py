"""Complete-splitting filter for rational primes.

A monic integer polynomial f splits completely mod p exactly when
x^p = x in Z[x]/(f, p), that is, when f divides x^p - x mod p.  Since
x^p - x is squarefree, this already fails at every prime dividing
disc(f), so no separate discriminant test is needed.

Quadratics and binomials x^d + c0 skip that polynomial power.  Both
reduce to y^d = a: x^2 + bx + c to y^2 = b^2 - 4c with y = 2x + b, and
x^d + c0 to y^d = -c0.  For p not dividing d, F_p^* is cyclic of order
p - 1, so y^d = a has d distinct roots exactly when p does not divide a,
d divides p - 1 and a^((p-1)/d) = 1 mod p.  A binomial with d >= 3
never splits at p | d, where y^d - a is inseparable, so it costs one
modular power per prime p = 1 mod d.

A quadratic costs one decision per class of p mod 4|a|.  By quadratic
reciprocity (a/p) depends only on p mod 4|a| for odd p not dividing a,
and a class sharing a factor with 4a holds at most one prime, the one
dividing 4a.  Each class is decided at its first prime, by the modular
power or, at p = 2 where y = 2x + b is not a change of variable
(x^2 + x splits there), by the Frobenius test.  a = 0 is a repeated
root and never splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import isqrt

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

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base in _MR_WITNESSES
# (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..41.

    Exact for n < psi_13 = _MR_LIMIT (about 3.3e24); n >= psi_13 raises
    ValueError rather than risk a pseudoprime.
    """
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is decided only below {_MR_LIMIT}, "
                         f"got a {n.bit_length()}-bit number")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)  # a failed check raises, so only primes are cached
def check_prime(p: int) -> None:
    """The one prime precondition: ValueError unless p is prime."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def sieve(limit: int) -> bytearray:
    """Bit-per-byte primality table for 0..limit inclusive."""
    table = bytearray([1]) * (limit + 1)
    table[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if table[i]:
            table[i * i:: i] = bytes(len(range(i * i, limit + 1, i)))
    return table


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi], ascending, by one segmented sieve.

    A table of hi - lo + 1 bytes has the multiples of every base prime
    up to isqrt(hi) crossed off.  Time and memory are
    O(hi - lo + sqrt(hi)), so a narrow window far above 10^14 pays
    mostly for the sqrt(hi) base sieve.
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    base = sieve(isqrt(hi))
    table = bytearray([1]) * (hi - lo + 1)
    for p in compress(range(len(base)), base):
        start = max(p * p, -(-lo // p) * p) - lo
        table[start:: p] = bytes(len(range(start, len(table), p)))
    return list(compress(range(lo, hi + 1), table))


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients from the constant term up."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        if len(self.coeffs) < 2:
            raise ValueError("degree must be >= 1")

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


def _split_filter(f: IntPoly, primes: list[int]) -> list[int]:
    """The primes of `primes` at which f splits completely, in order.

    This is the only place that checks f is monic and decides
    splitting; every public entry point filters through it.  A
    quadratic or binomial is read as y^d = a (see the module
    docstring): a binomial of degree d >= 3 splits at p exactly when
    p = 1 mod d and a^((p-1)/d) = 1 mod p, and a quadratic is decided
    once per class of p mod 4|a|, which is exact because (a/p) is a
    function of that class (quadratic reciprocity) and a class sharing
    a factor with 4a holds at most one prime.  Every other f takes the
    Frobenius test x^p = x mod (f, p).
    """
    if not f.is_monic():
        raise ValueError(f"splitting test requires a monic polynomial, got {f}")
    coeffs, d = f.coeffs, f.degree()
    if d == 1:
        return list(primes)
    if d == 2:
        a = coeffs[1] * coeffs[1] - 4 * coeffs[0]
        if a == 0:
            return []
        m = 4 * abs(a)
        class_splits: dict[int, bool] = {}
        out = []
        for p in primes:
            r = p % m
            s = class_splits.get(r)
            if s is None:
                s = class_splits[r] = _quadratic_class_splits(coeffs, a, p)
            if s:
                out.append(p)
        return out
    if not any(coeffs[1:-1]):
        a = -coeffs[0]
        return [p for p in primes if p % d == 1 and pow(a, p // d, p) == 1]
    return [p for p in primes if _frobenius_fixes_x(coeffs, p)]


def splits_completely(f: IntPoly, p: int) -> bool:
    """True iff f factors into deg(f) distinct linear factors mod p.

    Primes dividing disc(f) give False; non-primes raise ValueError.
    """
    check_prime(p)
    return bool(_split_filter(f, [p]))


def split_primes_in(f: IntPoly, lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi] where f splits completely, ascending."""
    if lo > hi:
        raise ValueError("empty range")
    return _split_filter(f, primes_in(lo, hi))


def empirical_density(f: IntPoly, limit: int) -> Fraction:
    """Fraction of primes up to limit where f splits completely."""
    if limit < 100:
        raise ValueError("limit must be >= 100")
    ps = primes_in(2, limit)
    return Fraction(len(_split_filter(f, ps)), len(ps))
