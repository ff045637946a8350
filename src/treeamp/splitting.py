"""Complete-splitting filter for rational primes.

A monic integer polynomial f splits completely mod p exactly when
x^p = x in Z[x]/(f, p), that is, when f divides x^p - x mod p.  Since
x^p - x is squarefree, this already fails at every prime dividing
disc(f), so no separate discriminant test is needed.

The sieve's table over [lo, hi] holds one byte per odd number, built in
O((hi - lo)/2 + sqrt(hi)) steps of C; the filter maps it to a byte mask
of the odd split primes and decides p = 2 apart: degree 1 splits there,
a binomial of degree d >= 3 does not, and any other f takes the
Frobenius test (x^2 + x splits at 2, x^2 + 1 does not).  Quadratics and
binomials x^d + c0 reduce to y^d = a: x^2 + bx + c to y^2 = b^2 - 4c
with y = 2x + b, and x^d + c0 to y^d = -c0.  For p not dividing d, F_p^*
is cyclic of order p - 1, so y^d = a has d distinct roots exactly when p
does not divide a, d divides p - 1 and a^((p-1)/d) = 1 mod p.  So a
binomial with d >= 3, which never splits at p | d, reads only the p = 1
mod lcm(2, d), a stride of lcm(2, d)/2 in the table.  For a quadratic,
by quadratic reciprocity (a/p) depends only on the class of odd p mod
4|a|, a stride of 2|a|, when p does not divide a, and a class sharing a
factor with a holds at most one prime; so each class is decided at its
first prime by the modular power and, if it splits, copied into the mask
in one slice.  a = 0 never splits.  Every other polynomial takes one
Frobenius test per prime.
"""

from fractions import Fraction
from itertools import compress
from math import isqrt, lcm

from ._primes import check_prime, is_prime  # re-exported: splitting's API
from ._value import Value, instance, integer

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


def _prime_table(lo: int, hi: int) -> tuple[int, bytearray]:
    """Segmented sieve over odd numbers: o, the first odd number >= max(lo, 3),
    and a table whose byte i is 1 iff o + 2i <= hi is prime.  Each base prime
    p, from the same sieve up to isqrt(hi), crosses off its odd multiples from
    max(p^2, o) in one slice of stride p.  O((hi - lo)/2 + sqrt(hi)) time and
    memory, so a narrow window far above 10^14 pays mostly for the base sieve.
    """
    o = max(lo, 3) | 1
    if hi < o:
        return o, bytearray()
    base = _prime_table(3, isqrt(hi))[1]
    table = bytearray([1]) * ((hi - o) // 2 + 1)
    for p in compress(range(3, 2 * len(base) + 3, 2), base):
        start = (max(p * p, (-(-o // p) | 1) * p) - o) // 2
        table[start:: p] = bytes(len(range(start, len(table), p)))
    return o, table


def _primes_of(o: int, table: bytes) -> list[int]:
    """Each o + 2i whose byte i is set, ascending."""
    return list(compress(range(o, o + 2 * len(table), 2), table))


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi], ascending, by one segmented sieve."""
    lo, hi = integer(lo, "lo"), integer(hi, "hi")
    return [2] * (lo <= 2 <= hi) + _primes_of(*_prime_table(lo, hi))


class IntPoly(Value):
    """Integer polynomial, coefficients from the constant term up."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        coeffs = tuple(integer(c, "coefficient") for c in coeffs)
        if not coeffs or coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        if len(coeffs) < 2:
            raise ValueError("degree must be >= 1")
        super().__init__(coeffs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def discriminant(self) -> int:
        """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / a_n, Res the determinant of the
        Sylvester matrix of f and f' by Bareiss's fraction-free elimination
        (Math. Comp. 22, 1968), whose every division is exact in integers.  No
        library path calls it: a test oracle, kept as the benchmark's tracer wraps it."""
        n, c = self.degree(), list(self.coeffs[::-1])  # highest degree first
        m = [[0] * i + c + [0] * (n - 2 - i) for i in range(n - 1)]  # n - 1 rows of f
        m += [[0] * i + [(n - k) * a for k, a in enumerate(c[:-1])] + [0] * (n - 1 - i)
              for i in range(n)]  # and n rows of f'
        sign, prev = (-1) ** (n * (n - 1) // 2), 1
        for k in range(2 * n - 2):
            if not m[k][k]:  # swap in a lower row with a nonzero pivot, else det = 0
                i = next((i for i in range(k + 1, 2 * n - 1) if m[i][k]), None)
                if i is None:
                    return 0
                m[k], m[i], sign = m[i], m[k], -sign
            for row in m[k + 1:]:
                row[k + 1:] = [(x * m[k][k] - row[k] * y) // prev
                               for x, y in zip(row[k + 1:], m[k][k + 1:])]
            prev = m[k][k]
        return sign * m[-1][-1] // c[0]

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
    """Whether x^2 + bx + c, with a = b^2 - 4c, splits at p: by the Frobenius
    test at 2, and at odd p by (a/p) = 1, alike for every prime = p mod 4|a|."""
    return _frobenius_fixes_x(coeffs, p) if p == 2 else pow(a, (p - 1) // 2, p) == 1


def _split_filter(f: IntPoly, o: int, table: bytes) -> tuple[bool, bytearray]:
    """Whether f splits at 2, and the byte mask, over a prime table of odd
    numbers from o, of the odd primes where f splits.

    The only place that checks f is a monic IntPoly and decides splitting.  Costs
    beyond the sieve: a quadratic, one pow per class of odd p mod 4|a| that
    holds a prime and one slice per class that splits; a binomial of
    degree d >= 3, (hi - lo)/lcm(2, d) candidates, one pow each, and none
    at 2; any other f, one Frobenius test x^p = x mod (f, p) per prime.
    """
    if not instance(f, IntPoly, "polynomial").is_monic():
        raise ValueError(f"splitting test requires a monic polynomial, got {f}")
    coeffs, d, n = f.coeffs, f.degree(), len(table)
    if d == 1:
        return True, bytearray(table)
    mask = bytearray(n)
    if d == 2:
        a = coeffs[1] * coeffs[1] - 4 * coeffs[0]
        # class i holds the offsets i, i + m, ...: none when a = 0, and one
        # each when m >= n, so then only the primes are read
        m = 2 * abs(a)
        for i in range(m) if m < n else compress(range(n), table):
            cls = table[i::m]
            k = cls.find(1)  # the class's first prime decides it
            if k >= 0 and _quadratic_class_splits(coeffs, a, o + 2 * (i + k * m)):
                mask[i::m] = cls
        return _quadratic_class_splits(coeffs, a, 2), mask
    if not any(coeffs[1:-1]):
        a, step = -coeffs[0], lcm(2, d)
        first = (1 - o) % step // 2  # the offset of the first p = 1 mod lcm(2, d)
        candidates = compress(range(o + 2 * first, o + 2 * n, step), table[first::step // 2])
        for p in [p for p in candidates if pow(a, p // d, p) == 1]:
            mask[(p - o) // 2] = 1
        return False, mask
    for i in compress(range(n), table):
        mask[i] = _frobenius_fixes_x(coeffs, o + 2 * i)
    return _frobenius_fixes_x(coeffs, 2), mask


def splits_completely(f: IntPoly, p: int) -> bool:
    """True iff f factors into deg(f) distinct linear factors mod p.

    Primes dividing disc(f) give False; non-primes raise ValueError.
    An odd p is filtered on a one-byte table at p, so p is never sieved.
    """
    check_prime(p)
    if p == 2:
        return _split_filter(f, 3, b"")[0]
    return _split_filter(f, p, b"\x01")[1] == b"\x01"


def split_primes_in(f: IntPoly, lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi] where f splits completely, ascending."""
    lo, hi = integer(lo, "lo"), integer(hi, "hi")
    if lo > hi:
        raise ValueError("empty range")
    o, table = _prime_table(lo, hi)
    two, mask = _split_filter(f, o, table)
    return [2] * (two and lo <= 2 <= hi) + _primes_of(o, mask)


def empirical_density(f: IntPoly, limit: int) -> Fraction:
    """Fraction of primes up to limit where f splits completely."""
    o, table = _prime_table(2, integer(limit, "limit", 100))
    two, mask = _split_filter(f, o, table)
    return Fraction(mask.count(1) + two, table.count(1) + 1)
