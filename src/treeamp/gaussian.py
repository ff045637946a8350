"""Exact arithmetic over Q and Q(i): denominators, the product formula,
and the commutator-forcing certificate.

The absolute value at the single complex place is normalized as the
squared modulus, which makes the full product formula exactly 1.  Local
denominators are q_v^max(-ord_v, 0) with q_v the residue size of the
place (2 for the ramified prime, p for split primes, p^2 for inert);
their product is the norm of the denominator ideal.  That norm is the
index of a lattice in Z^2, so it is a gcd of 2x2 integer minors and
needs no arithmetic in Z[i].  Only the product-formula check factors; it
reads each place's order off the factored norm in integers, with
gaussian_factor (division in Z[i]) as its oracle.  Its places are
built directly: 1 + i over 2, p over p = 3 mod 4, and x +- yi over
p = 1 mod 4, where integer Euclid gives p = x^2 + y^2.  An element of
Q(i) is one Gaussian integer over one positive integer, (a + bi)/d in
lowest terms, so its arithmetic is integer arithmetic and one gcd.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from functools import lru_cache

from ._primes import cached_is_prime
from ._value import Value

__all__ = [
    "GaussInt",
    "GaussRat",
    "GaussPrime",
    "Mat2",
    "CommutatorVerdict",
    "ArchBoundViolation",
    "gaussian_factor",
    "denom_local",
    "denom",
    "denom_mat",
    "product_formula_check",
    "commutator",
    "certify_commuting",
]


class GaussInt(Value):
    """A Gaussian integer a + bi."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __mul__(self, o: "GaussInt") -> "GaussInt":
        return GaussInt(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a)

    def conj(self) -> "GaussInt":
        return GaussInt(self.a, -self.b)

    def norm(self) -> int:
        return self.a * self.a + self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def exact_div(self, o: "GaussInt") -> "GaussInt | None":
        """self / o if it lies in Z[i], else None."""
        n = o.norm()
        num = self * o.conj()
        if num.a % n or num.b % n:
            return None
        return GaussInt(num.a // n, num.b // n)


class GaussPrime(Value):
    """A prime of Z[i] as its canonical generator (re > 0, re >= |im|, im > 0
    when re = |im|) and its norm, the residue size: a rational prime, or q^2
    for a generator q prime and 3 mod 4.  Other values raise ValueError."""

    __slots__ = ("generator", "residue_size")

    def __init__(self, generator: GaussInt, residue_size: int):
        a, b = generator.a, generator.b
        q = residue_size if b else a  # the rational prime below the place
        if not (residue_size == generator.norm() >= 2
                and a > 0 and a >= abs(b) and (a != abs(b) or b > 0) and (b != 0 or a % 4 == 3)
                and cached_is_prime(q)):
            raise ValueError(f"{generator} of residue size {residue_size} "
                             "is not a canonical prime generator")
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "residue_size", residue_size)


@lru_cache(maxsize=None)
def _prime_above(p: int) -> tuple[GaussPrime, ...]:
    """The primes of Z[i] over a rational prime p.

    For p = 1 mod 4, take t^2 = -1 mod p with t < p/2.  Integer Euclid
    on (p, t) reaches a first remainder x < sqrt(p), and p = x^2 + y^2
    (Brillhart, Math. Comp. 26, 1972).  As x > y > 0, both x + yi and
    x - yi are canonical; the first place is the one dividing t + i.
    """
    if p == 2:
        return (GaussPrime(GaussInt(1, 1), 2),)
    if p % 4 == 3:
        return (GaussPrime(GaussInt(p, 0), p * p),)
    a = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)  # a non-residue
    t = pow(a, (p - 1) // 4, p)
    t = min(t, p - t)
    r, x = p, t
    while x * x > p:
        r, x = x, r % x
    y = math.isqrt(p - x * x)  # the remainder after x, so x > y > 0
    # x + yi divides t + i exactly when x = yt mod p, as i = -t at that place
    pi = GaussInt(x, y if (x - y * t) % p == 0 else -y)
    return (GaussPrime(pi, p), GaussPrime(pi.conj(), p))


def _divide_out(z: GaussInt, v: GaussPrime) -> tuple[int, GaussInt]:
    """(k, z / pi^k) for k = ord_v(z) and pi the generator of v; z nonzero."""
    k = 0
    while (q := z.exact_div(v.generator)) is not None:
        z = q
        k += 1
    return k, z


# Trial divisors below 2^10: 2, 3 and every 6k +- 1, which include all
# primes from 5 to 1021.  A cofactor left below 2^20 is 1 or a prime.
_TRIAL_LIMIT = 1 << 10
_TRIAL_DIVISORS = (2, 3) + tuple(k + e for k in range(6, _TRIAL_LIMIT, 6) for e in (-1, 1))
_RHO_BATCH = 128  # rho steps per gcd


def _pollard_brent(n: int) -> int:
    """A proper factor of a composite n with no factor below 2^10.

    Brent's variant of Pollard rho (Brent, BIT 20, 1980) on
    x -> x^2 + c, batching _RHO_BATCH differences per gcd and moving to
    the next c when a cycle closes without a proper factor.  It takes
    about sqrt(q) steps for the least prime factor q of n, so at most
    about n^(1/4).
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _rational_primes(n: int) -> list[int]:
    """Distinct primes dividing n >= 1, ascending.

    Trial division below 2^10 (at most 342 divisions) settles every
    n < 2^20.  A larger cofactor is split by _pollard_brent until
    cached_is_prime accepts each part.  Where is_prime refuses a part
    (at psi_13 and above), ValueError names n.
    """
    out = []
    m = n
    for p in _TRIAL_DIVISORS:
        if p * p > m:
            break
        if m % p == 0:
            out.append(p)
            m //= p
            while m % p == 0:
                m //= p
    if m < _TRIAL_LIMIT * _TRIAL_LIMIT:
        return out + [m] if m > 1 else out
    large, todo = set(), [m]
    while todo:
        m = todo.pop()
        try:
            prime = cached_is_prime(m)
        except ValueError:
            raise ValueError(f"cannot factor the norm {n}: primality of its "
                             f"cofactor {m} is not decided exactly") from None
        if prime:
            large.add(m)
        else:
            f = _pollard_brent(m)
            todo += (f, m // f)
    return out + sorted(large)


def gaussian_factor(z: GaussInt) -> tuple[GaussInt, dict[GaussPrime, int]]:
    """Factor z into canonical primes: returns (unit, {prime: exponent})."""
    if z.is_zero():
        raise ValueError("cannot factor zero")
    factors: dict[GaussPrime, int] = {}
    rest = z
    for p in _rational_primes(z.norm()):
        for v in _prime_above(p):
            e, rest = _divide_out(rest, v)
            if e:
                factors[v] = e
    if not rest.is_unit():
        raise AssertionError(f"factorization left non-unit remainder {rest}")
    return rest, factors


class GaussRat(Value):
    """An element (a + bi)/d of Q(i) in lowest terms: d > 0, gcd(a, b, d) = 1.

    The form is canonical, so equality and hashing compare values.  make
    builds one from rationals; a directly built triple in any other form
    raises ValueError.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int, d: int = 1):
        if d <= 0 or math.gcd(a, b, d) != 1:
            raise ValueError(f"({a} + {b}i)/{d} is not in lowest "
                             "terms over a positive denominator")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @staticmethod
    def make(re, im=0) -> "GaussRat":
        re, im = Fraction(re), Fraction(im)
        return _reduced(re.numerator * im.denominator, im.numerator * re.denominator,
                        re.denominator * im.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, o: "GaussRat") -> "GaussRat":
        return _reduced(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)

    def __sub__(self, o: "GaussRat") -> "GaussRat":
        return _reduced(self.a * o.d - o.a * self.d, self.b * o.d - o.b * self.d, self.d * o.d)

    def __mul__(self, o: "GaussRat") -> "GaussRat":
        return _reduced(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a, self.d * o.d)

    def __neg__(self) -> "GaussRat":
        return _reduced(-self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Squared complex modulus: the normalized archimedean absolute value."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def inverse(self) -> "GaussRat":
        if self.is_zero():
            raise ZeroDivisionError
        return _reduced(self.d * self.a, -self.d * self.b, self.a * self.a + self.b * self.b)


_set_a, _set_b, _set_d = GaussRat.a.__set__, GaussRat.b.__set__, GaussRat.d.__set__


def _reduced(a: int, b: int, d: int) -> GaussRat:
    """(a + bi)/d in lowest terms, for d > 0.  Dividing by the gcd puts it
    there, so it is built without GaussRat's check."""
    g = math.gcd(a, b, d)
    x = object.__new__(GaussRat)
    _set_a(x, a // g)
    _set_b(x, b // g)
    _set_d(x, d // g)
    return x


def denom_local(x: GaussRat, v: GaussPrime) -> int:
    """max(|x|_v, 1) = q_v^max(-ord_v(x), 0); zero counts as integral."""
    if x.is_zero():
        return 1
    k = _divide_out(GaussInt(x.d, 0), v)[0] - _divide_out(GaussInt(x.a, x.b), v)[0]
    return v.residue_size ** k if k > 0 else 1


def _denominator_norm(xs) -> int:
    """Norm of the denominator ideal: prod_v q_v^max(-min_k ord_v(x_k), 0).

    Write x_k = w_k / D over the lcm D of the denominators.  The ideal
    I = (D, w_1, ...) has ord_v(I) = ord_v(D) + min(0, min_k ord_v(x_k)),
    so this is N(D) / N(I).  As a lattice in Z^2, I is spanned by D, iD,
    w_k and i w_k, and N(I) is its index: the gcd of its 2x2 minors, which
    are D^2, D Re w_k, D Im w_k, and Re and Im of w_k conj(w_l) for k <= l.
    Zero entries add only zero minors, so they count as integral.
    """
    d = math.lcm(*(x.d for x in xs))
    ws = [(x.a * (d // x.d), x.b * (d // x.d)) for x in xs]
    minors = [d * d]
    for k, (a, b) in enumerate(ws):
        minors += (d * a, d * b)
        for c, e in ws[k:]:
            minors += (a * c + b * e, b * c - a * e)
    return d * d // math.gcd(*minors)


def denom(x: GaussRat) -> int:
    """Product of the local denominators over all finite places: for (a + bi)/d
    it is d^2 / gcd(d, a^2 + b^2), as the minors of _denominator_norm show."""
    return x.d * x.d // math.gcd(x.d, x.a * x.a + x.b * x.b)


def _place_orders(a: int, b: int):
    """Each place v dividing a + bi != 0 with ord_v(a + bi), read off the
    norm N in integers: v_2(N) at 1 + i and v_p(N)/2 at an inert p.  Over
    p = 1 mod 4, strip the power p^k common to a and b; at most one place
    x + yi over p divides the rest, the one where bx = ay mod p (i = -x/y
    there), to order v_p(N) - k, and the other place has order k."""
    n = a * a + b * b
    for p in _rational_primes(n):
        e = k = 0
        while n % p == 0:
            n, e = n // p, e + 1
        places = _prime_above(p)
        if len(places) == 1:
            yield places[0], e if p == 2 else e // 2
            continue
        while a % p == 0 and b % p == 0:
            a, b, k = a // p, b // p, k + 1
        v, w = places
        if (b * v.generator.a - a * v.generator.b) % p:  # v does not divide the rest
            v, w = w, v
        yield v, e - k
        if k:
            yield w, k


def product_formula_check(x: GaussRat) -> Fraction:
    """|x|^2 at the complex place times all finite absolute values.

    Equals 1 exactly for every nonzero x.  The finite places come from
    factoring the norms of numerator and denominator: trial division
    below 2^10, then Brent's rho on what is left, in about N^(1/4)
    steps for a norm N.  A prime norm costs one Miller-Rabin test.  A
    norm whose cofactor reaches psi_13 (about 3.3e24) raises ValueError.
    """
    if x.is_zero():
        raise ValueError("product formula applies to nonzero elements")
    finite_num = math.prod(v.residue_size ** e for v, e in _place_orders(x.d, 0))
    finite_den = math.prod(v.residue_size ** e for v, e in _place_orders(x.a, x.b))
    return Fraction((x.a * x.a + x.b * x.b) * finite_num, x.d * x.d * finite_den)


# ---------------------------------------------------------------------------
# 2x2 matrices


class Mat2(Value):
    """A 2x2 matrix over Q(i), entries row-major."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[GaussRat, GaussRat, GaussRat, GaussRat]):
        if not (isinstance(entries, tuple) and len(entries) == 4
                and all(isinstance(x, GaussRat) for x in entries)):
            raise ValueError(f"Mat2 needs a tuple of four GaussRat entries, got {entries!r}")
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def make(rows) -> "Mat2":
        rows = [[x if isinstance(x, GaussRat) else GaussRat.make(x) for x in row] for row in rows]
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise ValueError("Mat2 needs a 2x2 array")
        return Mat2(tuple(rows[0] + rows[1]))

    @staticmethod
    def identity() -> "Mat2":
        one, zero = GaussRat.make(1), GaussRat.make(0)
        return Mat2((one, zero, zero, one))

    def __add__(self, o: "Mat2") -> "Mat2":
        return Mat2(tuple(a + b for a, b in zip(self.entries, o.entries)))

    def __sub__(self, o: "Mat2") -> "Mat2":
        return Mat2(tuple(a - b for a, b in zip(self.entries, o.entries)))

    def __mul__(self, o: "Mat2") -> "Mat2":
        a, b, c, d = self.entries
        e, f, g, h = o.entries
        return Mat2((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))

    def det(self) -> GaussRat:
        a, b, c, d = self.entries
        return a * d - b * c

    def inverse(self) -> "Mat2":
        det = self.det()
        if det.is_zero():
            raise ZeroDivisionError("singular matrix")
        inv, (a, b, c, d) = det.inverse(), self.entries
        return Mat2(tuple(inv * x for x in (d, -b, -c, a)))

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.entries)

    def max_arch_norm(self) -> Fraction:
        """Largest squared modulus over the entries."""
        return max(x.norm() for x in self.entries)


def denom_mat(m: Mat2) -> int:
    """Product over places of the per-place maximum of entry denominators.

    This is the fractional-ideal convention: per place take the worst
    entry, then multiply across places.
    """
    return _denominator_norm(m.entries)


def commutator(a: Mat2, b: Mat2) -> Mat2:
    """ab - ba, exact."""
    return a * b - b * a


class CommutatorVerdict(enum.Enum):
    FORCED_ZERO = "forced_zero"
    IS_ZERO = "is_zero"
    NOT_FORCED = "not_forced"


class ArchBoundViolation(ValueError):
    """The asserted archimedean bound fails on the exact commutator."""


def certify_commuting(a: Mat2, b: Mat2, arch_bound: Fraction) -> CommutatorVerdict:
    """Commutator-forcing certificate via the product formula.

    arch_bound is an asserted upper bound on the squared modulus of every
    commutator entry.  If arch_bound * denom_mat([a,b]) < 1 then every
    entry x would violate denom(x) * |x|^2 >= 1 unless it is zero, so the
    commutator is forced to vanish.
    """
    arch_bound = Fraction(arch_bound)
    c = commutator(a, b)
    actual = c.max_arch_norm()
    if actual > arch_bound:
        raise ArchBoundViolation(
            f"asserted bound {arch_bound} is below the exact maximum {actual}"
        )
    d = denom_mat(c)
    if arch_bound * d < 1:
        if not c.is_zero():
            raise AssertionError(
                "product formula violated: bounded nonzero commutator survived the gate"
            )
        return CommutatorVerdict.FORCED_ZERO
    if c.is_zero():
        return CommutatorVerdict.IS_ZERO
    return CommutatorVerdict.NOT_FORCED

