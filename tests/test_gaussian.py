import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from treeamp import _primes, gaussian, splitting
from treeamp.gaussian import (
    ArchBoundViolation,
    CommutatorVerdict,
    GaussInt,
    GaussPrime,
    GaussRat,
    Mat2,
    certify_commuting,
    commutator,
    denom,
    denom_local,
    denom_mat,
    _prime_above,
    _rational_primes,
    gaussian_factor,
    product_formula_check,
)


def is_canonical(g):
    """The one associate of g with re > 0 and re >= |im|, im > 0 on the diagonal."""
    return g.a > 0 and g.a >= abs(g.b) and (g.a != abs(g.b) or g.b > 0)


def rebuild(unit, factors):
    z = unit
    for v, e in factors.items():
        z = math.prod([v.generator] * e, start=z)
    return z


small_rat = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def rand_rat(rng, span=30, den=12):
    return GaussRat.make(Fraction(rng.randint(-span, span), rng.randint(1, den)),
                         Fraction(rng.randint(-span, span), rng.randint(1, den)))


def rational_prime(v):
    """The rational prime under v: q_v is p, or p^2 for an inert p."""
    root = math.isqrt(v.residue_size)
    return root if root * root == v.residue_size else v.residue_size


def trial_division_primes(n):
    """Distinct primes dividing n >= 1, ascending, by trial division to sqrt(n): the oracle."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


PSI_13 = 3317044064679887385961981
primes_above_2_10 = st.integers(2 ** 10, 10 ** 8).map(sympy.nextprime)
# norms up to about 10^16: arbitrary ones, and ones whose factors all
# pass the 2^10 trial division (prime powers and semiprimes)
norms = st.one_of(
    st.integers(1, 10 ** 16),
    st.builds(lambda q, r: q * r, primes_above_2_10, primes_above_2_10),
    st.builds(lambda q, k, m: q ** k * m, primes_above_2_10, st.integers(1, 2), st.integers(1, 10 ** 4)),
)


def places_over(d):
    """The places of Q(i) that divide the positive integer d."""
    return list(gaussian_factor(GaussInt(d, 0))[1])


big_rat = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4)))
big_gauss_rat = st.one_of(st.just(GaussRat.make(0)), st.builds(GaussRat.make, big_rat, big_rat))
big_mat = st.tuples(big_gauss_rat, big_gauss_rat, big_gauss_rat, big_gauss_rat).map(Mat2)


class TestFactorization:
    def test_two_is_ramified(self):
        unit, factors = gaussian_factor(GaussInt(2, 0))
        assert unit == GaussInt(0, -1)
        assert factors == {GaussPrime(GaussInt(1, 1), 2): 2}

    def test_five_splits(self):
        _, factors = gaussian_factor(GaussInt(5, 0))
        gens = sorted((v.generator.a, v.generator.b) for v in factors)
        assert gens == [(2, -1), (2, 1)]
        assert all(e == 1 for e in factors.values())

    def test_unit_input(self):
        unit, factors = gaussian_factor(GaussInt(1, 0))
        assert unit == GaussInt(1, 0)
        assert factors == {}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            gaussian_factor(GaussInt(0, 0))

    def test_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(200):
            z = GaussInt(rng.randint(-60, 60), rng.randint(-60, 60))
            if z.is_zero():
                continue
            unit, factors = gaussian_factor(z)
            assert unit.is_unit()
            assert rebuild(unit, factors) == z
            for v in factors:
                assert is_canonical(v.generator)
                assert v.residue_size == v.generator.norm()

    def test_split_primes_below_10_4(self):
        for p in sympy.primerange(5, 10 ** 4):
            if p % 4 != 1:
                continue
            v, w = _prime_above(p)
            x, y = v.generator.a, v.generator.b
            assert x * x + y * y == p, p
            assert v.residue_size == w.residue_size == p
            assert is_canonical(v.generator) and is_canonical(w.generator), p
            assert w.generator == v.generator.conj(), p
            unit, factors = gaussian_factor(GaussInt(p, 0))
            assert factors == {v: 1, w: 1}, p
            assert rebuild(unit, factors) == GaussInt(p, 0)

    def test_split_place_order_follows_the_root_of_minus_one(self):
        # the first place over p divides t + i for the least t with t^2 = -1 mod p
        for p in sympy.primerange(5, 2000):
            if p % 4 == 1:
                t = min(t for t in range(1, p) if (t * t + 1) % p == 0)
                v, w = _prime_above(p)
                assert GaussInt(t, 1).exact_div(v.generator) is not None, p
                assert GaussInt(t, 1).exact_div(w.generator) is None, p

    @pytest.mark.parametrize("generator, residue_size", [
        (GaussInt(1, 0), 1),  # a unit
        (GaussInt(0, 0), 0),  # zero
        (GaussInt(-1, 1), 2),  # an associate of 1 + i
        (GaussInt(1, -1), 2),
        (GaussInt(1, 2), 5),  # an associate of 2 - i
        (GaussInt(0, 3), 9),
        (GaussInt(2, 1), 7),  # residue size is not the norm
        (GaussInt(3, 0), 3),
        (GaussInt(3, 1), 10),  # canonical, but the norm 10 = 2 * 5 is not prime
        (GaussInt(9, 0), 81),  # 9 = 3 mod 4 is not prime
        (GaussInt(5, 0), 25),  # 5 = (2 + i)(2 - i) is not inert
        (GaussInt(2, 0), 4),  # 2 = -i (1 + i)^2 is not inert
    ])
    def test_prime_rejects_non_canonical_or_wrong_size(self, generator, residue_size):
        with pytest.raises(ValueError):
            GaussPrime(generator, residue_size)

    def test_every_place_below_10_4_equals_its_checked_build(self):
        # _prime_above skips GaussPrime's check, primality test included; the rebuild runs it
        for p in splitting.primes_in(2, 10 ** 4):
            for v in _prime_above(p):
                checked = GaussPrime(v.generator, v.residue_size)
                assert v == checked and hash(v) == hash(checked), p

    @given(st.integers(-10 ** 4, 10 ** 4), st.integers(-10 ** 4, 10 ** 4))
    @settings(max_examples=300, deadline=None)
    def test_rational_primes_match_sympy(self, a, b):
        z = GaussInt(a, b)
        assume(not z.is_zero())
        unit, factors = gaussian_factor(z)
        assert rebuild(unit, factors) == z
        assert sorted({rational_prime(v) for v in factors}) == sorted(sympy.factorint(z.norm()))

    def test_rational_primes_match_trial_division(self):
        # every norm below 2^20 is settled by trial division alone
        for n in list(range(1, 5000)) + [2 ** 20 - 1, 2 ** 20, 1031 ** 2, 1031 * 1033, 259_200]:
            assert _rational_primes(n) == trial_division_primes(n), n

    @given(norms)
    @settings(max_examples=60, deadline=None)
    def test_rational_primes_match_factorint_to_10_16(self, n):
        assert _rational_primes(n) == sorted(sympy.factorint(n))

    @given(st.integers(-10 ** 8, 10 ** 8), st.integers(-10 ** 8, 10 ** 8))
    @settings(max_examples=30, deadline=None)
    def test_large_norms_match_sympy(self, a, b):
        z = GaussInt(a, b)
        assume(not z.is_zero())
        unit, factors = gaussian_factor(z)
        assert rebuild(unit, factors) == z
        assert sorted({rational_prime(v) for v in factors}) == sorted(sympy.factorint(z.norm()))

    def test_semiprime_norm_takes_one_rho_split(self, monkeypatch):
        q, r = sympy.nextprime(10 ** 8), sympy.nextprime(2 * 10 ** 8)
        splits = []
        rho = gaussian._pollard_brent
        monkeypatch.setattr(gaussian, "_pollard_brent", lambda n: splits.append(n) or rho(n))
        assert _rational_primes(q * r) == [q, r]
        assert splits == [q * r]

    def test_uncertifiable_cofactor_refused(self):
        # psi_13 has no factor below 2^10, and is_prime refuses it
        norm = PSI_13 * PSI_13
        with pytest.raises(ValueError, match=f"norm {norm}"):
            gaussian_factor(GaussInt(PSI_13, 0))
        with pytest.raises(ValueError, match=f"norm {norm}"):
            product_formula_check(GaussRat.make(PSI_13))

    def test_repeated_prime_powers(self):
        ramified, split, other, inert = (GaussInt(1, 1), GaussInt(2, 1), GaussInt(2, -1),
                                         GaussInt(3, 0))
        z = math.prod([ramified] * 7 + [split] * 3 + [other] * 2 + [inert] * 2,
                      start=GaussInt(0, 1))
        unit, factors = gaussian_factor(z)
        assert factors == {GaussPrime(ramified, 2): 7, GaussPrime(split, 5): 3,
                           GaussPrime(other, 5): 2, GaussPrime(inert, 9): 2}
        assert rebuild(unit, factors) == z
        for p in (2, 3, 5):
            assert isinstance(_prime_above(p), tuple)
            assert _prime_above(p) is _prime_above(p)

    def test_residue_sizes_are_legal(self):
        rng = random.Random(6)
        for _ in range(50):
            z = GaussInt(rng.randint(-40, 40), rng.randint(-40, 40))
            if z.is_zero():
                continue
            for v in gaussian_factor(z)[1]:
                q = v.residue_size
                if q == 2:
                    continue
                root = round(q ** 0.5)
                assert q % 4 == 1 or (root * root == q and root % 4 == 3)


# Z[i] factors for the place-order oracle: a unit, the ramified 1 + i,
# the inert 3, the split 2 +- i unevenly, and a power of 13 common to a
# and b, times a cofactor whose norm may pass 2^20.
gauss_products = st.builds(
    lambda u, e2, e3, e5, e5bar, k13, w: math.prod(
        [GaussInt(0, 1)] * u + [GaussInt(1, 1)] * e2 + [GaussInt(3, 0)] * e3
        + [GaussInt(2, 1)] * e5 + [GaussInt(2, -1)] * e5bar + [GaussInt(13, 0)] * k13,
        start=w),
    st.integers(0, 3), st.integers(0, 6), st.integers(0, 3), st.integers(0, 4),
    st.integers(0, 4), st.integers(0, 3),
    st.one_of(st.just(GaussInt(1, 0)),
              st.builds(GaussInt, st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
              .filter(lambda w: not w.is_zero())))


class TestPlaceOrders:
    """The integer place orders of product_formula_check against the
    Gaussian division of gaussian_factor."""

    @given(gauss_products)
    @example(GaussInt(1, 0))
    @example(GaussInt(0, -1))
    @example(GaussInt(2 ** 11, 0))  # 2 only, 2^22 above 2^20
    @example(GaussInt(0, 3 ** 7))  # inert only
    @example(GaussInt(5 * 3, 5 * 4))  # 5 (2 + i)^2 = (2 + i)^3 (2 - i): orders 3 and 1
    @example(GaussInt(10 ** 8, 49))  # a prime norm near 10^16
    @settings(max_examples=300, deadline=None)
    def test_orders_match_gaussian_factor(self, z):
        orders, factors = list(gaussian._place_orders(z.a, z.b)), gaussian_factor(z)[1]
        assert dict(orders) == factors and len(orders) == len(factors)


class TestDenominators:
    def test_unit_place_refused_not_looped_on(self):
        # dividing by the unit 1 never stops; the place is refused when built
        with pytest.raises(ValueError):
            denom_local(GaussRat.make(Fraction(1, 2)), GaussPrime(GaussInt(1, 0), 1))

    def test_half_at_ramified_place(self):
        v = GaussPrime(GaussInt(1, 1), 2)
        assert denom_local(GaussRat.make(Fraction(1, 2)), v) == 4

    def test_integral_is_one(self):
        v = GaussPrime(GaussInt(1, 1), 2)
        assert denom_local(GaussRat.make(7, 3), v) == 1
        assert denom_local(GaussRat.make(0), v) == 1

    def test_global_half(self):
        assert denom(GaussRat.make(Fraction(1, 2))) == 4

    def test_matrix_identity(self):
        assert denom_mat(Mat2.identity()) == 1

    def test_submultiplicative(self):
        rng = random.Random(1)
        for _ in range(300):
            x, y = rand_rat(rng), rand_rat(rng)
            dx, dy = denom(x), denom(y)
            assert denom(x + y) <= dx * dy
            assert denom(x * y) <= dx * dy

    def test_unimodular_right_invariance(self):
        rng = random.Random(2)
        one, zero = GaussRat.make(1), GaussRat.make(0)
        for _ in range(60):
            m = Mat2(tuple(rand_rat(rng) for _ in range(4)))
            k = Mat2.identity()
            for _ in range(4):
                s = GaussRat.make(rng.randint(-3, 3), rng.randint(-3, 3))
                shear = Mat2((one, s, zero, one)) if rng.random() < 0.5 \
                    else Mat2((one, zero, s, one))
                k = k * shear
            assert k.det() == GaussRat.make(1)
            assert denom_mat(m * k) == denom_mat(m)

    def test_sl2_inverse_equality(self):
        rng = random.Random(3)
        one, zero = GaussRat.make(1), GaussRat.make(0)
        for _ in range(60):
            k = Mat2.identity()
            for _ in range(5):
                s = GaussRat.make(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                                  Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                shear = Mat2((one, s, zero, one)) if rng.random() < 0.5 \
                    else Mat2((one, zero, s, one))
                k = k * shear
            assert k.det() == GaussRat.make(1)
            assert denom_mat(k.inverse()) == denom_mat(k)


class TestDenominatorOracle:
    """denom and denom_mat (a gcd of lattice minors) against the per-place
    definition.  Each example needs one term of the closed form."""

    @given(big_gauss_rat)
    @example(GaussRat.make(0))
    @example(GaussRat.make(Fraction(1, 2), Fraction(1, 2)))  # 2
    @example(GaussRat.make(Fraction(1, 25), Fraction(2, 25)))  # 125; 25 without N(w)
    @example(GaussRat.make(Fraction(2, 5), Fraction(11, 5)))  # 5; 1 without D Re w, D Im w
    @settings(max_examples=200, deadline=None)
    def test_denom_is_product_of_local_denominators(self, x):
        assert denom(x) == gaussian._denominator_norm([x])
        assert denom(x) == math.prod(denom_local(x, v) for v in places_over(x.d))

    @given(st.tuples(big_gauss_rat, big_gauss_rat, big_gauss_rat, big_gauss_rat))
    @example((GaussRat.make(0),) * 4)
    # 100; 20 without the cross terms Re and Im of w_k conj(w_l)
    @example((GaussRat.make(Fraction(4, 5), Fraction(2, 5)),
              GaussRat.make(Fraction(3, 10), Fraction(-4, 10)),
              GaussRat.make(0), GaussRat.make(0)))
    @settings(max_examples=200, deadline=None)
    def test_denom_mat_is_product_of_per_place_maxima(self, entries):
        d = math.lcm(*(x.d for x in entries))
        want = math.prod(max(denom_local(x, v) for x in entries) for v in places_over(d))
        assert denom_mat(Mat2(entries)) == want


class TestIntegerProducts:
    """Arithmetic and norms against the Fraction formulas written out entrywise."""

    @given(big_gauss_rat, big_gauss_rat)
    @example(GaussRat.make(0), GaussRat.make(3, -2))
    @example(GaussRat.make(1), GaussRat.make(Fraction(-7, 12), Fraction(5, 8)))
    # the product (0 + 6i)/6 reduces to i
    @example(GaussRat.make(Fraction(1, 6), Fraction(1, 6)), GaussRat.make(3, 3))
    @settings(max_examples=200, deadline=None)
    def test_gauss_rat_product_and_norm(self, x, y):
        p = x * y
        assert (p.re, p.im) == (x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)
        assert x.norm() == x.re * x.re + x.im * x.im
        s, t, u = x + y, x - y, -x
        assert (s.re, s.im) == (x.re + y.re, x.im + y.im)
        assert (t.re, t.im) == (x.re - y.re, x.im - y.im)
        assert (u.re, u.im) == (-x.re, -x.im)
        results = [p, s, t, u]
        if not y.is_zero():
            inv = y.inverse()
            assert (inv.re, inv.im) == (y.re / y.norm(), -y.im / y.norm())
            results.append(inv)
        for z in results + [x, y]:
            assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
            assert z == GaussRat.make(z.re, z.im)
            assert hash(z) == hash(GaussRat.make(z.re, z.im))

    @given(big_gauss_rat, big_gauss_rat, st.integers(-10 ** 6, 10 ** 6),
           st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6), st.integers(1, 60))
    @example(GaussRat.make(0), GaussRat.make(0), 0, 0, 5, 3)
    @settings(max_examples=200, deadline=None)
    def test_unchecked_results_equal_their_checked_rebuild(self, x, y, a, b, d, k):
        # arithmetic builds through _reduced, skipping GaussRat's check; the rebuild runs it
        results = [x + y, x - y, x * y, -x, GaussRat.make(x.re, y.im),
                   gaussian._reduced(a, b, d), gaussian._reduced(k * a, k * b, k * d)]
        if not y.is_zero():
            results.append(y.inverse())
        for z in results:
            checked = GaussRat(z.a, z.b, z.d)
            assert z == checked and hash(z) == hash(checked)

    @pytest.mark.parametrize("a, b, d", [(2, 4, 2), (1, 0, 0), (1, 0, -1)])
    def test_non_canonical_triple_rejected(self, a, b, d):
        with pytest.raises(ValueError):
            GaussRat(a, b, d)

    def test_arithmetic_builds_no_fraction(self, monkeypatch):
        built = []

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        x = GaussRat.make(Fraction(-7, 12), Fraction(5, 8))
        y = GaussRat.make(Fraction(3, 10), Fraction(-4, 15))
        m = Mat2((x, y, y, x))
        n = Mat2((y, x, GaussRat.make(2), y))
        monkeypatch.setattr(gaussian, "Fraction", CountingFraction)
        _ = x + y, x * y, x.inverse(), m * n, denom(x), denom_mat(m)
        assert built == []

    @given(big_mat, big_mat)
    @example(Mat2.identity(), Mat2.make([[Fraction(1, 3), -2], [Fraction(5, 7), 0]]))
    @example(Mat2.make([[1, 4], [0, 1]]), Mat2.make([[1, 0], [-3, 1]]))
    @example(Mat2.make([[0, 0], [0, 0]]), Mat2.identity())
    @settings(max_examples=200, deadline=None)
    def test_mat2_product(self, m, n):
        def dot(x, y, z, w):
            return (x.re * y.re - x.im * y.im + z.re * w.re - z.im * w.im,
                    x.re * y.im + x.im * y.re + z.re * w.im + z.im * w.re)

        a, b, c, d = m.entries
        e, f, g, h = n.entries
        want = [dot(a, e, b, g), dot(a, f, b, h), dot(c, e, d, g), dot(c, f, d, h)]
        assert [(x.re, x.im) for x in (m * n).entries] == want
        assert (m * n).entries == (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def test_mat2_product_reduces_each_entry_once(self, monkeypatch):
        m = Mat2.make([[Fraction(-7, 12), Fraction(5, 8)], [3, Fraction(1, 6)]])
        n = Mat2.make([[Fraction(3, 10), 2], [Fraction(-4, 15), Fraction(1, 6)]])
        calls = []
        reduced = gaussian._reduced
        monkeypatch.setattr(gaussian, "_reduced", lambda *abd: calls.append(abd) or reduced(*abd))
        m * n
        assert len(calls) == 4


class TestMat2:
    @pytest.mark.parametrize("entries", [
        (1, 2),
        (1, 2, 3, 4),
        (GaussRat.make(1),) * 3,
        (GaussRat.make(1),) * 5,
        (GaussRat.make(1), GaussRat.make(0), GaussRat.make(0), 1),
        [GaussRat.make(1)] * 4,
    ])
    def test_entries_must_be_four_gauss_rats(self, entries):
        with pytest.raises(ValueError, match="four GaussRat"):
            Mat2(entries)

    @pytest.mark.parametrize("rows", [[[1, 2, 3, 4]], [[1], [2], [3], [4]], [[1, 2, 3], [4]]])
    def test_make_requires_two_rows_of_two(self, rows):
        with pytest.raises(ValueError, match="2x2"):
            Mat2.make(rows)


class TestProductFormula:
    def test_one(self):
        assert product_formula_check(GaussRat.make(1)) == 1

    def test_one_plus_i(self):
        x = GaussRat.make(1, 1)
        assert x.norm() == 2
        assert product_formula_check(x) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            product_formula_check(GaussRat.make(0))

    def test_prime_norm_near_10_16_costs_one_primality_test(self, monkeypatch):
        # N(10^8 + 49 i) = 10^16 + 2401 is prime; trial division to its
        # square root took 10^8 steps.  Factoring the norm proves it, and
        # building its places reads that proof from the cache.  The place
        # over the denominator 7 is built first, so only the norm counts.
        calls = []
        is_prime, rho = _primes.is_prime, gaussian._pollard_brent
        _primes.cached_is_prime.cache_clear()
        _prime_above.cache_clear()
        _prime_above(7)
        monkeypatch.setattr(_primes, "is_prime", lambda n: calls.append(n) or is_prime(n))
        monkeypatch.setattr(gaussian, "_pollard_brent", lambda n: calls.append("rho") or rho(n))
        x = GaussRat.make(Fraction(10 ** 8, 7), Fraction(49, 7))
        assert product_formula_check(x) == 1
        assert calls == [10 ** 16 + 2401]

    @given(small_rat, small_rat)
    @settings(max_examples=300, deadline=None)
    def test_always_one(self, re, im):
        x = GaussRat.make(re, im)
        if x.is_zero():
            return
        assert product_formula_check(x) == 1

    @given(small_rat, small_rat)
    @settings(max_examples=200, deadline=None)
    def test_denominator_arch_floor(self, re, im):
        x = GaussRat.make(re, im)
        if x.is_zero():
            return
        assert denom(x) * x.norm() >= 1


class TestCommutator:
    def test_diagonal_matrices_commute(self):
        a = Mat2.make([[2, 0], [0, 3]])
        b = Mat2.make([[5, 0], [0, 7]])
        assert commutator(a, b).is_zero()

    def test_shear_pair(self):
        a = Mat2.make([[1, 1], [0, 1]])
        b = Mat2.make([[1, 0], [1, 1]])
        got = commutator(a, b)
        assert got == Mat2.make([[1, 0], [0, -1]])

    def test_self_commutator_is_zero(self):
        a = Mat2.make([[1, 2], [3, 4]])
        assert commutator(a, a).is_zero()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("call", [
    lambda value: GaussRat.make(value),
    lambda value: GaussRat.make(0, value),
    lambda value: Mat2.make([[value, 0], [0, 1]]),
    lambda value: certify_commuting(Mat2.make([[1, 0], [0, 1]]), Mat2.make([[1, 0], [0, 1]]),
                                    value),
], ids=["make-re", "make-im", "Mat2.make", "certify_commuting"])
def test_non_finite_value_refused_by_name(call, value):
    with pytest.raises(ValueError, match=f"got {value!r}$"):
        call(value)


class TestCertifier:
    def test_commuting_diagonal_pair(self):
        a = Mat2.make([[2, 0], [0, 3]])
        b = Mat2.make([[5, 0], [0, 7]])
        verdict = certify_commuting(a, b, Fraction(1, 10))
        assert verdict in (CommutatorVerdict.FORCED_ZERO, CommutatorVerdict.IS_ZERO)

    def test_violated_bound_reported(self):
        a = Mat2.make([[1, 1], [0, 1]])
        b = Mat2.make([[1, 0], [1, 1]])
        with pytest.raises(ArchBoundViolation):
            certify_commuting(a, b, Fraction(1, 2))

    def test_integer_nonzero_commutator_not_forced(self):
        a = Mat2.make([[1, 1], [0, 1]])
        b = Mat2.make([[1, 0], [1, 1]])
        assert certify_commuting(a, b, Fraction(1)) == CommutatorVerdict.NOT_FORCED

    def test_no_nonzero_commutator_passes_the_gate(self):
        rng = random.Random(4)
        for _ in range(200):
            a = Mat2(tuple(rand_rat(rng, span=8, den=4) for _ in range(4)))
            b = Mat2(tuple(rand_rat(rng, span=8, den=4) for _ in range(4)))
            c = commutator(a, b)
            if c.is_zero():
                continue
            bound = c.max_arch_norm()
            # the sharp admissible bound never combines with the
            # denominator to defeat the product formula
            assert denom_mat(c) * bound >= 1
            assert certify_commuting(a, b, bound) == CommutatorVerdict.NOT_FORCED
