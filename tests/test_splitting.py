import json
import tracemalloc
from fractions import Fraction
from itertools import count
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treeamp import _primes, amplifier, hecke, orbits, splitting, tree
from treeamp.splitting import (
    MAX_DEGREE,
    IntPoly,
    empirical_density,
    is_prime,
    parse_poly,
    primes_in,
    split_primes_in,
    splits_completely,
)
from treeamp.splitting import _frobenius_fixes_x

ROOT = Path(__file__).resolve().parent.parent

# x^3-3x+2 = (x-1)^2 (x+2) has discriminant 0 and never splits;
# x^2+x splits at 2, where y = 2x + 1 is not a change of variable;
# x^3+x+1 is neither a quadratic nor a binomial, so it takes the
# Frobenius test
CORPUS = ["x^2+1", "x^3-2", "x^2-2", "x^4+1", "x^3-3x+2", "x^2+x", "x^6-1", "x^3+x+1"]


def root_count(f: IntPoly, p: int) -> int:
    return sum(1 for x in range(p)
               if sum(c * pow(x, i, p) for i, c in enumerate(f.coeffs)) % p == 0)


class TestParse:
    def test_simple(self):
        assert parse_poly("x^3-2").coeffs == (-2, 0, 0, 1)
        assert parse_poly("x^2 + 1").coeffs == (1, 0, 1)
        assert parse_poly("x-1").coeffs == (-1, 1)
        assert parse_poly("2x^2+x-5").coeffs == (-5, 1, 2)

    def test_roundtrip_str(self):
        assert str(parse_poly("x^3-2")) == "x^3 - 2"

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            parse_poly("7")

    def test_degree_cap(self):
        assert parse_poly(f"x^{MAX_DEGREE}+x+1").degree() == MAX_DEGREE
        assert parse_poly("x^9-x^9+x^2").degree() == 2
        for text, deg in [("x^9+1", "9"), ("x^1000000000+1", "1000000000")]:
            with pytest.raises(ValueError, match=f"degree {deg} .* cap {MAX_DEGREE}"):
                parse_poly(text)


def sympy_discriminant(coeffs) -> int:
    """disc of the polynomial with these coefficients, from the constant term up, by sympy."""
    return int(sympy.discriminant(sympy.Poly(coeffs[::-1], sympy.Symbol("x"))))


def times(u: list[int], v: list[int]) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


COEFF = st.integers(-20, 20)
LEADING = COEFF.filter(bool)
# degree 1 to 8 with any nonzero leading coefficient; and g h^2, which has a
# repeated root, for deg g <= 4 and 1 <= deg h <= 2
ANY_DEGREE = st.builds(lambda low, lead: [*low, lead], st.lists(COEFF, min_size=1, max_size=8),
                       LEADING)
SQUARE_FACTOR = st.builds(lambda g, h: times(g, times(h, h)),
                          st.builds(lambda low, lead: [*low, lead],
                                    st.lists(COEFF, max_size=4), LEADING),
                          st.builds(lambda low, lead: [*low, lead],
                                    st.lists(COEFF, min_size=1, max_size=2), LEADING))


class TestDiscriminant:
    @given(ANY_DEGREE)
    @settings(max_examples=200, deadline=None)
    def test_matches_sympy(self, coeffs):
        assert IntPoly(coeffs).discriminant() == sympy_discriminant(coeffs)

    @given(SQUARE_FACTOR)
    @settings(max_examples=80, deadline=None)
    def test_a_square_factor_gives_zero(self, coeffs):
        assert IntPoly(coeffs).discriminant() == 0 == sympy_discriminant(coeffs)


WITNESSES_13 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = x * x % n
    return False


def thirteen_base_test(n: int) -> bool:
    """Miller-Rabin to all 13 bases 2..41 at every size: the oracle of the
    two-base test below psi_2."""
    if n in WITNESSES_13:
        return True
    return n > 41 and all(n % a and strong_probable_prime(n, a) for a in WITNESSES_13)


class TestPrimality:
    def test_small(self):
        assert [n for n in range(2, 30) if is_prime(n)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_carmichael(self):
        assert not is_prime(561)
        assert not is_prime(25326001)
        # below psi_2, with no factor up to 41 and a Fermat liar to both
        # bases 2 and 3: only the strong test rejects it
        n = 1152271
        assert n == 43 * 127 * 211 and n < _primes._PSI_2
        assert [pow(a, n - 1, n) for a in (2, 3)] == [1, 1]
        assert not is_prime(n)

    def test_psi12_rejected(self):
        # the least strong pseudoprime to the bases 2..37; base 41 exposes it
        psi12 = 318665857834031151167461
        assert psi12 == 399165290221 * 798330580441
        assert not is_prime(psi12)
        assert is_prime(2 ** 61 - 1)

    def test_psi2_rejected(self):
        # the least strong pseudoprime to the bases 2 and 3, where the
        # two-base test stops; base 5 exposes it
        psi2 = _primes._PSI_2
        assert psi2 == 1373653 == 829 * 1657
        assert [strong_probable_prime(psi2, a) for a in (2, 3, 5)] == [True, True, False]
        assert not is_prime(psi2)

    def test_psi2_cutoff_off_by_one_is_caught(self, monkeypatch):
        # two bases up to and including psi_2 would call it prime
        monkeypatch.setattr(_primes, "_PSI_2", _primes._PSI_2 + 1)
        assert is_prime(1373653)

    @given(st.one_of(st.integers(2, 10 ** 7),
                     st.integers(1373653 - 10 ** 4, 1373653 + 10 ** 4)))
    @settings(max_examples=500, deadline=None)
    # strong pseudoprimes to base 2 that base 3 exposes, below psi_2
    @example(2047)
    @example(3277)
    @example(8321)
    @example(1373652)
    @example(1373653)
    @example(1373654)
    # strong pseudoprimes to the bases 2 and 3 above psi_2
    @example(1530787)
    @example(5173601)
    def test_agrees_with_thirteen_bases_around_psi2(self, n):
        assert is_prime(n) == thirteen_base_test(n)

    def test_psi13_and_beyond_raise(self):
        # psi_13 passes every base 2..41, so no answer is given from there up
        for n in (3317044064679887385961981, 2 ** 89 - 1):
            with pytest.raises(ValueError, match="decided only below"):
                is_prime(n)

    def test_primes_in_matches_sieve(self):
        assert primes_in(90, 110) == [97, 101, 103, 107, 109]

    def test_check_prime_refuses_a_float_equal_to_a_prime(self):
        # the prime checks' cache keys 10007.0 and 10007 alike, so each
        # entry point takes the float before and after the integer is cached
        entry_points = [
            _primes.check_prime,
            tree.root,
            lambda p: tree.TreeVertex(p, ()),
            lambda p: tree.sphere_size(p, 2),
            lambda p: tree.convolution_count(p, 2, 2, 2),
            lambda p: next(tree.iter_sphere(p, 0)),
            lambda p: amplifier.pick_local(p, 0),
            lambda p: hecke.LocalHeckeElement(p, ((0, 1),)),
            lambda p: hecke.EigenvalueSequence(p, ()),
            lambda p: hecke.GlobalHeckeElement(((((p, 2),), 1),)),
            lambda p: orbits.orbit_intersect_one_sided(orbits.OrbitModel(orbits.OrbitKind.SL2),
                                                       p, 1),
            lambda p: splits_completely(parse_poly("x^2+1"), p),
        ]
        _primes._check_prime.cache_clear()
        for cached in (0, 1):
            assert _primes._check_prime.cache_info().currsize == cached
            for call in entry_points:
                with pytest.raises(ValueError, match=r"p must be prime, got 10007\.0"):
                    call(10007.0)
            for call in entry_points:
                call(10007)
        assert tree.sphere_size(10007, 2) == 10008 * 10007


def next_prime(n: int) -> int:
    return next(m for m in count(n) if is_prime(m))


# window starts: near the bottom (lo <= 2 included), just below the
# square of a prime (the window straddles p^2, where crossing off
# starts), and far out where the sieve's base primes reach 10^5
WINDOW_LO = st.one_of(
    st.integers(-5, 3000),
    st.builds(lambda p, back: p * p - back, st.integers(2, 10 ** 5).map(next_prime),
              st.integers(0, 1000)),
    st.integers(10 ** 7, 10 ** 10),
)


# [lo, hi] with lo in [-5, 10^6] and hi - lo in [0, 2500]; the examples
# hold 2 alone, 1 to 3, the first odd prime, an even number, odd squares
# (where a base prime's crossing off starts) and an even lo
@settings(max_examples=100, deadline=None)
@given(st.integers(-5, 10 ** 6).flatmap(lambda lo: st.tuples(st.just(lo),
                                                             st.integers(lo, lo + 2500))))
@example((2, 2))
@example((1, 3))
@example((3, 3))
@example((4, 4))
@example((9, 9))
@example((25, 25))
@example((961, 961))
@example((1000, 1100))
@example((-5, -5))
def test_odd_table_matches_miller_rabin(window):
    lo, hi = window
    assert primes_in(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]


@settings(max_examples=100, deadline=None)
@given(WINDOW_LO, st.integers(-3, 2000))
@example(-5, 10)
@example(2, -1)
@example(0, 2)
@example(10 ** 8, 2000)
@example(2 ** 31 - 1000, 2000)
def test_segmented_sieve_matches_miller_rabin(lo, width):
    hi = lo + width
    assert primes_in(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]


class TestSplitsCompletely:
    def test_examples(self):
        f = parse_poly("x^2+1")
        assert splits_completely(f, 5)
        assert not splits_completely(f, 7)
        assert splits_completely(parse_poly("x^3-2"), 31)

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            splits_completely(parse_poly("2x^2+1"), 5)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            splits_completely(parse_poly("x^2+1"), 6)
        with pytest.raises(ValueError) as tree_error:
            tree.sphere_size(4, 2)
        with pytest.raises(ValueError) as split_error:
            splits_completely(parse_poly("x^2+1"), 4)
        assert str(split_error.value) == str(tree_error.value)

    @pytest.mark.parametrize("text", CORPUS)
    def test_against_root_counting(self, text):
        f = parse_poly(text)
        disc = f.discriminant()
        for p in primes_in(2, 500):
            expected = disc % p != 0 and root_count(f, p) == f.degree()
            assert splits_completely(f, p) == expected, (text, p)
        assert split_primes_in(f, 2, 500) == \
            [p for p in primes_in(2, 500) if splits_completely(f, p)]


BINOMIAL = st.builds(lambda d, c0: IntPoly((c0,) + (0,) * (d - 1) + (1,)),
                     st.integers(2, 8),
                     st.one_of(st.sampled_from([0, 1, -1]), st.integers(-10 ** 4, 10 ** 4)))
QUADRATIC = st.builds(lambda b, c: IntPoly((c, b, 1)),
                      st.integers(-10 ** 4, 10 ** 4), st.integers(-10 ** 4, 10 ** 4))
PRIMES_20000 = primes_in(2, 20000)


# the power-residue criterion against the Frobenius test it replaces;
# x^3 has a repeated root, and x^6-1 and x^4-4 = (x^2-2)(x^2+2) need
# both d | p-1 and the d-th power test
@settings(max_examples=25, deadline=None)
@given(st.one_of(BINOMIAL, QUADRATIC))
@example(parse_poly("x^6-1"))
@example(parse_poly("x^4-4"))
@example(parse_poly("x^3"))
def test_power_residue_matches_frobenius(f):
    assert split_primes_in(f, 2, 20000) == \
        [p for p in PRIMES_20000 if _frobenius_fixes_x(f.coeffs, p)]


# small coefficients keep 4|b^2 - 4c| below 4100, so the quadratic's
# residue classes repeat many times below 20000; x^2-1 has a square a,
# 3 divides a = 12 for x^2-3, x^2+2x+1 has a = 0, x^2+x splits at 2,
# where y = 2x + 1 is not a change of variable, and x^2+7 has a = -28
SMALL_QUADRATIC = st.builds(lambda b, c: IntPoly((c, b, 1)),
                            st.integers(-30, 30), st.integers(-30, 30))


@settings(max_examples=5, deadline=None)
@given(SMALL_QUADRATIC)
@example(parse_poly("x^2-1"))
@example(parse_poly("x^2-3"))
@example(parse_poly("x^2+2x+1"))
@example(parse_poly("x^2+x"))
@example(parse_poly("x^2+7"))
def test_quadratic_classes_match_frobenius(f):
    assert split_primes_in(f, 2, 20000) == \
        [p for p in PRIMES_20000 if _frobenius_fixes_x(f.coeffs, p)]


def test_quadratic_decided_once_per_class(monkeypatch):
    # x^2+1 has a = -4: the primes below 10^5 fall in the 8 odd classes
    # mod 16 and the class of 2, so a fall back to one decision per
    # prime (9592 of them) fails here
    decide = splitting._quadratic_class_splits
    calls = []

    def counted(coeffs, a, p):
        calls.append(p)
        return decide(coeffs, a, p)

    monkeypatch.setattr(splitting, "_quadratic_class_splits", counted)
    assert empirical_density(parse_poly("x^2+1"), 10 ** 5) == Fraction(4783, 9592)
    assert len(calls) <= 16


@pytest.mark.parametrize("text", ["x^2+1", "x^2+7", "x^2+1000003"])
def test_quadratic_decides_each_class_at_its_first_prime(monkeypatch, text):
    # one decision per class of p mod 4|a| that holds a prime, at that
    # prime, in any order: 4|a| = 16, 112, 4000012 against the 1229 primes
    # below 10^4; the class of 2 is decided by the Frobenius test
    f = parse_poly(text)
    a = f.coeffs[1] ** 2 - 4 * f.coeffs[0]
    m = 4 * abs(a)
    first = {}
    for p in primes_in(2, 10 ** 4):
        first.setdefault(p % m, p)
    decide = splitting._quadratic_class_splits
    calls = []

    def counted(coeffs, a, p):
        calls.append(p)
        return decide(coeffs, a, p)

    monkeypatch.setattr(splitting, "_quadratic_class_splits", counted)
    empirical_density(f, 10 ** 4)
    assert sorted(calls) == sorted(first.values())


@st.composite
def poly_and_window(draw):
    """A polynomial and a window [lo, hi]: lo on either side of 4|a| (of
    64 when f is not a quadratic), widths below 4|a| (one prime per
    class) and above it, single primes, hi < lo and hi < 2."""
    f = draw(st.one_of(st.sampled_from(CORPUS).map(parse_poly), SMALL_QUADRATIC, BINOMIAL))
    c = f.coeffs
    m = 4 * abs(c[1] * c[1] - 4 * c[0]) if f.degree() == 2 else 64
    kind = draw(st.sampled_from(["low", "high", "prime", "reversed", "below_two"]))
    if kind == "prime":
        p = next_prime(draw(st.integers(2, 10 ** 6)))
        return f, p, p
    if kind == "below_two":
        lo = draw(st.integers(-5, 1))
        return f, lo, draw(st.integers(lo, 1))
    lo = draw(st.integers(-5, m + 3) if kind == "low" else st.integers(m, 10 ** 6))
    width = draw(st.integers(-20, -1) if kind == "reversed" else st.integers(0, 2500))
    return f, lo, lo + width


# split_primes_in and the mask count of a window against the Frobenius
# test on the window's primes; in the quadratic examples x^2+1 (4|a| = 16)
# has its classes swept from lo = 3 and from lo = 17, and x^2+7
# (4|a| = 112) has one prime per class on a window narrower than 112
@settings(max_examples=60, deadline=None)
@given(poly_and_window())
@example((parse_poly("x^2+1"), 3, 3000))
@example((parse_poly("x^2+1"), 17, 3000))
@example((parse_poly("x^2+7"), 100, 150))
@example((parse_poly("x^2+x"), 2, 2))
@example((parse_poly("x^3-2"), 31, 31))
@example((parse_poly("x^6-1"), 10, 5))
@example((parse_poly("x^3+x+1"), -5, 1))
def test_window_matches_frobenius(case):
    f, lo, hi = case
    primes = [n for n in range(lo, hi + 1) if is_prime(n)]
    expected = [p for p in primes if _frobenius_fixes_x(f.coeffs, p)]
    if hi < lo:
        with pytest.raises(ValueError, match="empty range"):
            split_primes_in(f, lo, hi)
    else:
        assert split_primes_in(f, lo, hi) == expected
    # the table holds the odd numbers, and the filter reports 2 apart
    o, table = splitting._prime_table(lo, hi)
    assert table.count(1) == len([p for p in primes if p > 2])
    two, mask = splitting._split_filter(f, o, table)
    assert mask.count(1) + (two and 2 in primes) == len(expected)


def refuse(*args):
    raise AssertionError("must not be called")


def test_density_builds_no_prime_list(monkeypatch):
    monkeypatch.setattr(splitting, "primes_in", refuse)
    assert empirical_density(parse_poly("x^2+1"), 10 ** 4) == Fraction(609, 1229)
    assert split_primes_in(parse_poly("x^3-2"), 2, 200) == [31, 43, 109, 127, 157]


@pytest.mark.parametrize("text,frobenius_at", [("x^3-2", set()), ("x^2+1", {2}),
                                               ("x^2+x", {2}), ("x^2+1000003", {2})])
def test_fast_paths_skip_frobenius(monkeypatch, text, frobenius_at):
    # x^3-2 takes one pow per candidate; a quadratic needs the Frobenius
    # test only at p = 2, whether its classes hold many primes (4|a| = 16
    # or 4) or, with 4|a| above the window, one prime each
    f = parse_poly(text)
    fixes = splitting._frobenius_fixes_x
    calls = set()

    def counted(coeffs, p):
        calls.add(p)
        return fixes(coeffs, p)

    monkeypatch.setattr(splitting, "_frobenius_fixes_x", counted)
    empirical_density(f, 10 ** 4)
    split_primes_in(f, 2, 500)
    split_primes_in(f, 1000, 1100)
    splits_completely(f, 2)
    splits_completely(f, 9973)
    assert calls == frobenius_at


def test_splits_completely_never_sieves(monkeypatch):
    # 10^18 + 3 is prime, 3 mod 4 and 1 mod 3: x^2+1 fails on its class,
    # and x^3-2 takes its one modular power
    p = 10 ** 18 + 3
    assert is_prime(p)
    monkeypatch.setattr(splitting, "_prime_table", refuse)
    for text in ("x^2+1", "x^3-2"):
        f = parse_poly(text)
        assert splits_completely(f, p) == _frobenius_fixes_x(f.coeffs, p)


# p = 2 is decided apart from the odd table: degree 1 splits, a quadratic
# takes the Frobenius test, a binomial of degree >= 3 never splits and
# makes no Frobenius call, and any other polynomial takes the test
@pytest.mark.parametrize("text,splits,frobenius_at", [
    ("x-1", True, set()), ("x^2+x", True, {2}), ("x^2+1", False, {2}),
    ("x^3-2", False, set()), ("x^3+x+1", False, {2})])
def test_splits_at_two(monkeypatch, text, splits, frobenius_at):
    f = parse_poly(text)
    assert (f.discriminant() % 2 != 0 and root_count(f, 2) == f.degree()) == splits
    fixes = splitting._frobenius_fixes_x
    calls = set()

    def counted(coeffs, p):
        calls.add(p)
        return fixes(coeffs, p)

    monkeypatch.setattr(splitting, "_frobenius_fixes_x", counted)
    assert splits_completely(f, 2) == splits
    assert split_primes_in(f, 2, 2) == [2] * splits
    assert calls == frobenius_at


class TestSplitPrimesIn:
    def test_gaussian_primes(self):
        assert split_primes_in(parse_poly("x^2+1"), 2, 30) == [5, 13, 17, 29]

    def test_degree_one_is_everything(self):
        assert split_primes_in(parse_poly("x-1"), 2, 30) == primes_in(2, 30)

    def test_cubic(self):
        assert split_primes_in(parse_poly("x^3-2"), 2, 200) == [31, 43, 109, 127, 157]

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            split_primes_in(parse_poly("2x^2+1"), 2, 100)

    def test_strictly_increasing_primes(self):
        out = split_primes_in(parse_poly("x^2-2"), 2, 1000)
        assert out == sorted(set(out))
        assert all(is_prime(p) for p in out)


class TestEmpiricalDensity:
    def test_degree_one_exact(self):
        assert empirical_density(parse_poly("x-1"), 1000) == 1

    def test_quadratic_near_half(self):
        d = empirical_density(parse_poly("x^2+1"), 10 ** 4)
        assert abs(d - Fraction(1, 2)) < Fraction(1, 50)

    def test_cubic_near_sixth(self):
        d = empirical_density(parse_poly("x^3-2"), 10 ** 4)
        assert abs(d - Fraction(1, 6)) < Fraction(1, 50)

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            empirical_density(parse_poly("2x^2+1"), 1000)

    @pytest.mark.parametrize("text", CORPUS + ["x-1"])
    def test_density_agrees_with_split_primes(self, text):
        f = parse_poly(text)
        assert empirical_density(f, 2000) == \
            Fraction(len(split_primes_in(f, 2, 2000)), len(primes_in(2, 2000)))

    def test_limit_floor(self):
        with pytest.raises(ValueError):
            empirical_density(parse_poly("x^2+1"), 50)

    def test_matches_the_benchmark_record(self):
        # every (polynomial, limit) pair that perfbench's split_density checks
        recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        pairs = [(text, limit, want) for text, by_limit in recorded["split_density"].items()
                 for limit, want in by_limit.items()]
        assert len(pairs) == 6
        for text, limit, want in pairs:
            assert empirical_density(parse_poly(text), int(limit)) == Fraction(want), (text, limit)

    @pytest.mark.parametrize("text", ["x^2+1", "x^3-2"])
    def test_memory_peak_at_a_million(self, text):
        # the odd table and its mask take 250 kB each at 10^6, and the 13,032
        # split primes of x^3-2 about 0.5 MB as a list; a byte per integer,
        # 1 MB a copy, would not fit
        f = parse_poly(text)
        tracemalloc.start()
        try:
            empirical_density(f, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10 ** 6

    @pytest.mark.slow
    @pytest.mark.parametrize("text,expected", [
        ("x^2+1", Fraction(1, 2)),
        ("x^3-2", Fraction(1, 6)),
        ("x^2-2", Fraction(1, 2)),
        ("x^4+1", Fraction(1, 4)),
    ])
    def test_stabilizing(self, text, expected):
        f = parse_poly(text)
        values = [empirical_density(f, limit) for limit in (10 ** 4, 10 ** 5, 10 ** 6)]
        # every scale within the coarse tolerance, the largest within a
        # tight one; the raw successive differences are too noisy to
        # compare directly
        assert all(abs(v - expected) < Fraction(1, 50) for v in values)
        assert abs(values[-1] - expected) < Fraction(1, 100)
