import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treeamp import hecke, tree

from oracles import global_identity, identity_value, spectral_value, subtract_identity

PRIMES = [2, 3, 5, 7, 11]


def bilinear_convolve(f, g):
    """f * g as a dict, summing every structure constant over r = 0 ... a + b."""
    out = {}
    for a, ca in f.coeffs:
        for b, cb in g.coeffs:
            for r in range(0, a + b + 1, 2):
                out[r] = out.get(r, 0) + ca * cb * tree.convolution_count(f.prime, a, b, r)
    return {r: c for r, c in out.items() if c}


@st.composite
def element_pairs(draw):
    """Two elements at one prime, each with up to five terms of radius <= MAX_RADIUS."""
    p = draw(st.sampled_from(PRIMES + [13]))
    radii = st.sampled_from(range(0, hecke.MAX_RADIUS + 1, 2))
    terms = st.dictionaries(radii, st.integers(-3, 3), max_size=5)
    return (hecke.LocalHeckeElement.from_dict(p, draw(terms)),
            hecke.LocalHeckeElement.from_dict(p, draw(terms)))


class TestBasics:
    def test_identity(self):
        delta = hecke.identity(3)
        assert dict(delta.coeffs) == {0: 1}
        assert hecke.total_mass(delta) == 1

    def test_basic_support_sizes(self):
        assert dict(hecke.basic(2, 1).coeffs) == {2: 1}
        assert hecke.total_mass(hecke.basic(2, 1)) == 6
        assert dict(hecke.basic(5, 2).coeffs) == {4: 1}
        assert hecke.total_mass(hecke.basic(5, 2)) == 750

    @pytest.mark.parametrize("j", [1.5, 2.0, "1", None], ids=repr)
    def test_non_integer_j_refused(self, j):
        # named as j, not as the doubled radius 2j
        with pytest.raises(ValueError, match=f"^j must be an integer, got {re.escape(repr(j))}$"):
            hecke.basic(5, j)

    def test_j_zero_rejected(self):
        with pytest.raises(ValueError):
            hecke.basic(2, 0)

    def test_radius_cap(self):
        with pytest.raises(ValueError):
            hecke.basic(2, 5)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: hecke.basic(4, 1), id="basic-at-4"),
        pytest.param(lambda: hecke.identity(1), id="identity-at-1"),
        pytest.param(lambda: hecke.LocalHeckeElement(2, ((3, 1),)), id="odd-radius"),
        pytest.param(lambda: hecke.LocalHeckeElement(2, ((-2, 1),)), id="negative-radius"),
        pytest.param(lambda: hecke.LocalHeckeElement(7, ((2.0, 1),)), id="float-radius"),
        pytest.param(lambda: hecke.LocalHeckeElement.from_dict(3, {1: 1}), id="from-dict"),
    ])
    def test_bad_prime_or_radius_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("coeffs", [
        pytest.param(((4, 1), (2, 1)), id="descending"),
        pytest.param(((2, 1), (2, 3)), id="repeated-radius"),
        pytest.param(((2, 0),), id="zero-coefficient"),
    ])
    def test_non_canonical_rejected(self, coeffs):
        with pytest.raises(ValueError, match="strictly ascending by key with no zero"):
            hecke.LocalHeckeElement(2, coeffs)


class TestConvolve:
    @pytest.mark.parametrize("p", PRIMES)
    def test_degree2_identity(self, p):
        got = hecke.convolve(hecke.basic(p, 1), hecke.basic(p, 1))
        assert dict(got.coeffs) == {0: p * (p + 1), 2: p - 1, 4: 1}

    @pytest.mark.parametrize("p", PRIMES)
    def test_degree4_identity(self, p):
        got = hecke.convolve(hecke.basic(p, 2), hecke.basic(p, 2))
        assert dict(got.coeffs) == {
            0: p ** 3 * (p + 1),
            2: p * p * (p - 1),
            4: p * (p - 1),
            6: p - 1,
            8: 1,
        }

    @given(element_pairs())
    @settings(max_examples=100, deadline=None)
    def test_matches_bilinear_oracle(self, pair):
        f, g = pair
        got = hecke.convolve(f, g)
        assert dict(got.coeffs) == bilinear_convolve(f, g)
        radii = [r for r, _ in got.coeffs]
        assert radii == sorted(set(radii))
        assert all(c != 0 for _, c in got.coeffs)

    @pytest.mark.parametrize("p", PRIMES)
    def test_cancelled_radius_is_dropped(self, p):
        # T_2 * (T_2 - (p - 1) T_0) = T_4 + p(p + 1) T_0
        t2 = hecke.basic(p, 1)
        g = hecke.LocalHeckeElement(p, ((0, 1 - p), (2, 1)))
        assert hecke.convolve(t2, g).coeffs == ((0, p * (p + 1)), (4, 1))

    def test_zero_element(self):
        zero = hecke.LocalHeckeElement(5, ())
        assert hecke.convolve(hecke.basic(5, 2), zero).coeffs == ()
        assert hecke.convolve(zero, zero).coeffs == ()

    def test_identity_element(self):
        f = hecke.LocalHeckeElement.from_dict(3, {2: 5, 4: -1})
        assert hecke.convolve(hecke.identity(3), f) == f
        assert hecke.convolve(f, hecke.identity(3)) == f

    def test_prime_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hecke.convolve(hecke.basic(2, 1), hecke.basic(3, 1))

    @pytest.mark.parametrize("p", PRIMES)
    def test_commutativity_all_basics(self, p):
        basics = [hecke.identity(p)] + [hecke.basic(p, j) for j in range(1, 5)]
        for f in basics:
            for g in basics:
                assert hecke.convolve(f, g) == hecke.convolve(g, f)

    @pytest.mark.parametrize("p", [2, 3])
    def test_associativity(self, p):
        t1, t2 = hecke.basic(p, 1), hecke.basic(p, 2)
        lhs = hecke.convolve(hecke.convolve(t1, t1), t2)
        rhs = hecke.convolve(t1, hecke.convolve(t1, t2))
        assert lhs == rhs

    @pytest.mark.parametrize("p", PRIMES)
    def test_mass_multiplicativity(self, p):
        basics = [hecke.identity(p)] + [hecke.basic(p, j) for j in range(1, 5)]
        for f in basics:
            for g in basics:
                prod = hecke.convolve(f, g)
                assert hecke.total_mass(prod) == hecke.total_mass(f) * hecke.total_mass(g)


class TestEigenvalues:
    def test_trivial_eigenvalue_is_mass(self):
        for p in (2, 5):
            seq = hecke.eigenvalue_sequence(p, Fraction(p * (p + 1)), 4)
            assert seq[2] == p ** 3 * (p + 1)
            assert seq[2] == tree.sphere_size(p, 4)

    def test_lambda_zero_seed(self):
        seq = hecke.eigenvalue_sequence(5, Fraction(0), 2)
        assert seq[2] == -30

    def test_p2_seed_one(self):
        seq = hecke.eigenvalue_sequence(2, Fraction(1), 4)
        assert seq[2] == 1 - 1 - 6

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_degree4_identity_under_spectrum(self, p):
        # both sides of the radius-4 square identity agree spectrally
        rng = random.Random(p)
        for _ in range(20):
            lam = Fraction(rng.randint(-6 * p, 6 * p), rng.randint(1, 4))
            seq = hecke.eigenvalue_sequence(p, lam, 4)
            spectra = {p: seq}
            lhs = spectral_value(
                hecke.convolve(hecke.basic(p, 2), hecke.basic(p, 2)), spectra)
            assert lhs == seq[2] ** 2

    def test_float_seed_tolerance(self):
        seq = hecke.eigenvalue_sequence(3, 1.25, 4)
        exact = hecke.eigenvalue_sequence(3, Fraction(5, 4), 4)
        assert len(seq) == 5
        for j in range(5):
            assert seq[j] == pytest.approx(float(exact[j]), rel=1e-9)
        assert all(isinstance(v, Fraction) for v in seq)
        assert seq == exact

    @pytest.mark.parametrize("max_j", [3.0, 2.5, "3", None], ids=repr)
    def test_non_integer_max_j_refused(self, max_j):
        message = f"^max_j must be an integer, got {re.escape(repr(max_j))}$"
        with pytest.raises(ValueError, match=message):
            hecke.eigenvalue_sequence(5, 1, max_j)

    def test_max_j_too_small(self):
        with pytest.raises(ValueError):
            hecke.eigenvalue_sequence(2, Fraction(1), 1)

    def test_a_tuple_from_one_to_max_j(self):
        assert hecke.eigenvalue_sequence(2, 1, 2) == (1, 1, -6)
        assert len(hecke.eigenvalue_sequence(3, Fraction(1, 3), 7)) == 8

    def test_checks_its_prime(self):
        with pytest.raises(ValueError, match="^p must be prime, got 4$"):
            hecke.eigenvalue_sequence(4, 0, 2)


class TestSpectralValue:
    def test_identity_evaluates_to_one(self):
        spectra = {2: hecke.eigenvalue_sequence(2, Fraction(1), 2)}
        assert spectral_value(hecke.identity(2), spectra) == 1
        assert spectral_value(global_identity(), spectra) == 1

    def test_zero_seed(self):
        spectra = {2: hecke.eigenvalue_sequence(2, Fraction(0), 2)}
        assert spectral_value(hecke.basic(2, 1), spectra) == 0

    def test_multiplicative_over_convolution(self):
        rng = random.Random(11)
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            f = hecke.LocalHeckeElement.from_dict(
                p, {2 * j: rng.randint(-3, 3) for j in range(3)})
            g = hecke.LocalHeckeElement.from_dict(
                p, {2 * j: rng.randint(-3, 3) for j in range(3)})
            lam = Fraction(rng.randint(-4 * p, 4 * p), rng.randint(1, 3))
            spectra = {p: hecke.eigenvalue_sequence(p, lam, 4)}
            assert spectral_value(hecke.convolve(f, g), spectra) == \
                spectral_value(f, spectra) * spectral_value(g, spectra)

    def test_missing_prime_raises(self):
        with pytest.raises(KeyError):
            spectral_value(hecke.basic(7, 1), {})


def off_origin_max(f):
    return max((abs(c) for r, c in f.coeffs if r > 0), default=0)


class TestOffOriginMax:
    @pytest.mark.parametrize("p", [2, 5, 11])
    def test_square_bounds(self, p):
        sq1 = hecke.convolve(hecke.basic(p, 1), hecke.basic(p, 1))
        assert off_origin_max(sq1) == p - 1
        assert p - 1 <= p ** (2 - 1)
        sq2 = hecke.convolve(hecke.basic(p, 2), hecke.basic(p, 2))
        assert off_origin_max(sq2) == p * p * (p - 1)
        assert p * p * (p - 1) <= p ** (4 - 1)

    def test_identity_is_zero(self):
        assert off_origin_max(hecke.identity(2)) == 0


class TestGlobal:
    def test_single_prime_embedding(self):
        t1 = hecke.global_assemble({2: (hecke.basic(2, 1), 1)})
        local = hecke.convolve(hecke.basic(2, 1), hecke.basic(2, 1))
        assert t1 == hecke.GlobalHeckeElement.from_dict(
            {((2, r),) if r else (): c for r, c in local.coeffs})

    def test_cross_coefficients(self):
        t1 = hecke.global_assemble({2: (hecke.basic(2, 1), 1), 3: (hecke.basic(3, 1), 1)})
        cross = tuple(sorted(((2, 2), (3, 2))))
        assert dict(t1.coeffs)[cross] == 2
        t1 = hecke.global_assemble({2: (hecke.basic(2, 1), 1), 3: (hecke.basic(3, 1), -1)})
        assert dict(t1.coeffs)[cross] == -2

    def test_identity_value_is_total_support(self):
        parts = {p: (hecke.basic(p, 1), 1) for p in (2, 3, 5)}
        t1 = hecke.global_assemble(parts)
        assert identity_value(t1) == sum(
            hecke.total_mass(h) for h, _ in parts.values())

    @pytest.mark.parametrize("zeta", [1.0, -1.0, "1", None], ids=repr)
    def test_non_integer_phase_refused(self, zeta):
        # a float phase once built float cross coefficients
        parts = {2: (hecke.basic(2, 1), zeta), 3: (hecke.basic(3, 1), 1)}
        message = f"^phase must be an integer, got {re.escape(repr(zeta))}$"
        with pytest.raises(ValueError, match=message):
            hecke.global_assemble(parts)

    def test_duplicate_prime_rejected(self):
        with pytest.raises(ValueError):
            hecke.global_assemble({2: (hecke.basic(3, 1), 1)})

    @pytest.mark.parametrize("coeffs", [
        pytest.param(((((2, 3),), 5),), id="odd-radius"),
        pytest.param(((((2, 2), (2, 4)), 1),), id="repeated-prime"),
        pytest.param(((((4, 2),), 1),), id="not-prime"),
        pytest.param(((((2, 0),), 1),), id="radius-0"),
        pytest.param(((((3, 2), (2, 2)), 1),), id="unsorted-point"),
        pytest.param(((((3, 2),), 1), (((2, 2),), 1)), id="descending"),
        pytest.param(((((2, 2),), 1), (((2, 2),), 1)), id="repeated-point"),
        pytest.param(((((2, 2),), 0),), id="zero-coefficient"),
    ])
    def test_direct_construction_checked(self, coeffs):
        with pytest.raises(ValueError):
            hecke.GlobalHeckeElement(coeffs)

    def test_from_dict_merges_spellings_of_one_point(self):
        g = hecke.GlobalHeckeElement.from_dict({((2, 2), (3, 2)): 1, ((3, 2), (2, 2)): 1})
        assert g.coeffs == ((((2, 2), (3, 2)), 2),)
        spectra = {p: hecke.eigenvalue_sequence(p, Fraction(1), 2) for p in (2, 3)}
        assert spectral_value(g, spectra) == dict(g.coeffs)[((2, 2), (3, 2))] == 2
        assert hecke.GlobalHeckeElement.from_dict(
            {((2, 2), (3, 2)): 1, ((3, 2), (2, 2)): -1}).coeffs == ()

    def test_non_basic_rejected(self):
        sq = hecke.convolve(hecke.basic(2, 1), hecke.basic(2, 1))
        with pytest.raises(ValueError):
            hecke.global_assemble({2: (sq, 1)})

    def test_subtract_identity(self):
        assert subtract_identity(global_identity()).coeffs == ()
        t1 = hecke.global_assemble({2: (hecke.basic(2, 1), 1)})
        tau = subtract_identity(t1)
        assert identity_value(tau) == 0
        assert dict(tau.coeffs)[((2, 2),)] == 1  # p - 1 at p = 2

    def test_norm_inf(self):
        assert hecke.norm_inf(hecke.GlobalHeckeElement.from_dict({})) == 0
        parts = {p: (hecke.basic(p, 1), 1) for p in (2, 3, 5, 7)}
        tau = subtract_identity(hecke.global_assemble(parts))
        assert hecke.norm_inf(tau) == max(2, max(p - 1 for p in parts))

    def test_self_adjoint_coefficients(self):
        # radius-indexed coefficients are fixed by the adjoint; all must be
        # integers, and reassembly with flipped phases keeps them integral
        parts = {p: (hecke.basic(p, 1), -1) for p in (2, 3)}
        t1 = hecke.global_assemble(parts)
        assert all(isinstance(c, int) for _, c in t1.coeffs)

    def test_spectral_value_multiplicative_across_primes(self):
        t1 = hecke.global_assemble({2: (hecke.basic(2, 1), 1), 3: (hecke.basic(3, 1), 1)})
        spectra = {
            2: hecke.eigenvalue_sequence(2, Fraction(1), 4),
            3: hecke.eigenvalue_sequence(3, Fraction(-2), 4),
        }
        expected = (1 + (-2)) ** 2  # (sum of seed eigenvalues)^2
        assert spectral_value(t1, spectra) == expected
