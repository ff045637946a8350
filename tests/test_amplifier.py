import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from treeamp import amplifier, hecke, orbits, tree
from treeamp.amplifier import (
    PICK_THRESHOLD,
    AmplifierError,
    AmplifierReport,
    LocalChoice,
    SpectrumKind,
    SpectrumModel,
    build_amplifier,
    dichotomy_constant,
    dichotomy_constant_at_least,
    pick_local,
    scaling_sweep,
)
from treeamp.cli import main as cli_main
from treeamp.orbits import OrbitKind, OrbitModel
from treeamp.splitting import is_prime, parse_poly, primes_in, split_primes_in

from oracles import (
    identity_value,
    spectral_value,
    subtract_identity,
    support_primes,
    verify_spectral_floor,
)

GAUSS = parse_poly("x^2+1")
SL2 = OrbitModel(OrbitKind.SL2)
TORUS = OrbitModel(OrbitKind.MULTIPLICATIVE)


class TestPickLocal:
    def test_zero_seed_picks_radius4(self):
        choice = pick_local(5, Fraction(0))
        assert choice.j == 2 and choice.ell == 4
        assert choice.lam == -30
        assert choice.phase == -1
        assert 30 >= 0.5 * math.sqrt(750)
        assert choice.guarantee_met

    def test_trivial_spectrum_picks_radius2(self):
        for p in (2, 5, 11):
            choice = pick_local(p, Fraction(p * (p + 1)))
            assert choice.j == 1 and choice.ell == 2
            assert choice.phase == 1
            assert choice.guarantee_met

    def test_support_size(self):
        assert pick_local(5, Fraction(0)).support_size() == 750
        assert pick_local(5, Fraction(150)).support_size() == 30

    @given(st.sampled_from(primes_in(2, 2000)), st.integers(-499, 499))
    @settings(max_examples=200, deadline=None)
    def test_radius4_eigenvalue_matches_recursion(self, p, k):
        # a tempered draw k p / 1000 with |k| < 500 is below sqrt(p(p+1)) / 2
        lam = Fraction(k * p, 1000)
        choice = pick_local(p, lam)
        assert choice.j == 2
        assert choice.lam == hecke.eigenvalue_sequence(p, lam, 2).value(2)


def fraction_pick_local(p, lambda_p):
    """pick_local as every eigenvalue and comparison a Fraction: the oracle."""
    def at_least_threshold(lam, bound):
        return lam * lam >= PICK_THRESHOLD ** 2 * bound

    lambda_p = Fraction(lambda_p)
    if at_least_threshold(lambda_p, tree.sphere_size(p, 2)):
        lam, j, met = lambda_p, 1, True
    else:
        lam = lambda_p * lambda_p - (p - 1) * lambda_p - p * (p + 1)
        j, met = 2, at_least_threshold(lam, tree.sphere_size(p, 4))
    return LocalChoice(p, j, 2 * j, lam, -1 if lam < 0 else 1, met)


SMALL_PRIMES = primes_in(2, 2000)
seeds = st.one_of(
    st.integers(),
    st.fractions(),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestPickLocalAgainstFractionOracle:
    @given(st.sampled_from(SMALL_PRIMES), st.integers(-3000, 3000))
    @settings(max_examples=200, deadline=None)
    # either side of the j = 1 cutoff k = 500 sqrt((p + 1)/p)
    @example(2, 612)
    @example(2, 613)
    @example(1999, 500)
    @example(1999, 501)
    def test_tempered_draws(self, p, k):
        got = pick_local(p, Fraction(k * p, 1000))
        assert got == fraction_pick_local(p, Fraction(k * p, 1000))
        assert type(got.lam) is Fraction

    @given(st.sampled_from(SMALL_PRIMES), seeds)
    @settings(max_examples=200, deadline=None)
    @example(3, 0.1)  # read by its binary value, not as 1/10
    @example(5, -2.5)
    def test_arbitrary_seeds(self, p, seed):
        got = pick_local(p, seed)
        assert got == fraction_pick_local(p, seed)
        assert type(got.lam) is Fraction

    def test_j1_choice_keeps_the_seed(self):
        seed = Fraction(7 * 8)
        assert pick_local(7, seed).lam is seed

    @given(st.integers(-50, 2000).filter(lambda n: not is_prime(n)), seeds)
    @settings(max_examples=50, deadline=None)
    def test_non_prime_rejected(self, p, seed):
        with pytest.raises(ValueError):
            fraction_pick_local(p, seed)
        with pytest.raises(ValueError):
            pick_local(p, seed)


class TestExplicitSpectrum:
    def test_missing_prime_names_it(self):
        spectrum = SpectrumModel.explicit({5: Fraction(1), 13: Fraction(2)})
        assert spectrum.lambda_p(13) == 2
        for p in (2, 7, 17):
            with pytest.raises(KeyError, match=f"explicit spectrum has no value at p={p}"):
                spectrum.lambda_p(p)

    @pytest.mark.parametrize("values", [((7, 1), (5, 1)), ((5, 1), (5, 2))],
                             ids=["descending", "repeated"])
    def test_unsorted_values_rejected(self, values):
        # bisection needs the primes strictly ascending
        with pytest.raises(ValueError, match="strictly ascending by prime"):
            SpectrumModel(SpectrumKind.EXPLICIT, values=values)

    def test_window_reads_logarithmically_many_values(self):
        class CountingValues(tuple):
            """A values tuple that counts the entries read from it."""
            reads = 0

            def __getitem__(self, i):
                self.reads += 1
                return tuple.__getitem__(self, i)

            def __iter__(self):
                return (self[i] for i in range(len(self)))

        Q = 3200
        primes = split_primes_in(GAUSS, Q, 2 * Q)
        values = CountingValues(sorted((p, Fraction(-p, 2)) for p in primes))
        spectrum = SpectrumModel(SpectrumKind.EXPLICIT, values=values)
        values.reads = 0
        _, report = build_amplifier(Q, GAUSS, spectrum, SL2)
        assert report == build_amplifier(Q, GAUSS, explicit_half(Q), SL2)[1]
        n = len(primes)
        # a binary search and the entry it finds per prime; a dict rebuilt
        # per prime would read n^2
        assert n > 100 and values.reads <= n * (n.bit_length() + 3)


class TestDichotomyConstant:
    @pytest.mark.parametrize("p", [2, 3])
    def test_small_primes_certified_at_half(self, p):
        assert dichotomy_constant_at_least(p, Fraction(1, 2))
        assert dichotomy_constant(p) >= 0.5

    def test_sharp_constant_certifies_everywhere(self):
        # sqrt(2) - 1 is the asymptotic optimum; 2/5 is safely below it
        for p in (2, 3, 5, 7, 13):
            assert dichotomy_constant_at_least(p, Fraction(2, 5)), p

    def test_grid_minimum_matches_direct_evaluation(self):
        p, step = 3, 3 / 100
        best = min(
            max(abs(k * step) / math.sqrt(p * (p + 1)),
                abs((k * step) ** 2 - (p - 1) * (k * step) - p * (p + 1))
                / math.sqrt(p ** 3 * (p + 1)))
            for k in range(-100 * (p + 1), 100 * (p + 1) + 1)
        )
        # both terms have slope < 1 near the minimiser, so the nearest
        # grid point is within step / 2 of c_p
        assert dichotomy_constant(p) <= best <= dichotomy_constant(p) + step / 2

    def test_decreases_to_sqrt2_minus_1(self):
        values = [dichotomy_constant(p) for p in primes_in(2, 1000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > math.sqrt(2) - 1 > values[-1] - 1e-3

    def test_exact_comparison_agrees_with_float(self):
        for p in primes_in(2, 200):
            for k in range(-5, 106):
                t = Fraction(k, 100)
                assert dichotomy_constant_at_least(p, t) == (dichotomy_constant(p) >= t), (p, t)

    @pytest.mark.parametrize("p", [-3, 0, 1, 4, 91])
    def test_non_prime_rejected(self, p):
        with pytest.raises(ValueError):
            dichotomy_constant(p)
        with pytest.raises(ValueError):
            dichotomy_constant_at_least(p, Fraction(1, 2))


class TestBuildAmplifier:
    def test_trivial_spectrum_q50(self, materialise):
        kept, report = build_amplifier(50, GAUSS, SpectrumModel.trivial(), SL2)
        assert report.primes_used == [53, 61, 73, 89, 97]
        s = sum(p * (p + 1) for p in report.primes_used)
        assert report.tau1_at_identity == s
        assert report.c_tau == s
        assert report.Lambda == s * s - s
        assert report.ell == 2
        assert report.intersection_count == 0
        assert report.ratio_intersections == 0
        assert report.norm_inf == max(2, max(p - 1 for p in report.primes_used))
        assert report.all_pass()
        _, tau = materialise(kept)
        assert identity_value(tau) == 0

    def test_single_prime_expansion(self):
        # degenerate one-prime window, assembled directly
        p = 13
        h = hecke.basic(p, 1)
        tau = subtract_identity(hecke.global_assemble({p: (h, 1)}))
        lam = Fraction(50)
        spectra = {p: hecke.eigenvalue_sequence(p, lam, 4)}
        assert spectral_value(tau, spectra) == lam * lam - tree.sphere_size(p, 2)

    def test_exactness_identity(self):
        _, report = build_amplifier(50, GAUSS, SpectrumModel.tempered(42), SL2)
        lam_sum_sq = report.Lambda + report.c_tau
        assert lam_sum_sq >= 0
        # exact because tempered draws are rational
        assert isinstance(report.Lambda, Fraction)

    def test_q_floor(self):
        with pytest.raises(AmplifierError):
            build_amplifier(5, GAUSS, SpectrumModel.trivial(), SL2)

    def test_too_few_split_primes(self):
        # x^2-2 splits at p = 17 only inside [11, 22]
        with pytest.raises(AmplifierError):
            build_amplifier(11, parse_poly("x^2-2"), SpectrumModel.trivial(), SL2)

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count pick_local, hecke.convolve, hecke.basic and every LocalHeckeElement built."""
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(amplifier, "pick_local", counting("pick_local", amplifier.pick_local))
        for name in ("convolve", "basic"):
            monkeypatch.setattr(hecke, name, counting(name, getattr(hecke, name)))
        monkeypatch.setattr(hecke.LocalHeckeElement, "__init__",
                            counting("LocalHeckeElement", hecke.LocalHeckeElement.__init__))
        return calls

    @pytest.mark.parametrize("spectrum", ["trivial", "tempered42", "explicit-half"])
    def test_one_pick_per_split_prime_and_no_hecke_element(self, spectrum, calls):
        Q = 800
        build_amplifier(Q, GAUSS, ORACLE_SPECTRA[spectrum](Q), TORUS)
        assert calls == {"pick_local": len(split_primes_in(GAUSS, Q, 2 * Q))}

    @pytest.mark.parametrize("spectrum", ["trivial", "tempered42"])
    def test_sweep_builds_no_hecke_element(self, spectrum, calls):
        Qs = [400 * 2 ** k for k in range(6)]
        scaling_sweep(Qs, GAUSS, ORACLE_SPECTRA[spectrum](Qs[0]), TORUS)
        assert calls == {"pick_local": sum(len(split_primes_in(GAUSS, Q, 2 * Q)) for Q in Qs)}

    def test_negative_lambda_reported_not_raised(self):
        # adversarial explicit spectrum: every seed sits just under the
        # radius-2 cutoff, so the radius-4 eigenvalues stay near -p^2/4
        # and the main term loses to the identity mass
        primes = [53, 61, 73, 89, 97]
        spectrum = SpectrumModel.explicit({p: Fraction(-p, 2) for p in primes})
        _, report = build_amplifier(50, GAUSS, spectrum, SL2)
        assert not report.verdicts["lambda_positive"]
        assert report.ratio_positivity == float("inf")


class TestSpectralFloor:
    @pytest.fixture
    def build(self, materialise):
        kept, report = build_amplifier(50, GAUSS, SpectrumModel.trivial(), SL2)
        _, tau = materialise(kept)
        return tau, report

    def test_floor_holds_on_random_systems(self, build):
        tau, report = build
        assert verify_spectral_floor(tau, report.c_tau, trials=100, seed=7)

    def test_floor_attained_at_zero_system(self, build):
        tau, report = build
        spectra = {p: hecke.eigenvalue_sequence(p, Fraction(0), 4)
                   for p in support_primes(tau)}
        assert spectral_value(tau, spectra) == -report.c_tau

    def test_amplified_spectrum_gives_lambda(self, build):
        tau, report = build
        spectra = {p: hecke.eigenvalue_sequence(p, Fraction(p * (p + 1)), 4)
                   for p in support_primes(tau)}
        assert spectral_value(tau, spectra) == report.Lambda
        assert report.Lambda > 0 >= -report.c_tau


def explicit_half(Q):
    """Seeds -p/2, just under the radius-2 cutoff: every prime takes j = 2."""
    return SpectrumModel.explicit({p: Fraction(-p, 2) for p in split_primes_in(GAUSS, Q, 2 * Q)})


ORACLE_SPECTRA = {
    "trivial": lambda Q: SpectrumModel.trivial(),
    "tempered42": lambda Q: SpectrumModel.tempered(42),
    "tempered7": lambda Q: SpectrumModel.tempered(7),
    "explicit-half": explicit_half,
}
ORACLE_ORBITS = {
    "sl2": SL2,
    "torus": TORUS,
    "torus-index3": OrbitModel(OrbitKind.MULTIPLICATIVE, 3),
}


def materialised_report(kept, Q, orbit, materialise):
    """The report as the expanded tau gives it, one support point at a time."""
    t1, tau = materialise(kept)
    tau1_at_identity = identity_value(t1)
    lam_sum = sum(abs(c.lam) for c in kept)
    Lambda = lam_sum * lam_sum - tau1_at_identity
    ninf = hecke.norm_inf(tau)
    intersections = orbits.count_global_intersections(orbit, tau)
    n = len(kept)
    squares = [hecke.convolve(h, h) for h in (hecke.basic(c.prime, c.j) for c in kept)]
    per_prime_ninf = max(2 if n >= 2 else 0,
                         max(abs(coeff) for s in squares for r, coeff in s.coeffs if r > 0))
    if Lambda > 0:
        ratios = (float(ninf) * intersections / float(Lambda), tau1_at_identity / float(Lambda))
    else:
        ratios = (float("inf"), float("inf"))
    return AmplifierReport(
        Q=Q,
        ell=kept[0].ell,
        primes_used=[c.prime for c in kept],
        Lambda=Lambda,
        tau1_at_identity=tau1_at_identity,
        c_tau=tau1_at_identity,
        norm_inf=ninf,
        intersection_count=intersections,
        ratio_intersections=ratios[0],
        ratio_positivity=ratios[1],
        verdicts={
            "lambda_positive": Lambda > 0,
            "identity_removed": identity_value(tau) == 0,
            "norm_inf_decomposition": ninf == per_prime_ninf,
            "intersection_bound": intersections <= 4 * orbit.index_multiplier * n * n,
        },
    )


class TestClosedFormAgainstMaterialised:
    @pytest.mark.parametrize("orbit", ORACLE_ORBITS)
    @pytest.mark.parametrize("spectrum", ORACLE_SPECTRA)
    @pytest.mark.parametrize("Q", [50, 200, 800])
    def test_report_matches_expanded_tau(self, Q, spectrum, orbit, materialise):
        model = ORACLE_ORBITS[orbit]
        kept, report = build_amplifier(Q, GAUSS, ORACLE_SPECTRA[spectrum](Q), model)
        assert report == materialised_report(kept, Q, model, materialise)

    @pytest.mark.parametrize("orbit", ORACLE_ORBITS)
    def test_one_prime_window(self, orbit, materialise):
        # [11, 22] holds the split primes 13 and 17; one picks j = 1 and
        # the other j = 2, so the tie keeps only p = 13 and tau has no
        # cross terms
        spectrum = SpectrumModel.explicit({13: Fraction(13 * 14), 17: Fraction(0)})
        model = ORACLE_ORBITS[orbit]
        kept, report = build_amplifier(11, GAUSS, spectrum, model)
        assert report.primes_used == [13]
        assert report == materialised_report(kept, 11, model, materialise)

    def test_sweep_never_expands_tau(self, monkeypatch, tmp_path):
        def expanded(*args):
            raise AssertionError("the report must not expand tau")
        for name in ("global_assemble", "norm_inf"):
            monkeypatch.setattr(hecke, name, expanded)
        monkeypatch.setattr(hecke.GlobalHeckeElement, "__init__", expanded)
        monkeypatch.setattr(orbits, "count_global_intersections", expanded)
        Qs = [400 * 2 ** k for k in range(6)]
        for spectrum, orbit in ((SpectrumModel.trivial(), SL2),
                                (SpectrumModel.tempered(42), TORUS)):
            reports = scaling_sweep(Qs, GAUSS, spectrum, orbit)
            assert [r.Q for r in reports] == Qs
            assert all(r.all_pass() for r in reports)
        out = str(tmp_path / "report.json")
        for flags in (["--spectrum", "trivial", "--orbit", "sl2"],
                      ["--spectrum", "tempered", "--seed", "42", "--orbit", "torus"]):
            assert cli_main(["amplifier", "--Q", "50,100,200,400", *flags, "--out", out]) == 0


@pytest.mark.parametrize("ell", [2, 4])
def test_local_square_matches_convolve(ell):
    for p in primes_in(2, 100):
        h = hecke.basic(p, ell // 2)
        square = hecke.convolve(h, h)
        assert square.max_radius() == 2 * ell
        assert amplifier._local_square(p, ell) == [square[r] for r in range(0, 2 * ell + 1, 2)]


class TestScalingSweep:
    def test_positivity_ratio_decreasing_trivial(self):
        reports = scaling_sweep([50, 100, 200], GAUSS, SpectrumModel.trivial(), SL2)
        ratios = [r.ratio_positivity for r in reports]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[0] <= 1

    def test_norm_inf_scaled_bounded(self):
        reports = scaling_sweep([50, 100, 200], GAUSS, SpectrumModel.trivial(), SL2)
        assert all(1 <= r.norm_inf_scaled <= 2 for r in reports)

    def test_tempered_lambda_positive(self):
        reports = scaling_sweep([50, 100], GAUSS, SpectrumModel.tempered(42), TORUS)
        assert all(r.verdicts["lambda_positive"] for r in reports)
        assert all(r.intersection_count > 0 for r in reports)

    @pytest.mark.parametrize("spectrum,orbit,grows", [
        (SpectrumModel.tempered(42), TORUS, True),
        (SpectrumModel.trivial(), SL2, False),
    ], ids=["tempered-grows", "trivial-falls"])
    def test_positivity_scaled_is_not_flat(self, spectrum, orbit, grows):
        # the normaliser Q^(1+ell/2)/log Q over-corrects by Q^(ell/2) on a
        # tempered spectrum and under-corrects by 1/Q on the trivial one
        values = [r.positivity_scaled
                  for r in scaling_sweep([50, 100, 200, 400], GAUSS, spectrum, orbit)]
        assert values == sorted(values, reverse=not grows)
        assert len(set(values)) == len(values)

    def test_unsorted_rejected(self):
        with pytest.raises(AmplifierError):
            scaling_sweep([100, 50], GAUSS, SpectrumModel.trivial(), SL2)

    def test_duplicate_q_rejected(self):
        # a repeated Q would give two results but one set of Q-keyed verdicts
        with pytest.raises(AmplifierError, match="strictly ascending"):
            scaling_sweep([50, 100, 100], GAUSS, SpectrumModel.trivial(), SL2)

    @pytest.mark.slow
    def test_tempered_bands_hold_to_q_409600(self):
        # the criterion-5d factor-4 bands, over Q = 50 ... 50 * 2^13
        reports = scaling_sweep([50 * 2 ** k for k in range(14)], GAUSS,
                                SpectrumModel.tempered(42), TORUS)
        lam = [r.lambda_scaled for r in reports]
        ninf = [r.norm_inf_scaled for r in reports]
        assert max(lam) / min(lam) <= 4, lam
        assert max(ninf) / min(ninf) <= 4, ninf
