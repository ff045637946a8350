import math
import random
import re
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from treeamp import _primes, amplifier, hecke, tree
from treeamp.amplifier import (
    PICK_THRESHOLD,
    AmplifierError,
    AmplifierReport,
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
    FixedSpectrum,
    count_expanded_intersections,
    identity_value,
    spectral_value,
    subtract_identity,
    support_primes,
    verify_spectral_floor,
)

GAUSS = parse_poly("x^2+1")
SL2 = OrbitModel(OrbitKind.SL2)
TORUS = OrbitModel(OrbitKind.MULTIPLICATIVE)


def oracle_draw(seed, p):
    """The tempered draw as SpectrumModel documents it: a fresh generator per (seed, p)."""
    return Fraction(random.Random(f"{seed}:{p}").randint(-3000, 3000) * p, 1000)


def one_seed(spectrum, p):
    """The seed eigenvalue of one prime, drawn alone, as a Fraction."""
    return Fraction(*spectrum.seeds([p])[0])


class TestTemperedDraw:
    @given(st.integers(-2 ** 80, 2 ** 80), st.sampled_from(primes_in(2, 10 ** 6)))
    @settings(max_examples=300, deadline=None)
    # the first 13-bit output is >= 6001, so the rejection loop draws again
    @example(-7, 5)
    @example(0, 11)
    @example(0, 13)  # the second output is rejected too
    @example(2 ** 64 + 1, 2)
    @example(2 ** 64 + 1, 3)
    @example(0, 999983)
    def test_equals_a_fresh_generator(self, seed, p):
        assert one_seed(SpectrumModel.tempered(seed), p) == oracle_draw(seed, p)

    @given(st.integers(-2 ** 80, 2 ** 80),
           st.lists(st.sampled_from(primes_in(2, 10 ** 6)), max_size=20))
    @settings(max_examples=100, deadline=None)
    @example(0, [11, 13, 11])
    def test_seeds_are_the_draws(self, seed, primes):
        spectrum = SpectrumModel.tempered(seed)
        pairs = spectrum.seeds(primes)
        assert all(type(n) is int and type(d) is int and d > 0 for n, d in pairs)
        assert [Fraction(n, d) for n, d in pairs] == [one_seed(spectrum, p) for p in primes] \
            == [oracle_draw(seed, p) for p in primes]

    def test_trivial_seeds(self):
        spectrum, primes = SpectrumModel.trivial(), primes_in(2, 100)
        assert spectrum.seeds(primes) == [(p * (p + 1), 1) for p in primes]
        assert [one_seed(spectrum, p) for p in primes] == [Fraction(p * (p + 1)) for p in primes]

    def test_concurrent_threads_draw_the_serial_values(self):
        primes = primes_in(2, 20000)
        spectrum = SpectrumModel.tempered(42)
        serial = [oracle_draw(42, p) for p in primes]
        names = "abcd"  # more threads than cores
        start, got = threading.Barrier(len(names)), {}

        def draw(name):
            start.wait(timeout=60)
            got[name] = [one_seed(spectrum, p) for p in primes]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(name,)) for name in names]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == {name: serial for name in names}

    def test_sweep_constructs_no_generator(self, monkeypatch):
        built = []

        class CountingRandom(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", CountingRandom)
        reports = scaling_sweep([50, 100, 200], GAUSS, SpectrumModel.tempered(42), TORUS)
        assert len(reports) == 3 and built == []


class TestSeedIsAnInteger:
    @pytest.mark.parametrize("seed", [1.0, "1", Fraction(1), None], ids=repr)
    def test_non_integer_refused(self, seed):
        with pytest.raises(ValueError,
                           match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
            SpectrumModel.tempered(seed)

    def test_bool_seed_is_its_integer(self):
        # equal models must draw alike, and the draw formats the seed
        flag, one = SpectrumModel.tempered(True), SpectrumModel.tempered(1)
        assert flag == one and hash(flag) == hash(one) and type(flag.seed) is int
        primes = primes_in(2, 200)
        assert flag.seeds(primes) == one.seeds(primes)


class TestNonFiniteSeedRefused:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=repr)
    @pytest.mark.parametrize("call", [
        lambda value: pick_local(5, value),
        lambda value: hecke.eigenvalue_sequence(5, value, 3),
        lambda value: dichotomy_constant_at_least(5, value),
    ], ids=["pick_local", "eigenvalue_sequence", "dichotomy_constant_at_least"])
    def test_value_error_names_the_value(self, call, value):
        with pytest.raises(ValueError, match=f"got {value!r}$"):
            call(value)


class TestPickLocal:
    def test_zero_seed_picks_radius4(self):
        j, num, den, met = pick_local(5, Fraction(0))
        assert j == 2
        assert Fraction(num, den) == -30
        assert num < 0  # the phase is -1
        assert 30 >= 0.5 * math.sqrt(750)
        assert met

    def test_trivial_spectrum_picks_radius2(self):
        for p in (2, 5, 11):
            j, num, den, met = pick_local(p, Fraction(p * (p + 1)))
            assert j == 1
            assert num > 0  # the phase is +1
            assert met

    def test_support_size(self):
        assert tree.sphere_size(5, 2 * pick_local(5, Fraction(0))[0]) == 750
        assert tree.sphere_size(5, 2 * pick_local(5, Fraction(150))[0]) == 30

    @given(st.sampled_from(primes_in(2, 2000)), st.integers(-499, 499))
    @settings(max_examples=200, deadline=None)
    def test_radius4_eigenvalue_matches_recursion(self, p, k):
        # a tempered draw k p / 1000 with |k| < 500 is below sqrt(p(p+1)) / 2
        lam = Fraction(k * p, 1000)
        j, num, den, _ = pick_local(p, lam)
        assert j == 2
        assert Fraction(num, den) == hecke.eigenvalue_sequence(p, lam, 2).value(2)


def fraction_pick_local(p, lambda_p):
    """pick_local as every eigenvalue and comparison a Fraction, giving
    (j, eigenvalue, guarantee met): the oracle."""
    def at_least_threshold(lam, bound):
        return lam * lam >= PICK_THRESHOLD ** 2 * bound

    lambda_p = Fraction(lambda_p)
    if at_least_threshold(lambda_p, tree.sphere_size(p, 2)):
        lam, j, met = lambda_p, 1, True
    else:
        lam = lambda_p * lambda_p - (p - 1) * lambda_p - p * (p + 1)
        j, met = 2, at_least_threshold(lam, tree.sphere_size(p, 4))
    return j, lam, met


def as_fraction_pick(pick):
    """A (j, num, den, met) pick in fraction_pick_local's terms, once its
    numerator and denominator are checked to be integers, the latter > 0."""
    j, num, den, met = pick
    assert type(num) is int and type(den) is int and den > 0
    return j, Fraction(num, den), met


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
        assert as_fraction_pick(got) == fraction_pick_local(p, Fraction(k * p, 1000))

    @given(st.sampled_from(SMALL_PRIMES), seeds)
    @settings(max_examples=200, deadline=None)
    @example(3, 0.1)  # read by its binary value, not as 1/10
    @example(5, -2.5)
    def test_arbitrary_seeds(self, p, seed):
        got = pick_local(p, seed)
        assert as_fraction_pick(got) == fraction_pick_local(p, seed)

    @given(st.sampled_from(SMALL_PRIMES), st.fractions(), st.integers(1, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    # tempered draws arrive as (k p, 1000), unreduced, either side of the cutoff
    @example(2, Fraction(612 * 2, 1000), 8)
    @example(2, Fraction(613 * 2, 1000), 2)
    @example(1999, Fraction(500 * 1999, 1000), 2)
    def test_pick_on_unreduced_seeds(self, p, seed, k):
        got = amplifier._pick(p, k * seed.numerator, k * seed.denominator)
        assert as_fraction_pick(got) == fraction_pick_local(p, seed)

    def test_j1_choice_keeps_the_seed(self):
        seed = Fraction(113, 2)
        assert pick_local(7, seed) == (1, seed.numerator, seed.denominator, True)

    @given(st.integers(-50, 2000).filter(lambda n: not is_prime(n)), seeds)
    @settings(max_examples=50, deadline=None)
    def test_non_prime_rejected(self, p, seed):
        with pytest.raises(ValueError):
            fraction_pick_local(p, seed)
        with pytest.raises(ValueError):
            pick_local(p, seed)


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
        picks, report = build_amplifier(50, GAUSS, SpectrumModel.trivial(), SL2)
        assert report.primes_used == (53, 61, 73, 89, 97)
        s = sum(p * (p + 1) for p in report.primes_used)
        assert report.tau1_at_identity == s
        assert report.c_tau == s
        assert report.Lambda == s * s - s
        assert report.ell == 2
        assert report.intersection_count == 0
        assert report.ratio_intersections == 0
        assert report.norm_inf == max(2, max(p - 1 for p in report.primes_used))
        assert all(report.verdicts.values())
        _, tau = materialise(picks)
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
        """Count _pick, hecke.convolve, hecke.basic and every LocalHeckeElement built."""
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(amplifier, "_pick", counting("_pick", amplifier._pick))
        for name in ("convolve", "basic"):
            monkeypatch.setattr(hecke, name, counting(name, getattr(hecke, name)))
        monkeypatch.setattr(hecke.LocalHeckeElement, "__init__",
                            counting("LocalHeckeElement", hecke.LocalHeckeElement.__init__))
        return calls

    @pytest.mark.parametrize("spectrum", ["trivial", "tempered42", "explicit-half"])
    def test_one_pick_per_split_prime_and_no_hecke_element(self, spectrum, calls):
        Q = 800
        picks, _ = build_amplifier(Q, GAUSS, ORACLE_SPECTRA[spectrum](Q), TORUS)
        assert calls == {"_pick": len(split_primes_in(GAUSS, Q, 2 * Q))}
        assert all(type(k) is int for pick in picks for k in pick[:4])

    @pytest.mark.parametrize("spectrum", ["trivial", "tempered42"])
    def test_sweep_builds_no_hecke_element(self, spectrum, calls):
        Qs = [400 * 2 ** k for k in range(6)]
        scaling_sweep(Qs, GAUSS, ORACLE_SPECTRA[spectrum](Qs[0]), TORUS)
        assert calls == {"_pick": sum(len(split_primes_in(GAUSS, Q, 2 * Q)) for Q in Qs)}

    def test_sweep_makes_no_fraction_but_lambda(self, monkeypatch):
        made = Counter()
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made[cls] += 1
            return real_new(cls, *args, **kwargs)

        Qs = [400, 800]
        expected = scaling_sweep(Qs, GAUSS, SpectrumModel.tempered(42), TORUS)
        monkeypatch.setattr(Fraction, "__new__", counting_new)
        reports = scaling_sweep(Qs, GAUSS, SpectrumModel.tempered(42), TORUS)
        monkeypatch.undo()
        assert reports == expected
        assert made == {Fraction: len(Qs)}

    def test_sweep_checks_no_prime_and_reads_each_square_once(self):
        # the sieve proved every prime, so a window re-checks none, and each
        # kept prime's square is ell + 1 kernel lookups, nothing more
        def lookups():
            return [info.hits + info.misses for info in (
                _primes._check_prime.cache_info(), tree.convolution_count.cache_info())]

        before = lookups()
        reports = scaling_sweep([400, 800, 1600], GAUSS, SpectrumModel.tempered(42), TORUS)
        after = lookups()
        assert after[0] - before[0] == 0
        assert after[1] - before[1] == sum((r.ell + 1) * len(r.primes_used) for r in reports)

    def test_fixed_spectrum_refuses_a_missing_prime(self):
        spectrum = FixedSpectrum({13: Fraction(1, 2)})
        assert spectrum.seeds([13]) == [(1, 2)] and spectrum.lambda_p(13) == Fraction(1, 2)
        for call in (lambda: spectrum.seeds([13, 17]), lambda: spectrum.lambda_p(17),
                     lambda: build_amplifier(11, GAUSS, spectrum, SL2)):
            with pytest.raises(KeyError, match="17"):
                call()

    def test_negative_lambda_reported_not_raised(self):
        # adversarial fixed spectrum: every seed sits just under the
        # radius-2 cutoff, so the radius-4 eigenvalues stay near -p^2/4
        # and the main term loses to the identity mass
        primes = [53, 61, 73, 89, 97]
        spectrum = FixedSpectrum({p: Fraction(-p, 2) for p in primes})
        _, report = build_amplifier(50, GAUSS, spectrum, SL2)
        assert not report.verdicts["lambda_positive"]
        assert report.ratio_positivity == float("inf")

    def test_lambda_just_above_0_is_positive(self):
        # both seeds clear the radius-2 cutoff: (10 + 121/10)^2 - 13*14 - 17*18
        spectrum = FixedSpectrum({13: 10, 17: Fraction(121, 10)})
        _, report = build_amplifier(11, GAUSS, spectrum, SL2)
        assert report.Lambda == Fraction(41, 100)
        assert report.verdicts["lambda_positive"]


class TestSpectralFloor:
    @pytest.fixture
    def build(self, materialise):
        picks, report = build_amplifier(50, GAUSS, SpectrumModel.trivial(), SL2)
        _, tau = materialise(picks)
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
    return FixedSpectrum({p: Fraction(-p, 2) for p in split_primes_in(GAUSS, Q, 2 * Q)})


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


def materialised_report(picks, Q, orbit, materialise):
    """The report as the expanded tau gives it, one support point at a time."""
    t1, tau = materialise(picks)
    tau1_at_identity = identity_value(t1)
    lam_sum = sum(abs(Fraction(num, den)) for _, _, num, den, _ in picks)
    Lambda = lam_sum * lam_sum - tau1_at_identity
    ninf = hecke.norm_inf(tau)
    intersections = count_expanded_intersections(orbit, tau)
    n, ell, logq = len(picks), 2 * picks[0][1], math.log(Q)
    squares = [hecke.convolve(h, h) for h in (hecke.basic(p, j) for p, j, *_ in picks)]
    per_prime_ninf = max(2 if n >= 2 else 0,
                         max(abs(coeff) for s in squares for r, coeff in s.coeffs if r > 0))
    if Lambda > 0:
        ratios = (float(ninf) * intersections / float(Lambda), tau1_at_identity / float(Lambda))
    else:
        ratios = (float("inf"), float("inf"))
    return AmplifierReport(
        Q=Q,
        ell=ell,
        primes_used=[p for p, *_ in picks],
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
            "intersection_bound": intersections <= 2 * orbit.index_multiplier * n * (n + ell - 1),
        },
        lambda_scaled=float(Lambda) * logq * logq / Q ** (2 + ell),
        norm_inf_scaled=ninf / Q ** (ell - 1),
        positivity_scaled=ratios[1] * Q ** (1 + ell / 2) / logq,
    )


class TestClosedFormAgainstMaterialised:
    @pytest.mark.parametrize("orbit", ORACLE_ORBITS)
    @pytest.mark.parametrize("spectrum", ORACLE_SPECTRA)
    @pytest.mark.parametrize("Q", [50, 200, 800])
    def test_report_matches_expanded_tau(self, Q, spectrum, orbit, materialise):
        model = ORACLE_ORBITS[orbit]
        picks, report = build_amplifier(Q, GAUSS, ORACLE_SPECTRA[spectrum](Q), model)
        assert report == materialised_report(picks, Q, model, materialise)

    @pytest.mark.parametrize("orbit", ORACLE_ORBITS)
    def test_one_prime_window(self, orbit, materialise):
        # [11, 22] holds the split primes 13 and 17; one picks j = 1 and
        # the other j = 2, so the tie keeps only p = 13 and tau has no
        # cross terms
        spectrum = FixedSpectrum({13: Fraction(13 * 14), 17: Fraction(0)})
        model = ORACLE_ORBITS[orbit]
        picks, report = build_amplifier(11, GAUSS, spectrum, model)
        assert report.primes_used == (13,)
        assert report == materialised_report(picks, 11, model, materialise)

    def test_two_radius_4_primes_meet_the_torus_within_the_bound(self, materialise):
        # 29 keeps its seed at j = 1 and 37, 41 drop to j = 2, so n = 2 at
        # ell = 4: the torus meets 2 n (n + ell - 1) = 20 points, above 4 n^2
        spectrum = FixedSpectrum({29: 870, 37: 0, 41: 0})
        picks, report = build_amplifier(25, GAUSS, spectrum, TORUS)
        assert (report.primes_used, report.ell, report.intersection_count) == ((37, 41), 4, 20)
        assert report.verdicts["intersection_bound"]
        assert report == materialised_report(picks, 25, TORUS, materialise)

    def test_lambda_exactly_0_is_not_positive(self, materialise):
        # x splits everywhere; 23 and 37 drop to j = 2, and the kept
        # 29, 31, 41, 43 have tau1(1) = 5476 = 74^2 = (15 + 16 + 21 + 22)^2
        spectrum = FixedSpectrum({23: 0, 29: 15, 31: 16, 37: 0, 41: 21, 43: 22})
        picks, report = build_amplifier(22, parse_poly("x"), spectrum, TORUS)
        assert (report.primes_used, report.tau1_at_identity) == ((29, 31, 41, 43), 74 ** 2)
        assert report.Lambda == 0 and not report.verdicts["lambda_positive"]
        assert report.ratio_intersections == report.ratio_positivity == math.inf
        assert report == materialised_report(picks, 22, TORUS, materialise)

    def test_sweep_never_expands_tau(self, monkeypatch, tmp_path):
        def expanded(*args):
            raise AssertionError("the report must not expand tau")
        for name in ("global_assemble", "norm_inf"):
            monkeypatch.setattr(hecke, name, expanded)
        monkeypatch.setattr(hecke.GlobalHeckeElement, "__init__", expanded)
        Qs = [400 * 2 ** k for k in range(6)]
        for spectrum, orbit in ((SpectrumModel.trivial(), SL2),
                                (SpectrumModel.tempered(42), TORUS)):
            reports = scaling_sweep(Qs, GAUSS, spectrum, orbit)
            assert [r.Q for r in reports] == Qs
            assert all(ok for r in reports for ok in r.verdicts.values())
        out = str(tmp_path / "report.json")
        for flags in (["--spectrum", "trivial", "--orbit", "sl2"],
                      ["--spectrum", "tempered", "--seed", "42", "--orbit", "torus"]):
            assert cli_main(["amplifier", "--Q", "50,100,200,400", *flags, "--out", out]) == 0


@pytest.mark.parametrize("ell", [2, 4])
def test_local_square_matches_convolve(ell):
    """The square build_amplifier reads off the kernel, N(ell, ell, r) at index r/2, is h * h."""
    radii = range(0, 2 * ell + 1, 2)
    for p in primes_in(2, 100):
        h = hecke.basic(p, ell // 2)
        square = hecke.convolve(h, h)
        assert square.max_radius() == 2 * ell
        coeffs = dict(square.coeffs)
        read = [tree._convolution_count(p, ell, ell, r) for r in radii]
        assert read == [coeffs.get(r, 0) for r in radii]


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
