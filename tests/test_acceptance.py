"""Acceptance gate: every release criterion at its stated tolerance.

Each test records one PASS/FAIL line (printed in the terminal summary)
and asserts the criterion.  Criteria are checked against independent
oracles — enumeration on the tree, exhaustive root counting, brute-force
orbit intersection — never against the code under test alone.
"""

import functools
import json
import math
import random
from fractions import Fraction

from treeamp import gaussian, hecke, orbits, splitting, tree
from treeamp.amplifier import (
    SpectrumModel,
    build_amplifier,
    dichotomy_constant,
    dichotomy_constant_at_least,
    scaling_sweep,
)
from treeamp.cli import main as cli_main
from treeamp.orbits import OrbitKind, OrbitModel
from treeamp.splitting import empirical_density, parse_poly, primes_in, splits_completely

from oracles import spectral_value, support_primes, verify_spectral_floor

RESULTS: dict[str, bool] = {}

PRIMES_11 = [2, 3, 5, 7, 11]
GAUSS = parse_poly("x^2+1")
SWEEP_QS = [50, 100, 200, 400]


def record(name: str, ok: bool, detail: str = "") -> None:
    RESULTS[name] = bool(ok)
    assert ok, f"{name}: {detail}" if detail else name


def enumerated_convolution(p: int, j: int) -> dict[int, int]:
    """Count paths o -> z -> w_r with both legs of length 2j, by enumeration."""
    out = {}
    for r in range(0, 4 * j + 1, 2):
        w = tree.TreeVertex(p, (0,) * r)
        count = sum(1 for z in tree.iter_sphere(p, 2 * j)
                    if tree.distance(z, w) == 2 * j)
        if count:
            out[r] = count
    return out


def test_criterion_01_convolution_identities():
    ok = True
    for p in PRIMES_11:
        got2 = dict(hecke.convolve(hecke.basic(p, 1), hecke.basic(p, 1)).coeffs)
        ok &= got2 == {0: p * (p + 1), 2: p - 1, 4: 1}
        ok &= got2 == enumerated_convolution(p, 1)
        got4 = dict(hecke.convolve(hecke.basic(p, 2), hecke.basic(p, 2)).coeffs)
        ok &= got4 == {0: p ** 3 * (p + 1), 2: p * p * (p - 1),
                       4: p * (p - 1), 6: p - 1, 8: 1}
        ok &= got4 == enumerated_convolution(p, 2)
    record("criterion 1: degree-2/4 convolution identities, exact vs enumeration", ok)


def test_criterion_02_sphere_and_mass_laws():
    ok = True
    for p in PRIMES_11:
        for j in range(1, 5):
            ok &= tree.sphere_size(p, 2 * j) == (p + 1) * p ** (2 * j - 1)
        basics = [hecke.identity(p)] + [hecke.basic(p, j) for j in range(1, 5)]
        ok &= all(hecke.total_mass(hecke.convolve(f, g))
                  == hecke.total_mass(f) * hecke.total_mass(g)
                  for f in basics for g in basics)
    record("criterion 2: sphere sizes and mass multiplicativity, exact", ok)


def grid_minimum(p: int) -> float:
    """Float oracle for c_p: the minimum of max(|lam|/sqrt(s1), |lam2|/sqrt(s2))
    over lam = k p / 1000 in [-p(p+1), p(p+1)], with s1 = p(p+1) and
    s2 = p^3 (p+1) the radius-2 and radius-4 support sizes.

    Grid points with |lam| > sqrt(s1) score above 1 on the first term
    alone, so they are skipped once the minimum over the rest is <= 1.
    """
    r1, r2 = math.sqrt(p * (p + 1)), math.sqrt(p ** 3 * (p + 1))
    kmax = math.ceil(1000 * r1 / p)
    best = min(max(abs(lam) / r1, abs(lam * lam - (p - 1) * lam - p * (p + 1)) / r2)
               for lam in (k * p / 1000 for k in range(-kmax, kmax + 1)))
    assert best <= 1
    return best


def test_criterion_03_dichotomy_constant():
    lam2 = hecke.eigenvalue_sequence(5, Fraction(0), 2).value(2)
    spot_ok = lam2 == -30 and abs(30 / math.sqrt(750) - 1.095) < 5e-4
    # 2/5 sits below the sharp uniform constant sqrt(2) - 1 (c_p >= it iff 1 <= 8p)
    primes = primes_in(2, 97)
    uncertified = [p for p in primes if not dichotomy_constant_at_least(p, Fraction(2, 5))]
    grid = {p: grid_minimum(p) for p in primes}
    off_closed_form = {p: g for p, g in grid.items()
                       if not dichotomy_constant(p) <= g <= dichotomy_constant(p) + 1e-3}
    half = Fraction(1, 2)
    exact_at_half = [p for p in primes if dichotomy_constant_at_least(p, half)]
    grid_at_half = [p for p, g in grid.items() if g >= half]
    ok = (spot_ok and not uncertified and not off_closed_form
          and exact_at_half == grid_at_half == [2, 3])
    record("criterion 3: c_p >= 2/5 certified exactly for all p <= 97, "
           "grid minima within 1e-3 of c_p, >= 1/2 exactly for p in {2, 3}", ok,
           f"spot check {spot_ok}; uncertified at 2/5: {uncertified}; "
           f"grid minima off c_p: {off_closed_form}; "
           f"c_p >= 1/2 at {exact_at_half}; grid minimum >= 1/2 at {grid_at_half}")


def test_criterion_04_one_sided_avoidance():
    ok = True
    for p in (2, 3, 5):
        for j in (1, 2, 3):
            sl2 = OrbitModel(OrbitKind.SL2)
            torus = OrbitModel(OrbitKind.MULTIPLICATIVE)
            ok &= orbits.orbit_intersect_one_sided(sl2, p, j) == 0
            ok &= orbits.brute_force_intersect(sl2, p, j) == 0
            ok &= orbits.orbit_intersect_one_sided(torus, p, j) == 2
            ok &= orbits.brute_force_intersect(torus, p, j) == 2
    record("criterion 4: one-sided orbit avoidance vs brute force, exact", ok)


@functools.lru_cache(maxsize=None)
def sweep(spectrum_name: str, orbit_name: str):
    spectrum = SpectrumModel.trivial() if spectrum_name == "trivial" \
        else SpectrumModel.tempered(42)
    kind = OrbitKind.SL2 if orbit_name == "sl2" else OrbitKind.MULTIPLICATIVE
    return scaling_sweep(SWEEP_QS, GAUSS, spectrum, OrbitModel(kind))


def test_criterion_05a_positivity_ratio():
    ok = True
    for name in ("trivial", "tempered"):
        ratios = [r.ratio_positivity for r in sweep(name, "sl2")]
        ok &= ratios[0] <= 1
        ok &= all(a > b for a, b in zip(ratios, ratios[1:]))
    record("criterion 5a: c(tau)/Lambda strictly decreasing, <= 1 at Q=50", ok)


def test_criterion_05b_sl2_intersections():
    ok = all(r.ratio_intersections == 0
             for name in ("trivial", "tempered")
             for r in sweep(name, "sl2"))
    record("criterion 5b: diagonal-orbit intersection ratio identically 0", ok)


def test_criterion_05c_torus_ratio_decreasing():
    ok = True
    for name in ("trivial", "tempered"):
        ratios = [r.ratio_intersections for r in sweep(name, "torus")]
        ok &= all(r > 0 for r in ratios)
        ok &= all(a > b for a, b in zip(ratios, ratios[1:]))
    record("criterion 5c: torus intersection ratio decreasing in Q", ok)


def band_width(values):
    return max(values) / min(values)


def by_q(reports, values):
    return ", ".join(f"Q={r.Q}: {v:.4g}" for r, v in zip(reports, values))


def test_criterion_05d_scaling_bands_trivial():
    reports = sweep("trivial", "sl2")
    # lambda_p = p(p+1) = |support| rather than ~sqrt(|support|), so
    # Lambda ~ Q^(2+2 ell) / log^2 Q instead of the tempered Q^(2+ell)
    lam = [float(r.Lambda) * math.log(r.Q) ** 2 / r.Q ** (2 + 2 * r.ell) for r in reports]
    ninf = [r.norm_inf_scaled for r in reports]
    tempered_norm = [r.lambda_scaled for r in reports]
    lam_ok = band_width(lam) <= 4
    ninf_ok = band_width(ninf) <= 4
    growth_ok = band_width(tempered_norm) > 4 and \
        all(a < b for a, b in zip(tempered_norm, tempered_norm[1:]))
    record("criterion 5d (trivial spectrum): Lambda (Q^(2+2 ell)) and sup-norm "
           "factor-4 bands, tempered normalisation grows",
           lam_ok and ninf_ok and growth_ok,
           f"Lambda log^2 Q / Q^(2+2 ell): {by_q(reports, lam)}; "
           f"sup-norm: {by_q(reports, ninf)}; "
           f"lambda_scaled: {by_q(reports, tempered_norm)}")


def test_criterion_05d_scaling_bands_tempered():
    reports = sweep("tempered", "sl2")
    lam = [r.lambda_scaled for r in reports]
    ninf = [r.norm_inf_scaled for r in reports]
    record("criterion 5d (tempered spectrum): Lambda and sup-norm factor-4 bands",
           band_width(lam) <= 4 and band_width(ninf) <= 4,
           f"lambda_scaled: {by_q(reports, lam)}; sup-norm: {by_q(reports, ninf)}")


def test_criterion_06_spectral_floor(materialise):
    kept, report = build_amplifier(50, GAUSS, SpectrumModel.trivial(),
                                   OrbitModel(OrbitKind.SL2))
    _, tau = materialise(kept)
    floor_ok = verify_spectral_floor(tau, report.c_tau, trials=1000, seed=2024)
    zero = {p: hecke.eigenvalue_sequence(p, Fraction(0), 4) for p in support_primes(tau)}
    equality_ok = spectral_value(tau, zero) == -report.c_tau
    record("criterion 6: spectral floor over 1000 random systems, equality at zero",
           floor_ok and equality_ok)


def test_criterion_07_split_densities():
    d1 = empirical_density(GAUSS, 10 ** 6)
    d2 = empirical_density(parse_poly("x^3-2"), 10 ** 6)
    density_ok = Fraction(48, 100) <= d1 <= Fraction(52, 100) and \
        abs(d2 - Fraction(1, 6)) <= Fraction(2, 100)
    corpus = [parse_poly(t) for t in ("x^2+1", "x^3-2", "x^2-2", "x^4+1")]
    oracle_ok = True
    for f in corpus:
        disc = f.discriminant()
        for p in primes_in(2, 500):
            roots = sum(1 for x in range(p)
                        if sum(c * pow(x, i, p) for i, c in enumerate(f.coeffs)) % p == 0)
            expected = disc % p != 0 and roots == f.degree()
            oracle_ok &= splits_completely(f, p) == expected
    record("criterion 7: splitting densities at 10^6 and root-counting oracle", oracle_ok and density_ok)


def _rand_rat(rng, span=30, den=12):
    return gaussian.GaussRat.make(Fraction(rng.randint(-span, span), rng.randint(1, den)),
                                  Fraction(rng.randint(-span, span), rng.randint(1, den)))


def test_criterion_08_denominator_laws():
    rng = random.Random(2024)
    ok = True
    one, zero = gaussian.GaussRat.make(1), gaussian.GaussRat.make(0)
    for _ in range(1000):
        x, y = _rand_rat(rng), _rand_rat(rng)
        dx, dy = gaussian.denom(x), gaussian.denom(y)
        ok &= gaussian.denom(x + y) <= dx * dy
        ok &= gaussian.denom(x * y) <= dx * dy
        if not x.is_zero():
            ok &= gaussian.product_formula_check(x) == 1
            ok &= dx * x.norm() >= 1
    for _ in range(100):
        m = gaussian.Mat2(tuple(_rand_rat(rng) for _ in range(4)))
        k = gaussian.Mat2.identity()
        for _ in range(4):
            s = gaussian.GaussRat.make(rng.randint(-3, 3), rng.randint(-3, 3))
            shear = gaussian.Mat2((one, s, zero, one)) if rng.random() < 0.5 \
                else gaussian.Mat2((one, zero, s, one))
            k = k * shear
        ok &= gaussian.denom_mat(m * k) == gaussian.denom_mat(m)
        ok &= gaussian.denom_mat(k.inverse()) == gaussian.denom_mat(k)
    record("criterion 8: denominator laws and product formula, 1000 seeded pairs", ok)


def test_criterion_09_commutator_certifier():
    rng = random.Random(99)
    ok = True
    checked = 0
    while checked < 500:
        a = gaussian.Mat2(tuple(_rand_rat(rng, span=8, den=4) for _ in range(4)))
        b = gaussian.Mat2(tuple(_rand_rat(rng, span=8, den=4) for _ in range(4)))
        c = gaussian.commutator(a, b)
        if c.is_zero():
            continue
        checked += 1
        bound = c.max_arch_norm()
        ok &= gaussian.denom_mat(c) * bound >= 1
        ok &= gaussian.certify_commuting(a, b, bound) is gaussian.CommutatorVerdict.NOT_FORCED
    for _ in range(100):
        # a and a polynomial in a always commute
        a = gaussian.Mat2(tuple(_rand_rat(rng, span=5, den=3) for _ in range(4)))
        s = gaussian.GaussRat.make(rng.randint(-3, 3))
        b = a * a + gaussian.Mat2((s, gaussian.GaussRat.make(0),
                                   gaussian.GaussRat.make(0), s))
        verdict = gaussian.certify_commuting(a, b, Fraction(1, 2))
        ok &= verdict in (gaussian.CommutatorVerdict.IS_ZERO,
                          gaussian.CommutatorVerdict.FORCED_ZERO)
    record("criterion 9: commutator certifier never forces a nonzero commutator", ok)


def test_criterion_10_cli_determinism(tmp_path):
    cases = [
        ["verify-hecke", "--primes", "2,3,5", "--max-radius", "4"],
        ["split-density", "--poly", "x^2+1", "--limit", "10000", "--expected", "1/2"],
        ["denom-check", "--samples", "300", "--seed", "11"],
        ["orbit-check", "--orbit", "torus", "--primes", "2,3", "--max-j", "2"],
        ["amplifier", "--Q", "50,100", "--spectrum", "tempered", "--seed", "42"],
    ]
    ok = True
    for i, argv in enumerate(cases):
        a, b = tmp_path / f"{i}a.json", tmp_path / f"{i}b.json"
        code_a = cli_main(argv + ["--out", str(a)])
        code_b = cli_main(argv + ["--out", str(b)])
        ok &= code_a == code_b == 0
        ok &= a.read_bytes() == b.read_bytes()
        json.loads(a.read_bytes())  # well-formed
    record("criterion 10: CLI reports byte-identical across reruns", ok)
