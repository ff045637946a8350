"""Amplifier assembly and its quantitative checks.

Per prime the dichotomy picker chooses the radius-2 or radius-4
operator so the eigenvalue is large against the square root of the
support size.  Across a dyadic window of split primes the chosen
operators are combined into tau1 = (sum zeta_p h_p) * (...)^* and the
identity value is subtracted; the report collects the eigenvalue
Lambda, the sup norm, the spectral defect, and orbit intersection
counts together with the normalized ratios used for trend checks.
Each report value is a closed form in the squares h_p * h_p, read off
tree.convolution_count; hecke.convolve and the expanded tau
(hecke.global_assemble) are the test oracles.
"""

from __future__ import annotations

import enum
import math
import random
import threading
from fractions import Fraction
from numbers import Rational

from . import orbits, splitting, tree
from ._value import Value, exact

__all__ = [
    "PICK_THRESHOLD",
    "SpectrumKind",
    "SpectrumModel",
    "LocalChoice",
    "AmplifierReport",
    "AmplifierError",
    "pick_local",
    "build_amplifier",
    "scaling_sweep",
    "dichotomy_constant",
    "dichotomy_constant_at_least",
]

# Dichotomy constant: |lambda| >= PICK_THRESHOLD * sqrt(support size) for
# the chosen operator.
PICK_THRESHOLD = Fraction(1, 2)


class AmplifierError(ValueError):
    pass


class SpectrumKind(enum.Enum):
    TRIVIAL = "trivial"
    TEMPERED_RANDOM = "tempered"


class _Generator(threading.local):
    def __init__(self):  # one tempered-draw generator per thread, reseeded by each draw
        self.rng = random.Random()


_generator = _Generator()


class SpectrumModel(Value):
    """Synthetic eigenvalue assignment for the radius-2 operators.

    TRIVIAL uses the constant-eigenfunction value p(p+1).  TEMPERED_RANDOM
    draws random.Random(f"{seed}:{p}").randint(-3000, 3000) * p / 1000, a
    value of (seed, p) alone, on one generator per thread reseeded per draw.
    """

    __slots__ = ("kind", "seed")

    def __init__(self, kind: SpectrumKind, seed: int = 0):
        object.__setattr__(self, "kind", SpectrumKind(kind))
        object.__setattr__(self, "seed", seed)

    @staticmethod
    def trivial() -> "SpectrumModel":
        return SpectrumModel(SpectrumKind.TRIVIAL)

    @staticmethod
    def tempered(seed: int) -> "SpectrumModel":
        return SpectrumModel(SpectrumKind.TEMPERED_RANDOM, seed=seed)

    def lambda_p(self, p: int):
        if self.kind is SpectrumKind.TRIVIAL:
            return Fraction(p * (p + 1))
        rng = _generator.rng
        rng.seed(f"{self.seed}:{p}")
        while (r := rng.getrandbits(13)) >= 6001:  # rng.randint(-3000, 3000), minus its calls
            pass
        return Fraction((r - 3000) * p, 1000)  # the step p/1000 keeps the arithmetic exact


class LocalChoice(Value):
    """The operator picked at one prime: j = 1 or 2, support exponent ell = 2j,
    eigenvalue lam, phase the sign making phase * lam >= 0, and guarantee_met
    whether |lam| >= PICK_THRESHOLD * sqrt(support size)."""

    __slots__ = ("prime", "j", "ell", "lam", "phase", "guarantee_met")

    def __init__(self, prime: int, j: int, ell: int, lam: Fraction, phase: int,
                 guarantee_met: bool):
        _set_prime(self, prime)
        _set_j(self, j)
        _set_ell(self, ell)
        _set_lam(self, lam)
        _set_phase(self, phase)
        _set_guarantee_met(self, guarantee_met)

    def support_size(self) -> int:
        return tree.sphere_size(self.prime, 2 * self.j)


_set_prime, _set_j, _set_ell, _set_lam, _set_phase, _set_guarantee_met = (
    getattr(LocalChoice, field).__set__ for field in LocalChoice.__slots__)

# PICK_THRESHOLD = t_num / t_den, squared once for the integer comparison
_T_NUM2 = PICK_THRESHOLD.numerator ** 2
_T_DEN2 = PICK_THRESHOLD.denominator ** 2


def _at_least_threshold(num: int, den: int, bound: int) -> bool:
    """|num / den| >= PICK_THRESHOLD * sqrt(bound), by one integer comparison."""
    return _T_DEN2 * num * num >= _T_NUM2 * bound * den * den


def dichotomy_constant(p: int) -> float:
    """Minimax c_p over seeds lam of max(|lam|/sqrt(p(p+1)), |lam2|/sqrt(p^3(p+1))).

    lam2 = lam^2 - (p-1) lam - p(p+1) is the radius-4 eigenvalue.  The
    supports differ by a factor p^2, so the minimum sits where
    p |lam| = |lam2|, at the negative root lam* of
    lam^2 - (2p-1) lam - p(p+1) = 0.  That gives
    c_p = (sqrt(8p^2+1) - (2p-1)) / (2 sqrt(p(p+1))), which decreases to
    sqrt(2) - 1; the minimiser is lam* = -c_p sqrt(p(p+1)).
    """
    s1 = tree.sphere_size(p, 2)  # p(p+1); rejects a non-prime p
    return (math.sqrt(8 * p * p + 1) - (2 * p - 1)) / (2 * math.sqrt(s1))


def dichotomy_constant_at_least(p: int, t: Rational) -> bool:
    """c_p >= t, by one exact comparison.

    For 0 <= t < 1, c_p >= t iff (2p-1)^2 t^2 <= p(p+1) (1-t^2)^2, since
    c_p sqrt(p(p+1)) is the positive root of u^2 + (2p-1) u - p(p+1).
    """
    s1 = tree.sphere_size(p, 2)  # p(p+1); rejects a non-prime p
    t = exact(t)
    if t <= 0:
        return True
    if t >= 1:
        return False
    return (2 * p - 1) ** 2 * t * t <= s1 * (1 - t * t) ** 2


def pick_local(p: int, lambda_p) -> LocalChoice:
    """Choose between the radius-2 and radius-4 operators.

    The seed is taken exactly, a float by its binary value, and the
    choice is made on its numerator n and denominator d > 0.  Takes j=1
    when |lambda_p| clears PICK_THRESHOLD * sqrt(p(p+1)), decided as
    4 n^2 >= p(p+1) d^2 for the threshold 1/2, and then reuses the seed
    as the eigenvalue.  Else takes j=2 with the radius-4 eigenvalue
    lambda_p^2 - (p-1) lambda_p - p(p+1) = (n^2 - (p-1) n d - p(p+1) d^2) / d^2,
    read off the degree-2 identity T_2 * T_2 = T_4 + (p-1) T_2 +
    p(p+1) T_0 (hecke.eigenvalue_sequence is its test oracle), and
    decides its guarantee by the same integer comparison.  Only the
    j=2 eigenvalue is built as a new Fraction.  The j=2 guarantee is
    recorded rather than asserted: there is a narrow band of seed
    eigenvalues just under the j=1 cutoff where neither normalized
    eigenvalue reaches 1/2.  The per-prime minimax constant
    c_p = dichotomy_constant(p) clears 1/2 only for p in {2, 3}; it
    decreases to sqrt(2) - 1, the sharp uniform constant.
    """
    seed = lambda_p if isinstance(lambda_p, Fraction) else exact(lambda_p)
    n, d = seed.numerator, seed.denominator
    s1 = tree.sphere_size(p, 2)  # p(p+1); rejects a non-prime p
    if _at_least_threshold(n, d, s1):
        return LocalChoice(p, 1, 2, seed, -1 if n < 0 else 1, True)
    d2 = d * d
    num = n * n - (p - 1) * n * d - s1 * d2
    met = _at_least_threshold(num, d2, s1 * p * p)  # sphere_size(p, 4) = p^3 (p+1)
    return LocalChoice(p, 2, 4, Fraction(num, d2), -1 if num < 0 else 1, met)


def _local_square(p: int, ell: int) -> list[int]:
    """h * h for the radius-ell indicator h at p, as N(ell, ell, r) at index r/2."""
    return [tree.convolution_count(p, ell, ell, r) for r in range(0, 2 * ell + 1, 2)]


class AmplifierReport(Value):
    """One amplifier window, unhashable as verdicts is a dict; the CLI reports all but verdicts."""

    __slots__ = ("Q", "ell", "primes_used", "Lambda", "tau1_at_identity", "c_tau", "norm_inf",
                 "intersection_count", "ratio_intersections", "ratio_positivity", "verdicts",
                 "lambda_scaled", "norm_inf_scaled", "positivity_scaled")

    def __init__(self, Q: int, ell: int, primes_used: tuple[int, ...], Lambda: Fraction,
                 tau1_at_identity: int, c_tau: int, norm_inf: int, intersection_count: int,
                 ratio_intersections: float, ratio_positivity: float, verdicts: dict[str, bool],
                 lambda_scaled: float, norm_inf_scaled: float, positivity_scaled: float):
        for name, value in zip(self.__slots__, (
                Q, ell, tuple(primes_used), Lambda, tau1_at_identity, c_tau, norm_inf,
                intersection_count, ratio_intersections, ratio_positivity,
                dict(verdicts), lambda_scaled, norm_inf_scaled, positivity_scaled)):
            object.__setattr__(self, name, value)


def build_amplifier(
    Q: int,
    f: splitting.IntPoly,
    spectrum: SpectrumModel,
    orbit: orbits.OrbitModel,
) -> tuple[list[LocalChoice], AmplifierReport]:
    """Pick the amplifier over split primes in [Q, 2Q] and report on it.

    tau is never expanded: same-prime terms put s_p = h_p * h_p on
    one-prime points and cross terms put 2 zeta_p zeta_q on one point per
    pair, so each report value is a closed form in the s_p.
    hecke.global_assemble expands tau from the returned choices.  Each
    split prime costs one pick_local call, and no Hecke element is built.
    Lambda = (sum |lambda_p|)^2 - tau1(1) is summed as integers over the
    lcm of the eigenvalue denominators, and only the result is a Fraction.

    lambda_scaled = Lambda log^2 Q / Q^(2+ell) assumes the tempered size
    |lambda_p| ~ sqrt(|support|).  A spectrum with |lambda_p| ~ |support|,
    such as the trivial one, gives Lambda ~ Q^(2+2 ell) / log^2 Q, so its
    lambda_scaled grows with Q.

    positivity_scaled = (c_tau/Lambda) Q^(1+ell/2) / log Q is not flat.
    With n ~ Q/(2 log Q) primes kept, c_tau ~ n Q^ell, so c_tau/Lambda
    ~ 1/n on a tempered spectrum and the value grows like Q^(ell/2); on
    the trivial one it falls like 1/Q.  The flat normaliser is Q/log Q.
    """
    if Q < 11:
        raise AmplifierError("Q must be >= 11")
    primes = splitting.split_primes_in(f, Q, 2 * Q)
    if len(primes) < 2:
        raise AmplifierError(f"need at least 2 split primes in [{Q}, {2 * Q}], found {len(primes)}")
    by_ell = {2: [], 4: []}
    for c in (pick_local(p, spectrum.lambda_p(p)) for p in primes):
        by_ell[c.ell].append(c)
    # keep the majority class; on a tie the smaller support wins
    ell = 2 if len(by_ell[2]) >= len(by_ell[4]) else 4
    kept = by_ell[ell]  # nonempty: at least two primes were picked
    squares = [_local_square(c.prime, ell) for c in kept]

    tau1_at_identity = sum(s[0] for s in squares)
    c_tau = tau1_at_identity  # tau1 is self-adjoint
    den = math.lcm(*(c.lam.denominator for c in kept))
    lam_sum = sum(abs(c.lam.numerator) * (den // c.lam.denominator) for c in kept)
    Lambda = Fraction(lam_sum * lam_sum - tau1_at_identity * den * den, den * den)
    n = len(kept)
    cross = 2 if n >= 2 else 0  # |2 zeta_p zeta_q|
    ninf = max(cross, max(max(s[1:]) for s in squares))
    intersections = orbits.count_amplifier_intersections(orbit, squares)

    lambda_positive, Lambda_f = Lambda > 0, float(Lambda)
    ratio_intersections = float(ninf) * intersections / Lambda_f if lambda_positive else math.inf
    ratio_positivity = c_tau / Lambda_f if lambda_positive else math.inf

    # Each verdict checks a report value against an independent formula:
    # h_p * h_p at the origin is the sphere size, and its largest
    # off-origin value, at radius 2, is (p - 1) p^(2j - 2).
    verdicts = {
        "lambda_positive": lambda_positive,
        "identity_removed": tau1_at_identity == sum(c.support_size() for c in kept),
        "norm_inf_decomposition":
            ninf == max(cross, max((c.prime - 1) * c.prime ** (c.ell - 2) for c in kept)),
        "intersection_bound": intersections <= 4 * orbit.index_multiplier * n * n,
    }
    logq = math.log(Q)
    return kept, AmplifierReport(
        Q=Q,
        ell=ell,
        primes_used=[c.prime for c in kept],
        Lambda=Lambda,
        tau1_at_identity=tau1_at_identity,
        c_tau=c_tau,
        norm_inf=ninf,
        intersection_count=intersections,
        ratio_intersections=ratio_intersections,
        ratio_positivity=ratio_positivity,
        verdicts=verdicts,
        lambda_scaled=Lambda_f * logq * logq / Q ** (2 + ell),
        norm_inf_scaled=ninf / Q ** (ell - 1),
        positivity_scaled=ratio_positivity * Q ** (1 + ell / 2) / logq,
    )


def scaling_sweep(
    Qs: list[int],
    f: splitting.IntPoly,
    spectrum: SpectrumModel,
    orbit: orbits.OrbitModel,
) -> list[AmplifierReport]:
    """One amplifier report per Q, for strictly ascending Qs."""
    if any(a >= b for a, b in zip(Qs, Qs[1:])):
        raise AmplifierError(f"Q values must be strictly ascending, got {list(Qs)}")
    return [build_amplifier(Q, f, spectrum, orbit)[1] for Q in Qs]
