"""Amplifier assembly and its quantitative checks.

Per prime the dichotomy chooses the radius-2 or radius-4 operator so the
eigenvalue is large against the square root of the support size
(pick_local, at one checked prime).  build_amplifier, the one window,
combines the choices over the split primes of [Q, 2Q] into
tau1 = (sum zeta_p h_p) * (...)^* less its identity value, and returns
the kept picks as integer tuples with the report: the eigenvalue Lambda,
the sup norm, the spectral defect, the orbit intersection count and the
ratios used for trend checks.  scaling_sweep runs it once per Q.  Each
report value is a closed form in the squares h_p * h_p; hecke.convolve and
the expanded tau (hecke.global_assemble) are the test oracles.  The public
functions check their inputs once, Q an integer and p a prime; the window
maps the unchecked kernels _pick and tree._convolution_count over the primes
the sieve has proved.
"""

import enum
import math
import random
import threading
from fractions import Fraction
from numbers import Rational

from . import orbits, splitting, tree
from ._value import Value, exact, integer, member
from ._primes import check_prime

__all__ = [
    "PICK_THRESHOLD",
    "SpectrumKind",
    "SpectrumModel",
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
    seeds(primes) draws a batch as unreduced integer pairs.  The kind is a
    SpectrumKind or its name, and the seed is taken by operator.index, so
    tempered(True) is tempered(1), and tempered(1.0) is refused.
    """

    __slots__ = ("kind", "seed")

    def __init__(self, kind: SpectrumKind | str, seed: int = 0):
        super().__init__(member(SpectrumKind, kind, "spectrum"), integer(seed, "seed"))

    @staticmethod
    def trivial() -> "SpectrumModel":
        return SpectrumModel(SpectrumKind.TRIVIAL)

    @staticmethod
    def tempered(seed: int) -> "SpectrumModel":
        return SpectrumModel(SpectrumKind.TEMPERED_RANDOM, seed=seed)

    def seeds(self, primes) -> list[tuple[int, int]]:
        """Each prime's seed eigenvalue as an unreduced (numerator, denominator > 0)."""
        if self.kind is SpectrumKind.TRIVIAL:
            return [(p * (p + 1), 1) for p in primes]
        rng, prefix, out = _generator.rng, f"{self.seed}:", []
        reseed, bits = rng.seed, rng.getrandbits
        for p in primes:
            reseed(f"{prefix}{p}")
            while (r := bits(13)) >= 6001:  # rng.randint(-3000, 3000), minus its calls
                pass
            out.append(((r - 3000) * p, 1000))  # the step p/1000 keeps the arithmetic exact
        return out


# PICK_THRESHOLD = t_num / t_den, squared once for _pick's integer comparisons
_T_NUM2 = PICK_THRESHOLD.numerator ** 2
_T_DEN2 = PICK_THRESHOLD.denominator ** 2


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


def _pick(p: int, seed: tuple[int, int]) -> tuple[int, int, int, int, bool]:
    """The dichotomy at a prime p on the seed (n, d), n/d with d > 0: (p, j, num, den, met).

    j=1 when |n/d| >= PICK_THRESHOLD * sqrt(p(p+1)), decided as
    4 n^2 >= p(p+1) d^2, keeping the seed as the eigenvalue num/den.  Else
    j=2 with the radius-4 eigenvalue (n^2 - (p-1) n d - p(p+1) d^2) / d^2,
    read off T_2 * T_2 = T_4 + (p-1) T_2 + p(p+1) T_0 (hecke.eigenvalue_sequence
    is its test oracle), and its guarantee met when 4 num^2 >= p^3(p+1) den^2.
    """
    n, d = seed
    s1 = p * (p + 1)  # sphere_size(p, 2)
    if _T_DEN2 * n * n >= _T_NUM2 * s1 * d * d:
        return p, 1, n, d, True
    d2 = d * d
    num = n * n - (p - 1) * n * d - s1 * d2
    return p, 2, num, d2, _T_DEN2 * num * num >= _T_NUM2 * s1 * p * p * d2 * d2


def pick_local(p: int, lambda_p) -> tuple[int, int, int, bool]:
    """The dichotomy at a prime p on the seed lambda_p: _pick's (j, num, den, met).

    The seed is taken exactly, a float by its binary value, and p is checked
    prime; build_amplifier calls _pick on primes the sieve has proved.  The
    j=2 guarantee is recorded rather than asserted: in a narrow band of seeds
    just under the j=1 cutoff neither normalized eigenvalue reaches 1/2.  The
    per-prime minimax constant c_p = dichotomy_constant(p) clears 1/2 only
    for p in {2, 3}; it decreases to sqrt(2) - 1, the sharp uniform constant.
    """
    seed = exact(lambda_p)
    check_prime(p)
    return _pick(p, (seed.numerator, seed.denominator))[1:]


class AmplifierReport(Value):
    """One amplifier window, unhashable as verdicts is a dict; the CLI reports all but verdicts."""

    __slots__ = ("Q", "ell", "primes_used", "Lambda", "tau1_at_identity", "c_tau", "norm_inf",
                 "intersection_count", "ratio_intersections", "ratio_positivity", "verdicts",
                 "lambda_scaled", "norm_inf_scaled", "positivity_scaled")

    def __init__(self, Q: int, ell: int, primes_used: tuple[int, ...], Lambda: Fraction,
                 tau1_at_identity: int, c_tau: int, norm_inf: int, intersection_count: int,
                 ratio_intersections: float, ratio_positivity: float, verdicts: dict[str, bool],
                 lambda_scaled: float, norm_inf_scaled: float, positivity_scaled: float):
        super().__init__(Q, ell, tuple(primes_used), Lambda, tau1_at_identity, c_tau, norm_inf,
                         intersection_count, ratio_intersections, ratio_positivity,
                         dict(verdicts), lambda_scaled, norm_inf_scaled, positivity_scaled)


def build_amplifier(Q: int, f: splitting.IntPoly, spectrum: SpectrumModel,
                    orbit: orbits.OrbitModel) -> tuple[list[tuple], AmplifierReport]:
    """The kept picks (p, j, num, den, met) of _pick over the split primes in
    [Q, 2Q], and the report on them.

    Each split prime costs one integer seed from spectrum.seeds and one
    _pick, and each kept prime ell + 1 kernel reads for its square
    s_p = h_p * h_p, N(ell, ell, r) at index r/2, held by radius.  tau is
    never expanded: same-prime terms put s_p on one-prime points and cross
    terms put 2 zeta_p zeta_q on one point per pair, so each report value
    is a closed form in the s_p.  Lambda =
    (sum |lambda_p|)^2 - tau1(1) is summed as integers over the lcm of the
    eigenvalue denominators, and only Lambda is a Fraction.  norm_inf is
    the largest off-origin value of the s_p: the cross points, of absolute
    value 2, never win, as every kept p >= Q >= 11 gives (p - 1) p^(ell - 2) >= 10.

    The torus meets each of the ell nonzero positive radii of each s_p twice
    and each of the n(n-1)/2 pair points 2 * 2 times: 2 m n (n + ell - 1)
    points for index multiplier m, the bound intersection_bound checks, at
    most 2 ell m n^2.  4 m n^2 holds only when n >= ell - 1 (n = 2 and
    ell = 4 give 20 m against 16 m), and wherever it holds it is no tighter.

    lambda_scaled = Lambda log^2 Q / Q^(2+ell) assumes the tempered size
    |lambda_p| ~ sqrt(|support|).  A spectrum with |lambda_p| ~ |support|,
    such as the trivial one, gives Lambda ~ Q^(2+2 ell) / log^2 Q, so its
    lambda_scaled grows with Q.  positivity_scaled =
    (c_tau/Lambda) Q^(1+ell/2) / log Q is not flat: with n ~ Q/(2 log Q)
    primes kept, c_tau ~ n Q^ell, so c_tau/Lambda ~ 1/n on a tempered
    spectrum and the value grows like Q^(ell/2); on the trivial one it
    falls like 1/Q.  The flat normaliser is Q/log Q.
    """
    Q = integer(Q, "Q")
    if Q < 11:
        raise AmplifierError("Q must be >= 11")
    primes = splitting.split_primes_in(f, Q, 2 * Q)
    if len(primes) < 2:
        raise AmplifierError(f"need at least 2 split primes in [{Q}, {2 * Q}], found {len(primes)}")
    picks = list(map(_pick, primes, spectrum.seeds(primes)))
    ones = [k for k in picks if k[1] == 1]
    # keep the majority class, nonempty of two picks; on a tie the smaller support wins
    kept = ones if 2 * len(ones) >= len(picks) else [k for k in picks if k[1] == 2]
    n, ell = len(kept), 2 * kept[0][1]
    kept_primes, ells = [k[0] for k in kept], [ell] * n
    # column k holds every s_p at radius 2k
    columns = [list(map(tree._convolution_count, kept_primes, ells, ells, [r] * n))
               for r in range(0, 2 * ell + 1, 2)]
    tau1_at_identity = sum(columns[0])
    c_tau = tau1_at_identity  # tau1 is self-adjoint
    den = math.lcm(*{k[3] for k in kept})
    lam_sum = sum([abs(num) * (den // d) for _, _, num, d, _ in kept])
    Lambda = Fraction(lam_sum * lam_sum - tau1_at_identity * den * den, den * den)
    ninf = max(map(max, columns[1:]))
    intersections = orbits.count_global_intersections(orbit, columns)
    lambda_positive, Lambda_f = Lambda > 0, float(Lambda)
    ratio_intersections = float(ninf) * intersections / Lambda_f if lambda_positive else math.inf
    ratio_positivity = c_tau / Lambda_f if lambda_positive else math.inf

    # Each verdict checks a report value against an independent formula:
    # h_p * h_p at the origin is the sphere size (p + 1) p^(ell - 1), and
    # its largest off-origin value, at radius 2, is (p - 1) p^(ell - 2).
    verdicts = {
        "lambda_positive": lambda_positive,
        "identity_removed":
            tau1_at_identity == sum([(p + 1) * p ** (ell - 1) for p in kept_primes]),
        "norm_inf_decomposition": ninf == max([(p - 1) * p ** (ell - 2) for p in kept_primes]),
        "intersection_bound": intersections <= 2 * orbit.index_multiplier * n * (n + ell - 1),
    }
    logq = math.log(Q)
    return kept, AmplifierReport(  # the fields in __slots__ order
        Q, ell, kept_primes, Lambda, tau1_at_identity, c_tau, ninf, intersections,
        ratio_intersections, ratio_positivity, verdicts,
        Lambda_f * logq * logq / Q ** (2 + ell),  # lambda_scaled
        ninf / Q ** (ell - 1),  # norm_inf_scaled
        ratio_positivity * Q ** (1 + ell / 2) / logq)  # positivity_scaled


def scaling_sweep(Qs: list[int], f: splitting.IntPoly, spectrum: SpectrumModel,
                  orbit: orbits.OrbitModel) -> list[AmplifierReport]:
    """One amplifier report per Q, for strictly ascending Qs: build_amplifier's."""
    if any(a >= b for a, b in zip(Qs, Qs[1:])):
        raise AmplifierError(f"Q values must be strictly ascending, got {list(Qs)}")
    return [build_amplifier(Q, f, spectrum, orbit)[1] for Q in Qs]
