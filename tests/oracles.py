"""Test-only oracles over the expanded Hecke objects of treeamp.hecke.

The amplifier report is computed from per-prime closed forms; these
evaluate the expanded tau it is checked against, its spectral value
and the orbit points in its support.  FixedSpectrum stands
in for a SpectrumModel where a test needs chosen seed eigenvalues.
"""

import random
from fractions import Fraction

from treeamp import hecke, orbits


class FixedSpectrum:
    """Seed eigenvalues from a {prime: value} map.  Like a SpectrumModel,
    seeds(primes) gives them as integer pairs (numerator, denominator > 0),
    which is what build_amplifier reads; lambda_p(p) gives one as a
    Fraction.  A prime outside the map raises KeyError."""

    def __init__(self, values: dict[int, Fraction]):
        self.lambda_p = {p: Fraction(v) for p, v in values.items()}.__getitem__

    def seeds(self, primes) -> list[tuple[int, int]]:
        return [(v.numerator, v.denominator) for v in map(self.lambda_p, primes)]


def global_identity() -> hecke.GlobalHeckeElement:
    return hecke.GlobalHeckeElement.from_dict({(): 1})


def identity_value(t: hecke.GlobalHeckeElement) -> int:
    """The coefficient of the identity coset."""
    return dict(t.coeffs).get((), 0)


def support_primes(t: hecke.GlobalHeckeElement) -> set[int]:
    """Every prime some support point of t lives at."""
    return {p for point, _ in t.coeffs for p, _ in point}


def subtract_identity(t1: hecke.GlobalHeckeElement) -> hecke.GlobalHeckeElement:
    """Remove the identity-coset value: t1 - t1(1) * delta."""
    out = dict(t1.coeffs)
    out.pop((), None)
    return hecke.GlobalHeckeElement.from_dict(out)


def spectral_value(f, spectra: dict[int, tuple]):
    """Evaluate an element against per-prime eigenvalue sequences, each the
    tuple (1, lambda_1, ...) of hecke.eigenvalue_sequence.

    Linear in the element; across distinct primes the eigenvalue of a
    product support point is the product of the local eigenvalues.
    """
    if isinstance(f, hecke.LocalHeckeElement):
        if f.prime not in spectra:
            raise KeyError(f"no eigenvalue sequence for prime {f.prime}")
        seq = spectra[f.prime]
        return sum(c * seq[r // 2] for r, c in f.coeffs)
    total = 0
    for point, c in f.coeffs:
        term = c
        for p, r in point:
            if p not in spectra:
                raise KeyError(f"no eigenvalue sequence for prime {p}")
            term = term * spectra[p][r // 2]
        total += term
    return total


def count_expanded_intersections(model: orbits.OrbitModel, tau: hecke.GlobalHeckeElement) -> int:
    """Orbit points inside the support of an expanded element, one support point at a time.

    Each support point is a product of spheres across its primes; the
    orbit meets it in the product of the per-prime sphere counts, and
    the finite-index multiplier scales each support point once.
    """
    total = 0
    for point, _ in tau.coeffs:
        if not point:
            continue  # identity coset carries no off-origin support
        if model.kind is orbits.OrbitKind.SL2:
            continue
        prod = 1
        for _p, r in point:
            if r < 2:
                raise ValueError("support points must have positive even radii")
            prod *= 2  # apartment meets each positive-radius sphere twice
        total += model.index_multiplier * prod
    return total


def verify_spectral_floor(
    tau: hecke.GlobalHeckeElement,
    c_tau: int,
    trials: int,
    seed: int,
    max_j: int = 4,
) -> bool:
    """Check spectral_value(tau) >= -c_tau over random eigenvalue systems.

    Draws are rational so each trial is an exact comparison.
    """
    rng = random.Random(seed)
    primes = sorted(support_primes(tau))
    for _ in range(trials):
        spectra = {}
        for p in primes:
            lam = Fraction(rng.randint(-3000, 3000) * p, 1000)
            spectra[p] = hecke.eigenvalue_sequence(p, lam, max_j)
        value = spectral_value(tau, spectra)
        if value < -c_tau:
            return False
    return True
