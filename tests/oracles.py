"""Test-only oracles over the expanded Hecke objects of treeamp.hecke.

The amplifier report is computed from per-prime closed forms; these
evaluate the expanded tau it is checked against.  FixedSpectrum stands
in for a SpectrumModel where a test needs chosen seed eigenvalues.
"""

import random
from fractions import Fraction

from treeamp import hecke


class FixedSpectrum:
    """Seed eigenvalues from a {prime: value} map; lambda_p is all that
    build_amplifier reads of a spectrum, and a prime outside the map raises
    KeyError."""

    def __init__(self, values: dict[int, Fraction]):
        self.lambda_p = dict(values).__getitem__


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


def spectral_value(f, spectra: dict[int, hecke.EigenvalueSequence]):
    """Evaluate an element against per-prime eigenvalue sequences.

    Linear in the element; across distinct primes the eigenvalue of a
    product support point is the product of the local eigenvalues.
    """
    if isinstance(f, hecke.LocalHeckeElement):
        if f.prime not in spectra:
            raise KeyError(f"no eigenvalue sequence for prime {f.prime}")
        seq = spectra[f.prime]
        return sum(c * seq.value(r // 2) for r, c in f.coeffs)
    total = 0
    for point, c in f.coeffs:
        term = c
        for p, r in point:
            if p not in spectra:
                raise KeyError(f"no eigenvalue sequence for prime {p}")
            term = term * spectra[p].value(r // 2)
        total += term
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
