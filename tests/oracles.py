"""Test-only oracles over the expanded Hecke objects of treeamp.hecke."""

import random
from fractions import Fraction

from treeamp import hecke


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
    primes = sorted(tau.primes())
    for _ in range(trials):
        spectra = {}
        for p in primes:
            lam = Fraction(rng.randint(-3000, 3000) * p, 1000)
            spectra[p] = hecke.eigenvalue_sequence(p, lam, max_j)
        value = hecke.spectral_value(tau, spectra)
        if value < -c_tau:
            return False
    return True
