"""treeamp split-density: the empirical complete-splitting density of a polynomial."""

from fractions import Fraction

from .. import splitting
from . import MAX_SIEVE


def run(args):
    if args.limit > MAX_SIEVE:
        raise ValueError(f"limit {args.limit} exceeds the cap {MAX_SIEVE}")
    poly = splitting.parse_poly(args.poly)
    density = splitting.empirical_density(poly, args.limit)
    sample = splitting.split_primes_in(poly, 2, min(args.limit, 200))
    verdicts = {}
    if args.expected is not None:
        expected = Fraction(args.expected)
        verdicts["density_within_tolerance"] = abs(density - expected) <= Fraction(1, 50)
    config = {"poly": str(poly), "limit": args.limit, "expected": args.expected}
    results = {
        "density": density,
        "density_decimal": float(density),
        "split_primes_up_to_200": sample,
    }
    return config, results, verdicts
