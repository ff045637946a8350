#!/usr/bin/env python3
"""Tabulate the dichotomy constant prime by prime.

For each prime p up to the bound, print the closed-form minimax
c_p of max(|lam| / sqrt(p(p+1)), |lam2| / sqrt(p^3 (p+1))) over seed
eigenvalues lam, the minimising seed lam* = -c_p sqrt(p(p+1)), and
whether c_p >= threshold, decided by one exact rational comparison.
c_p decreases toward sqrt(2) - 1 ~ 0.4142 as p grows, crossing below
1/2 at p = 5.

On bad input it exits 2 after argparse's usage block, whose last line
is the error; unlike the treeamp CLI, that is more than one line.
"""

import argparse
import math
from fractions import Fraction

from treeamp.amplifier import dichotomy_constant, dichotomy_constant_at_least
from treeamp.cli import _fraction_text, _int_at_least
from treeamp.splitting import primes_in


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-prime", default="97")
    parser.add_argument("--threshold", default="1/2",
                        help="certification threshold as a fraction")
    args = parser.parse_args()
    try:
        max_prime = _int_at_least(2)(args.max_prime)
        threshold = Fraction(_fraction_text(args.threshold))
    except ValueError as exc:
        parser.error(str(exc))

    print(f"{'p':>4}  {'c_p':>10}  {'lambda*':>12}  certified@{threshold}")
    for p in primes_in(2, max_prime):
        c = dichotomy_constant(p)
        certified = dichotomy_constant_at_least(p, threshold)
        print(f"{p:>4}  {c:>10.6f}  {-c * math.sqrt(p * (p + 1)):>12.6f}  "
              f"{'yes' if certified else 'NO'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
