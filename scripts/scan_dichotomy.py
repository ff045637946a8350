#!/usr/bin/env python3
"""Tabulate the dichotomy constant prime by prime.

For each prime p up to the bound, print the closed-form minimax
c_p of max(|lam| / sqrt(p(p+1)), |lam2| / sqrt(p^3 (p+1))) over seed
eigenvalues lam, the minimising seed lam* = -c_p sqrt(p(p+1)), and
whether c_p >= threshold, decided by one exact rational comparison.
c_p decreases toward sqrt(2) - 1 ~ 0.4142 as p grows, crossing below
1/2 at p = 5.

The bound may not exceed treeamp's sieve cap.  On bad input it exits 2
with one line on stderr.
"""

import math
import sys
from fractions import Fraction

from treeamp import cli
from treeamp.amplifier import dichotomy_constant, dichotomy_constant_at_least
from treeamp.splitting import primes_in


def _max_prime(text: str) -> int:
    if (value := cli._int_at_least(2)(text)) > cli.MAX_SIEVE:
        raise ValueError(f"{value} exceeds the sieve cap {cli.MAX_SIEVE}")
    return value


FLAGS = {"--max-prime": (_max_prime, "97"), "--threshold": (cli._fraction_text, "1/2")}


def main() -> int:
    try:
        args = cli.read_flags(FLAGS, sys.argv[1:], "scan_dichotomy.py", __doc__)
    except ValueError as exc:
        sys.stderr.write(f"scan_dichotomy.py: error: {exc}\n")
        return 2
    threshold = Fraction(args.threshold)

    print(f"{'p':>4}  {'c_p':>10}  {'lambda*':>12}  certified@{threshold}")
    for p in primes_in(2, args.max_prime):
        c = dichotomy_constant(p)
        certified = dichotomy_constant_at_least(p, threshold)
        print(f"{p:>4}  {c:>10.6f}  {-c * math.sqrt(p * (p + 1)):>12.6f}  "
              f"{'yes' if certified else 'NO'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
