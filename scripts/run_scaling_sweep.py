#!/usr/bin/env python3
"""Build amplifiers across a Q sweep and tabulate the normalized ratios.

Prints, per window [Q, 2Q]: the number of split primes used, the common
support exponent ell, the main term Lambda, and the three normalized
trend quantities (Lambda * log^2 Q / Q^(2+ell), normInf / Q^(ell-1),
and the positivity ratio rescaled by Q^(1+ell/2) / log Q).

Exits 0 when every window passes its verdicts, 1 when one fails, and 2
on bad input, after argparse's usage block, whose last line is the
error; unlike the treeamp CLI, that is more than one line.
"""

import argparse

from treeamp.amplifier import SpectrumModel, scaling_sweep
from treeamp.cli import _int_list, check_windows
from treeamp.orbits import OrbitKind, OrbitModel
from treeamp.splitting import parse_poly


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--Q", default="50,100,200,400",
                        help="comma-separated ascending window starts")
    parser.add_argument("--poly", default="x^2+1")
    parser.add_argument("--spectrum", choices=["trivial", "tempered"],
                        default="tempered")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--orbit", choices=[k.value for k in OrbitKind],
                        default="torus")
    args = parser.parse_args(argv)

    spectrum = SpectrumModel.trivial() if args.spectrum == "trivial" \
        else SpectrumModel.tempered(args.seed)
    orbit = OrbitModel(OrbitKind(args.orbit))
    try:
        Qs = _int_list(args.Q)
        check_windows(Qs)
        reports = scaling_sweep(Qs, parse_poly(args.poly), spectrum, orbit)
    except ValueError as exc:  # includes AmplifierError
        parser.error(str(exc))

    header = (f"{'Q':>5} {'#p':>3} {'ell':>3} {'Lambda':>16} "
              f"{'Lam*log^2Q/Q^(2+l)':>19} {'nInf/Q^(l-1)':>13} "
              f"{'pos*Q^(1+l/2)/logQ':>19} verdicts")
    print(header)
    for r in reports:
        flag = "ok" if r.all_pass() else \
            ",".join(k for k, v in r.verdicts.items() if not v)
        print(f"{r.Q:>5} {len(r.primes_used):>3} {r.ell:>3} "
              f"{float(r.Lambda):>16.6g} {r.lambda_scaled:>19.6g} "
              f"{r.norm_inf_scaled:>13.6g} {r.positivity_scaled:>19.6g} {flag}")
    return 0 if all(r.all_pass() for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
