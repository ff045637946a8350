#!/usr/bin/env python3
"""Build amplifiers across a Q sweep and tabulate the normalized ratios.

Prints, per window [Q, 2Q]: the number of split primes used, the common
support exponent ell, the main term Lambda, and the three normalized
trend quantities (Lambda * log^2 Q / Q^(2+ell), normInf / Q^(ell-1),
and the positivity ratio rescaled by Q^(1+ell/2) / log Q).

Reads the flags and runs the sweep as ``treeamp amplifier`` does, with
index 1.  Exits 0 when every window passes its verdicts, 1 when one
fails, and 2 on bad input, which is one line on stderr.
"""

import sys

from treeamp import cli
from treeamp.commands import amplifier

AMPLIFIER_FLAGS = cli.COMMANDS["amplifier"][2]
FLAGS = {"--Q": AMPLIFIER_FLAGS["--Q"], "--poly": AMPLIFIER_FLAGS["--poly"],
         "--spectrum": (str, "tempered"), "--seed": AMPLIFIER_FLAGS["--seed"],
         "--orbit": (str, "torus")}


def main(argv=None) -> int:
    try:
        args = cli.read_flags(FLAGS, sys.argv[1:] if argv is None else argv,
                              "run_scaling_sweep.py", __doc__)
        args.index = 1
        _, results, verdicts = amplifier.run(args)
    except ValueError as exc:  # includes AmplifierError
        sys.stderr.write(f"run_scaling_sweep.py: error: {exc}\n")
        return 2

    failing = {}  # "Q<Q>" -> the names of its failed verdicts
    for key, ok in verdicts.items():
        window, _, name = key.partition("_")
        if not ok:
            failing.setdefault(window, []).append(name)
    header = (f"{'Q':>5} {'#p':>3} {'ell':>3} {'Lambda':>16} "
              f"{'Lam*log^2Q/Q^(2+l)':>19} {'nInf/Q^(l-1)':>13} "
              f"{'pos*Q^(1+l/2)/logQ':>19} verdicts")
    print(header)
    for r in results:
        flag = ",".join(failing.get(f"Q{r['Q']}", ())) or "ok"
        print(f"{r['Q']:>5} {len(r['primes_used']):>3} {r['ell']:>3} "
              f"{float(r['Lambda']):>16.6g} {r['lambda_scaled']:>19.6g} "
              f"{r['norm_inf_scaled']:>13.6g} {r['positivity_scaled']:>19.6g} {flag}")
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
