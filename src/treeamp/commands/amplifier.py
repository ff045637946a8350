"""treeamp amplifier: one amplifier report per Q of a sweep.

scripts/run_scaling_sweep.py runs this too, so it checks its input as
the subcommand does.
"""

from .. import amplifier, orbits, splitting
from . import MAX_SIEVE


def run(args):
    spectrum = amplifier.SpectrumModel(args.spectrum, args.seed)
    Qs = args.Q
    if over := [Q for Q in Qs if 2 * Q > MAX_SIEVE]:
        raise ValueError(f"Q={over[0]} sieves up to 2Q = {2 * over[0]}, above the cap {MAX_SIEVE}")
    poly = splitting.parse_poly(args.poly)
    orbit = orbits.OrbitModel(args.orbit, args.index)
    reports = amplifier.scaling_sweep(Qs, poly, spectrum, orbit)
    results = [{k: getattr(rep, k) for k in rep.__slots__ if k != "verdicts"} for rep in reports]
    verdicts = {f"Q{rep.Q}_{name}": ok for rep in reports for name, ok in rep.verdicts.items()}
    config = {"Q": Qs, "poly": str(poly), "spectrum": args.spectrum,
              "seed": args.seed, "orbit": args.orbit, "index": args.index}
    return config, results, verdicts
