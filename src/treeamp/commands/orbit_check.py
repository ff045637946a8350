"""treeamp orbit-check: the closed-form orbit intersections against enumeration."""

from .. import orbits, tree
from . import MAX_SPHERE


def run(args):
    model = orbits.OrbitModel(args.orbit, args.index)
    primes = args.primes
    # sphere_size(p, r) >= 2^r, so every radius from MAX_SPHERE.bit_length() on
    # is over the cap; clamping there keeps a huge --max-j from building the power
    radius = min(2 * args.max_j, MAX_SPHERE.bit_length())
    for p in primes:
        if tree.sphere_size(p, radius) > MAX_SPHERE:
            raise ValueError(f"p={p}, j={args.max_j}: the radius-2j sphere has more than "
                             f"the cap of {MAX_SPHERE} vertices")
    results = {}
    verdicts = {}
    for p in primes:
        for j in range(1, args.max_j + 1):
            closed = orbits.orbit_intersect_one_sided(model, p, j)
            brute = orbits.brute_force_intersect(model, p, j)
            results[f"p{p}_j{j}"] = {"closed_form": closed, "brute_force": brute}
            verdicts[f"p{p}_j{j}_agree"] = closed == brute
    config = {"orbit": args.orbit, "index": args.index,
              "primes": primes, "max_j": args.max_j}
    return config, results, verdicts
