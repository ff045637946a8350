"""treeamp verify-hecke: convolution identities and algebra laws per prime."""

from .. import hecke


def run(args):
    primes = args.primes
    max_radius = args.max_radius
    if max_radius > hecke.MAX_RADIUS:
        raise ValueError(f"max radius {max_radius} exceeds the cap {hecke.MAX_RADIUS}")
    if max_radius % 2:
        raise ValueError(f"max radius {max_radius} is odd; Hecke supports have even radii")
    verdicts: dict[str, bool] = {}
    results: dict[str, dict] = {}
    for p in primes:
        checks: dict[str, bool] = {}
        got = hecke.convolve(hecke.basic(p, 1), hecke.basic(p, 1))
        want = hecke.LocalHeckeElement.from_dict(
            p, {0: p * (p + 1), 2: p - 1, 4: 1})
        checks["degree2_identity"] = got == want
        if max_radius >= 4:
            got = hecke.convolve(hecke.basic(p, 2), hecke.basic(p, 2))
            want = hecke.LocalHeckeElement.from_dict(
                p, {0: p ** 3 * (p + 1), 2: p * p * (p - 1), 4: p * (p - 1),
                    6: p - 1, 8: 1})
            checks["degree4_identity"] = got == want
        basics = [hecke.identity(p)] + [
            hecke.basic(p, j) for j in range(1, max_radius // 2 + 1)]
        products = {(f, g): hecke.convolve(f, g) for f in basics for g in basics}
        checks["commutativity"] = all(fg == products[g, f] for (f, g), fg in products.items())
        checks["mass_multiplicativity"] = all(
            hecke.total_mass(fg) == hecke.total_mass(f) * hecke.total_mass(g)
            for (f, g), fg in products.items())
        if p in (2, 3) and max_radius >= 4:
            t1, t2 = hecke.basic(p, 1), hecke.basic(p, 2)
            checks["associativity"] = hecke.convolve(hecke.convolve(t1, t1), t2) \
                == hecke.convolve(t1, hecke.convolve(t1, t2))
        results[str(p)] = checks
        for name, ok in checks.items():
            verdicts[f"p{p}_{name}"] = ok
    return {"primes": primes, "max_radius": max_radius}, results, verdicts
