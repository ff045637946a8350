"""Command-line front end.

Every subcommand emits a single JSON report whose bytes are a pure
function of the flags and seed: exact integers are serialized as
strings (never floats), rationals as "num/den", reals as %.12g strings,
and wall time goes to stderr only.  Exit code is 0 exactly when every
verdict in the report passes, 1 when one fails, and 2 on bad input,
which is reported as one line on stderr.

Each subcommand imports the library modules it runs when it runs:
importing this module loads none of them, so a process compiles only
the code its subcommand calls.

run() is the process entry, for ``python -m treeamp.cli`` and the
installed ``treeamp`` script: it exits with main()'s code and freezes
the heap on the way out, so the interpreter's exit-time collections
skip objects that die with the process anyway.  main(argv) has no
process-wide effect, so tests and scripts may call it in process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import sys
import time

from . import __version__

MAX_SPHERE = 5 * 10 ** 5  # vertices orbit-check may walk per (p, j)
MAX_SIEVE = 10 ** 6  # largest integer split-density and amplifier may sieve up to


def _encode(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return f"{obj:.12g}"
    if hasattr(obj, "denominator"):  # a Fraction, told apart without importing fractions
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def write_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(_encode(report), indent=2, sort_keys=True) + "\n"
    if out_path:
        tmp = out_path + ".tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except OSError:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    else:
        sys.stdout.write(text)


def finish(report: dict, out_path: str | None, started: float) -> int:
    write_report(report, out_path)
    print(f"wall time: {time.monotonic() - started:.3f}s", file=sys.stderr)
    failing = [k for k, v in report["verdicts"].items() if v is False]
    if failing:
        config = json.dumps(_encode(report["config"]), sort_keys=True)
        print(f"FAIL: {', '.join(failing)} with config {config}", file=sys.stderr)
        return 1
    return 0


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}")
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return values


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _fraction_text(text: str) -> str:
    from fractions import Fraction
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None
    return text


# ---------------------------------------------------------------------------
# Each subcommand returns (config, results, verdicts) for main's envelope.


def _orbit_kind(name: str) -> "orbits.OrbitKind":
    """The OrbitKind whose value is name; ValueError lists the valid names."""
    from .orbits import OrbitKind
    try:
        return OrbitKind(name)
    except ValueError:
        known = ", ".join(repr(kind.value) for kind in OrbitKind)
        raise ValueError(f"unknown orbit {name!r} (choose from {known})") from None


def cmd_verify_hecke(args):
    from . import hecke
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
        checks["commutativity"] = all(
            hecke.convolve(f, g) == hecke.convolve(g, f)
            for f in basics for g in basics)
        checks["mass_multiplicativity"] = all(
            hecke.total_mass(hecke.convolve(f, g))
            == hecke.total_mass(f) * hecke.total_mass(g)
            for f in basics for g in basics)
        if p in (2, 3) and max_radius >= 4:
            t1, t2 = hecke.basic(p, 1), hecke.basic(p, 2)
            checks["associativity"] = hecke.convolve(hecke.convolve(t1, t1), t2) \
                == hecke.convolve(t1, hecke.convolve(t1, t2))
        results[str(p)] = checks
        for name, ok in checks.items():
            verdicts[f"p{p}_{name}"] = ok
    return {"primes": primes, "max_radius": max_radius}, results, verdicts


def cmd_split_density(args):
    from fractions import Fraction
    from . import splitting
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


def cmd_denom_check(args):
    import random
    from . import gaussian
    rng = random.Random(args.seed)
    n = args.samples
    one, zero = gaussian.GaussRat(1, 0), gaussian.GaussRat(0, 0)

    def draw():  # a/b + (c/d)i, drawn in the order a, b, c, d
        a, b = rng.randint(-30, 30), rng.randint(1, 12)
        c, d = rng.randint(-30, 30), rng.randint(1, 12)
        return gaussian._reduced(a * d, c * b, b * d)

    submult_add = submult_mul = product_one = arch_floor = True
    for _ in range(n):
        x, y = draw(), draw()
        dx, dy = gaussian.denom(x), gaussian.denom(y)
        submult_add &= gaussian.denom(x + y) <= dx * dy
        submult_mul &= gaussian.denom(x * y) <= dx * dy
        if not x.is_zero():
            product_one &= gaussian.product_formula_check(x) == 1
            arch_floor &= dx * (x.a * x.a + x.b * x.b) >= x.d * x.d  # dx * x.norm() >= 1
    unimodular = sl2_inverse = True
    for _ in range(max(1, n // 10)):
        m = gaussian.Mat2(tuple(draw() for _ in range(4)))
        # random unimodular integral matrix: product of elementary shears
        k = gaussian.Mat2.identity()
        for _ in range(4):
            s = gaussian.GaussRat(rng.randint(-3, 3), rng.randint(-3, 3))
            shear = gaussian.Mat2((one, s, zero, one)) if rng.random() < 0.5 \
                else gaussian.Mat2((one, zero, s, one))
            k = k * shear
        unimodular &= gaussian.denom_mat(m * k) == gaussian.denom_mat(m)
        if not k.is_zero():
            sl2_inverse &= gaussian.denom_mat(k.inverse()) == gaussian.denom_mat(k)
    verdicts = {
        "submultiplicative_sum": submult_add,
        "submultiplicative_product": submult_mul,
        "product_formula_exact": product_one,
        "denominator_arch_floor": arch_floor,
        "unimodular_right_invariance": unimodular,
        "sl2_inverse_equality": sl2_inverse,
    }
    return {"samples": n, "seed": args.seed}, {}, verdicts


def cmd_orbit_check(args):
    from . import orbits, tree
    model = orbits.OrbitModel(_orbit_kind(args.orbit), args.index)
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


def check_windows(Qs: list[int]) -> None:
    """ValueError unless every window [Q, 2Q] ends within the sieve cap."""
    for Q in Qs:
        if 2 * Q > MAX_SIEVE:
            raise ValueError(f"Q={Q} sieves up to 2Q = {2 * Q}, above the cap {MAX_SIEVE}")


def cmd_amplifier(args):
    from . import amplifier, orbits, splitting
    Qs = args.Q
    check_windows(Qs)
    poly = splitting.parse_poly(args.poly)
    spectrum = amplifier.SpectrumModel.trivial() if args.spectrum == "trivial" \
        else amplifier.SpectrumModel.tempered(args.seed)
    orbit = orbits.OrbitModel(_orbit_kind(args.orbit), args.index)
    reports = amplifier.scaling_sweep(Qs, poly, spectrum, orbit)
    results = [{k: v for k, v in vars(rep).items() if k != "verdicts"} for rep in reports]
    verdicts = {f"Q{rep.Q}_{name}": ok for rep in reports for name, ok in rep.verdicts.items()}
    config = {"Q": Qs, "poly": str(poly), "spectrum": args.spectrum,
              "seed": args.seed, "orbit": args.orbit, "index": args.index}
    return config, results, verdicts


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeamp",
        description="exact verification suites for tree Hecke convolution, "
                    "denominators, prime splitting, and amplifier assembly",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write the report here, not to stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    add = functools.partial(sub.add_parser, parents=[common])
    orbit_help = "orbit shape, an orbits.OrbitKind value (default %(default)s)"

    vh = add("verify-hecke", help="convolution identity and algebra checks")
    vh.add_argument("--primes", type=_int_list, default="2,3,5,7,11")
    vh.add_argument("--max-radius", type=_int_at_least(2), default=8)
    vh.set_defaults(func=cmd_verify_hecke)

    sd = add("split-density", help="empirical complete-splitting density")
    sd.add_argument("--poly", required=True)
    sd.add_argument("--limit", type=int, default=10 ** 5)
    sd.add_argument("--expected", type=_fraction_text, default=None,
                    help="expected density as a fraction, e.g. 1/2")
    sd.set_defaults(func=cmd_split_density)

    dc = add("denom-check", help="denominator and product-formula sweeps")
    dc.add_argument("--samples", type=_int_at_least(1), default=1000)
    dc.add_argument("--seed", type=int, default=0)
    dc.set_defaults(func=cmd_denom_check)

    oc = add("orbit-check", help="orbit intersection closed form vs enumeration")
    oc.add_argument("--orbit", default="torus", help=orbit_help)
    oc.add_argument("--index", type=_int_at_least(1), default=1)
    oc.add_argument("--primes", type=_int_list, default="2,3,5")
    oc.add_argument("--max-j", type=_int_at_least(1), default=3)
    oc.set_defaults(func=cmd_orbit_check)

    am = add("amplifier", help="build amplifiers over a Q sweep and report ratios")
    am.add_argument("--Q", type=_int_list, default="50,100,200,400")
    am.add_argument("--poly", default="x^2+1")
    am.add_argument("--spectrum", choices=["trivial", "tempered"], default="trivial")
    am.add_argument("--seed", type=int, default=42)
    am.add_argument("--orbit", default="sl2", help=orbit_help)
    am.add_argument("--index", type=_int_at_least(1), default=1)
    am.set_defaults(func=cmd_amplifier)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        config, results, verdicts = args.func(args)
        report = {"tool_version": __version__, "command": args.subcommand,
                  "config": config, "results": results, "verdicts": verdicts}
        return finish(report, args.out, started)
    except (ValueError, OSError) as exc:  # ValueError includes AmplifierError
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


def run() -> None:
    """Exit the process with main()'s code, freezing the heap first.

    Every object still alive moves to the permanent generation, which
    the collections during interpreter shutdown do not walk.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
