"""Command-line front end: one JSON report per subcommand.

read_flags reads the flags of a COMMANDS entry, or of a script's table,
as ``--flag value``, ``--flag=value`` or a unique prefix of the flag; the
last of a repeated flag wins, and -h or --help prints the help.  A
report's bytes are a pure function of the flags and seed (exact integers
as strings, never floats, rationals as "num/den", reals as %.12g
strings), written by _dump as json.dumps(indent=2, sort_keys=True)
would, without the json package; wall time goes to stderr only.  --out
replaces a regular file, or a symlink's target, whole through <file>.tmp,
and writes to a FIFO or device in place.  Exit code is 0 when every
verdict passes, 1 when one fails, and 2 on bad input, which is one line
on stderr.  A subcommand imports the library modules it runs when it
runs, so a process compiles only the code its subcommand calls.

check runs every SUITES entry through main in one process, writing
<dir>/<name>.json for the directory --out names (default reports) and two
lines per suite on stdout, ``== name`` and then ``ok -> path`` or
``FAILED (see path)``.  It runs every suite even after one fails, and
exits 1 when any failed.

run() is the entry of ``python -m treeamp.cli`` and the ``treeamp``
script: it exits with main()'s code and freezes the heap first, so the
exit-time collections skip objects that die with the process anyway.
main(argv) has no process-wide effect, so tests and scripts may call it.
"""

from __future__ import annotations

import contextlib
import gc
import os
import stat
import sys
import time
from types import SimpleNamespace

from . import __version__

MAX_SPHERE = 5 * 10 ** 5  # vertices orbit-check may walk per (p, j)
MAX_SIEVE = 10 ** 6  # largest integer split-density and amplifier may sieve up to


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f",
            "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(c: str) -> str:
    n = ord(c)
    if n > 0xFFFF:  # a UTF-16 surrogate pair
        n -= 0x10000
        return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"
    return _ESCAPES.get(c) or (c if 31 < n < 127 else f"\\u{n:04x}")


def _dump(obj, pad: str | None) -> str:
    """obj as JSON text with sorted keys, integers as strings, rationals as
    "num/den" and reals as %.12g strings: indented two spaces past pad, or
    on one line when pad is None."""
    if isinstance(obj, str):  # escaped as json's ensure_ascii escapes it
        if not (obj.isascii() and obj.isprintable()) or '"' in obj or "\\" in obj:
            obj = "".join(map(_escape, obj))
        return f'"{obj}"'
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return f'"{obj!s}"'
    if isinstance(obj, float):
        return f'"{obj:.12g}"'
    if hasattr(obj, "denominator"):  # a Fraction, told apart without importing fractions
        return f'"{obj.numerator}/{obj.denominator}"'
    inner = None if pad is None else pad + "  "
    if isinstance(obj, dict):
        ends, items = "{}", [f"{_dump(k, None)}: {_dump(v, inner)}"
                             for k, v in sorted({str(k): v for k, v in obj.items()}.items())]
    elif isinstance(obj, (list, tuple)):
        ends, items = "[]", [_dump(v, inner) for v in obj]
    else:
        raise TypeError(f"cannot write a {type(obj).__name__} in a report")
    if pad is None or not items:
        return ends[0] + ", ".join(items) + ends[1]
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


def write_report(report: dict, out_path: str | None) -> None:
    text = _dump(report, "") + "\n"
    if not out_path:
        sys.stdout.write(text)
        return
    path = os.path.realpath(out_path)  # a symlink's target, so the link stays a link
    with contextlib.suppress(FileNotFoundError):  # a new path is made below
        if not stat.S_ISREG(os.stat(path).st_mode):  # a FIFO or device: written in place
            with open(path, "w") as fh:
                fh.write(text)
            return
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def finish(report: dict, out_path: str | None, started: float) -> int:
    write_report(report, out_path)
    print(f"wall time: {time.monotonic() - started:.3f}s", file=sys.stderr)
    failing = [k for k, v in report["verdicts"].items() if v is False]
    if failing:
        config = _dump(report["config"], None)
        print(f"FAIL: {', '.join(failing)} with config {config}", file=sys.stderr)
        return 1
    return 0


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"expected a comma-separated list of integers, got {text!r}")
    if len(set(values)) != len(values):
        raise ValueError(f"repeated value in {text!r}")
    return values


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value
    return integer


def _fraction_text(text: str) -> str:
    from ._value import exact
    exact(text)  # ValueError names a text that is not a fraction
    return text


# ---------------------------------------------------------------------------
# Each subcommand returns (config, results, verdicts) for main's envelope.


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

    def randint(lo, hi, getrandbits=rng.getrandbits):  # rng.randint's draws, minus its calls
        width = hi - lo + 1
        while (r := getrandbits(width.bit_length())) >= width:
            pass
        return lo + r

    def draw():  # a/b + (c/d)i, drawn in the order a, b, c, d
        a, b = randint(-30, 30), randint(1, 12)
        c, d = randint(-30, 30), randint(1, 12)
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
            s = gaussian.GaussRat(randint(-3, 3), randint(-3, 3))
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


def cmd_amplifier(args):
    from . import amplifier, orbits, splitting
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


def cmd_check(args) -> int:
    """Each SUITES entry through main, its report at <args.out>/<name>.json; 1 if any failed."""
    outdir, failed = args.out, 0
    os.makedirs(outdir, exist_ok=True)
    for name, argv in SUITES.items():
        path = f"{outdir}/{name}.json"
        print(f"== {name}", flush=True)  # stdout so far precedes the suite's stderr lines
        try:
            code = main([*argv, "--out", path])
        except SystemExit as exc:  # bad input to one suite fails that suite only
            code = exc.code
        failed += code != 0
        print(f"   ok -> {path}" if code == 0 else f"   FAILED (see {path})")
    if failed:
        print(f"{failed} suite(s) failed")
    return 1 if failed else 0


# name -> (function, help, {flag: (convert, default text, or None, or ... if required)});
# --out is every subcommand's, and an entry may give it another default

COMMANDS = {
    "verify-hecke": (cmd_verify_hecke, "convolution identity and algebra checks", {
        "--primes": (_int_list, "2,3,5,7,11"), "--max-radius": (_int_at_least(2), "8")}),
    "split-density": (cmd_split_density, "empirical complete-splitting density", {
        "--poly": (str, ...), "--limit": (int, "100000"), "--expected": (_fraction_text, None)}),
    "denom-check": (cmd_denom_check, "denominator and product-formula sweeps", {
        "--samples": (_int_at_least(1), "1000"), "--seed": (int, "0")}),
    "orbit-check": (cmd_orbit_check, "orbit intersection closed form vs enumeration", {
        "--orbit": (str, "torus"), "--index": (_int_at_least(1), "1"),
        "--primes": (_int_list, "2,3,5"), "--max-j": (_int_at_least(1), "3")}),
    "amplifier": (cmd_amplifier, "build amplifiers over a Q sweep and report ratios", {
        "--Q": (_int_list, "50,100,200,400"), "--spectrum": (str, "trivial"), "--seed": (int, "42"),
        "--poly": (str, "x^2+1"), "--orbit": (str, "sl2"), "--index": (_int_at_least(1), "1")}),
    "check": (cmd_check, "run every suite, writing --out DIR/<name>.json", {
        "--out": (str, "reports")}),
}

# name -> argv of each suite check runs, in the order it runs them; no argv
# holds a space, so each is its text split, as perfbench/expected.json keys it
SUITES = {name: text.split() for name, text in {
    "verify-hecke": "verify-hecke --primes 2,3,5,7,11 --max-radius 8",
    "split-density-quad": "split-density --poly x^2+1 --limit 100000 --expected 1/2",
    "split-density-cube": "split-density --poly x^3-2 --limit 100000 --expected 1/6",
    "denom-check": "denom-check --samples 1000 --seed 0",
    "orbit-check-sl2": "orbit-check --orbit sl2 --primes 2,3,5 --max-j 3",
    "orbit-check-torus": "orbit-check --orbit torus --primes 2,3,5 --max-j 3",
    "amplifier-trivial": "amplifier --Q 50,100,200,400 --spectrum trivial --orbit sl2",
    "amplifier-tempered": "amplifier --Q 50,100,200,400 --spectrum tempered --seed 42 "
                          "--orbit torus",
}.items()}


def read_flags(flags: dict, tokens: list[str], usage: str, about: str) -> SimpleNamespace:
    """tokens read through a {flag: (convert, default)} table, as attributes named by the
    flags; -h or --help prints usage, about and each flag's default, and exits 0."""
    values = {flag: default if default in (None, ...) else convert(default)
              for flag, (convert, default) in flags.items()}
    names, tokens = [*flags, "-h", "--help"], iter(tokens)
    for token in tokens:
        name, eq, text = token.partition("=")
        found = [name] if name in names else \
            [flag for flag in names if len(name) > 2 and flag.startswith(name)]
        if len(found) != 1:
            raise ValueError(f"ambiguous flag {name} could be {', '.join(found)}" if found
                             else f"unrecognized argument {token!r}")
        if (flag := found[0]) in ("-h", "--help"):
            print(f"usage: {usage} [--FLAG VALUE ...]", about,
                  *(f"  {row:<14} {'required' if default is ... else default}"
                    for row, (_, default) in flags.items()), sep="\n")
            sys.exit(0)
        text = text if eq else next(tokens, "--")
        if not eq and (text.startswith("--") or text == "-h"):  # a flag, not a value
            raise ValueError(f"argument {flag}: expected a value")
        try:
            values[flag] = flags[flag][0](text)
        except ValueError as exc:
            raise ValueError(f"argument {flag}: {exc}") from None
    if missing := [flag for flag, value in values.items() if value is ...]:
        raise ValueError(f"argument {missing[0]} is required")
    return SimpleNamespace(**{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def parse_args(argv: list[str]) -> SimpleNamespace:
    """argv's flags as attributes, with the subcommand's function as func."""
    command = argv[0] if argv else ""
    if command not in COMMANDS:
        if not command.startswith("-"):
            raise ValueError(f"expected a subcommand ({', '.join(COMMANDS)}), got {command!r}")
        # with no flags, argv[0] is help, which exits, or an error, which raises
        read_flags({}, argv, "treeamp SUBCOMMAND", "\n".join(
            ["subcommands:", *(f"  {name:<14} {entry[1]}" for name, entry in COMMANDS.items())]))
    func, about, flags = COMMANDS[command]
    args = read_flags({**flags, "--out": flags.get("--out", (str, None))}, argv[1:],
                      f"treeamp {command}", about)
    args.func, args.subcommand = func, command
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.func is cmd_check:  # each suite writes its own report
            return cmd_check(args)
        started = time.monotonic()
        config, results, verdicts = args.func(args)
        report = {"tool_version": __version__, "command": args.subcommand,
                  "config": config, "results": results, "verdicts": verdicts}
        return finish(report, args.out, started)
    except (ValueError, OSError) as exc:  # ValueError includes AmplifierError
        sys.stderr.write(f"treeamp: error: {exc}\n")
        sys.exit(2)


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
