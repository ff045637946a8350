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
on stderr; a failing verdict is named on stderr, with the input that
fails it where the subcommand gives one.  Each subcommand's body is a
module of treeamp.commands that main imports only when it runs that
subcommand, and that module imports the library modules it calls, so a
process compiles only the body it runs and the code that body calls.

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

import contextlib
import gc
import os
import stat
import sys
import time
from importlib import import_module
from types import SimpleNamespace

from . import __version__
from .commands import MAX_SIEVE, MAX_SPHERE  # re-exported: the caps scripts read as cli.MAX_*


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


def finish(report: dict, out_path: str | None, started: float,
           witnesses: dict | None = None) -> int:
    """Write the report; on stderr the wall time and, when a verdict fails, a FAIL:
    line naming each failing verdict, then one line per failing verdict that
    witnesses names an input for."""
    write_report(report, out_path)
    print(f"wall time: {time.monotonic() - started:.3f}s", file=sys.stderr)
    failing = [k for k, v in report["verdicts"].items() if v is False]
    if failing:
        config = _dump(report["config"], None)
        print(f"FAIL: {', '.join(failing)} with config {config}", file=sys.stderr)
        for name in failing:
            if witness := (witnesses or {}).get(name):
                print(f"  {name}: {witness}", file=sys.stderr)
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


def _command(module: str):
    """The subcommand whose body is treeamp.commands.<module>, imported on its first
    call, so a process compiles only the body it runs; its run returns (config,
    results, verdicts) for main's envelope, and may add the failing verdicts' witnesses."""
    def command(args):
        return import_module(f"{__package__}.commands.{module}").run(args)
    return command


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
    "verify-hecke": (_command("verify_hecke"), "convolution identity and algebra checks", {
        "--primes": (_int_list, "2,3,5,7,11"), "--max-radius": (_int_at_least(2), "8")}),
    "split-density": (_command("split_density"), "empirical complete-splitting density", {
        "--poly": (str, ...), "--limit": (int, "100000"), "--expected": (_fraction_text, None)}),
    "denom-check": (_command("denom_check"), "denominator and product-formula sweeps", {
        "--samples": (_int_at_least(1), "1000"), "--seed": (int, "0")}),
    "orbit-check": (_command("orbit_check"), "orbit intersection closed form vs enumeration", {
        "--orbit": (str, "torus"), "--index": (_int_at_least(1), "1"),
        "--primes": (_int_list, "2,3,5"), "--max-j": (_int_at_least(1), "3")}),
    "amplifier": (_command("amplifier"), "build amplifiers over a Q sweep and report ratios", {
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
        config, results, verdicts, *witnesses = args.func(args)
        report = {"tool_version": __version__, "command": args.subcommand,
                  "config": config, "results": results, "verdicts": verdicts}
        return finish(report, args.out, started, *witnesses)
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
