import ast
import gc
import hashlib
import importlib
import json
import os
import random
import re
import stat
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from treeamp import _primes, cli, gaussian, hecke
from treeamp.cli import main
from treeamp.gaussian import GaussRat, Mat2
from treeamp.orbits import OrbitKind

ROOT = Path(__file__).resolve().parent.parent

def run(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


class TestVerifyHecke:
    def test_passes(self, tmp_path):
        code, raw = run(tmp_path, "vh.json", ["verify-hecke", "--primes", "2,3", "--max-radius", "4"])
        assert code == 0
        report = json.loads(raw)
        assert report["verdicts"]["p2_degree2_identity"] is True
        assert all(report["verdicts"].values())

    def test_any_prime_below_psi_13_runs(self, tmp_path):
        # convolution cost does not depend on p, so no prime is too large
        code, raw = run(tmp_path, "big.json", ["verify-hecke", "--primes", "17,10007,1000003"])
        assert code == 0
        assert set(json.loads(raw)["results"]) == {"17", "10007", "1000003"}

    def test_radius_cap(self):
        with pytest.raises(SystemExit):
            main(["verify-hecke", "--primes", "2", "--max-radius", "10"])

    def test_convolves_each_ordered_pair_once(self, tmp_path, monkeypatch):
        # per prime: the two degree identities, then each ordered pair of the five
        # basics once for commutativity and mass; associativity adds 4 at p = 2, 3
        calls = []
        convolve = hecke.convolve
        monkeypatch.setattr(hecke, "convolve", lambda f, g: calls.append(1) or convolve(f, g))
        code, _ = run(tmp_path, "vh.json",
                      ["verify-hecke", "--primes", "2,3,5,7,11", "--max-radius", "8"])
        assert code == 0
        assert len(calls) == 5 * (2 + 5 * 5) + 2 * 4

    @pytest.mark.parametrize("broken,intact", [("commutativity", "mass_multiplicativity"),
                                               ("mass_multiplicativity", "commutativity")])
    def test_a_wrong_product_fails_its_verdict(self, broken, intact, tmp_path, monkeypatch):
        # T2 * T4 becomes its own mass at the origin, unlike T4 * T2 but of the
        # same mass; T2 * T2 gains 1 at the origin, still symmetric but heavier
        convolve, t1, t2 = hecke.convolve, hecke.basic(2, 1), hecke.basic(2, 2)

        def wrong(f, g):
            fg = convolve(f, g)
            if broken == "commutativity" and (f, g) == (t1, t2):
                return hecke.LocalHeckeElement(2, ((0, hecke.total_mass(fg)),))
            if broken == "mass_multiplicativity" and (f, g) == (t1, t1):
                return hecke.LocalHeckeElement(2, ((0, fg.coeffs[0][1] + 1),) + fg.coeffs[1:])
            return fg

        monkeypatch.setattr(hecke, "convolve", wrong)
        code, raw = run(tmp_path, "vh.json", ["verify-hecke", "--primes", "2", "--max-radius", "4"])
        verdicts = json.loads(raw)["verdicts"]
        assert code == 1
        assert not verdicts[f"p2_{broken}"] and verdicts[f"p2_{intact}"]


class TestSplitDensity:
    def test_gaussian_half(self, tmp_path):
        code, raw = run(tmp_path, "sd.json",
                        ["split-density", "--poly", "x^2+1",
                         "--limit", "10000", "--expected", "1/2"])
        assert code == 0
        report = json.loads(raw)
        assert report["verdicts"]["density_within_tolerance"] is True
        num, den = report["results"]["density"].split("/")
        assert abs(int(num) / int(den) - 0.5) < 0.02

    def test_wrong_expected_fails(self, tmp_path):
        code, _ = run(tmp_path, "sd2.json",
                      ["split-density", "--poly", "x^2+1",
                       "--limit", "10000", "--expected", "1/6"])
        assert code == 1


def fraction_denom_check_inputs(seed, samples):
    """What denom-check hands to denom and denom_mat, in order, with every
    number drawn as two Fractions and every shear built by make: the oracle."""
    rng = random.Random(seed)

    def draw():
        return GaussRat.make(Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                             Fraction(rng.randint(-30, 30), rng.randint(1, 12)))

    seen = []
    for _ in range(samples):
        x, y = draw(), draw()
        seen += [("denom", x), ("denom", y), ("denom", x + y), ("denom", x * y)]
    for _ in range(max(1, samples // 10)):
        m = Mat2(tuple(draw() for _ in range(4)))
        k = Mat2.identity()
        for _ in range(4):
            s = GaussRat.make(rng.randint(-3, 3), rng.randint(-3, 3))
            one, zero = GaussRat.make(1), GaussRat.make(0)
            k = k * (Mat2((one, s, zero, one)) if rng.random() < 0.5 else Mat2((one, zero, s, one)))
        seen += [("denom_mat", m * k), ("denom_mat", m), ("denom_mat", k.inverse()),
                 ("denom_mat", k)]
    return seen


class TestDenomCheck:
    def test_passes(self, tmp_path):
        code, raw = run(tmp_path, "dc.json",
                        ["denom-check", "--samples", "200", "--seed", "1"])
        assert code == 0
        assert all(json.loads(raw)["verdicts"].values())

    @pytest.mark.parametrize("seed", range(4))
    def test_integer_draws_equal_fraction_draws(self, tmp_path, monkeypatch, seed):
        seen = []
        for name in ("denom", "denom_mat"):
            fn = getattr(gaussian, name)
            monkeypatch.setattr(gaussian, name,
                                lambda x, name=name, fn=fn: seen.append((name, x)) or fn(x))
        code, _ = run(tmp_path, "dc.json", ["denom-check", "--samples", "60", "--seed", str(seed)])
        assert code == 0
        assert seen == fraction_denom_check_inputs(seed, 60)


    def test_seed_0_runs_no_primality_test(self, tmp_path, monkeypatch):
        # every place is over a prime that trial division proved; none is tested again
        gaussian._prime_above.cache_clear()
        _primes.cached_is_prime.cache_clear()
        tested = []
        is_prime = _primes.is_prime
        monkeypatch.setattr(_primes, "is_prime", lambda n: tested.append(n) or is_prime(n))
        code, _ = run(tmp_path, "dc.json", ["denom-check", "--seed", "0"])
        assert code == 0
        assert tested == []
        assert gaussian._prime_above.cache_info().misses > 0  # the places were built

    def test_a_failing_verdict_names_its_first_failing_sample_on_stderr(self, tmp_path,
                                                                        monkeypatch, capsys):
        # denom is wrong on its 11th call only: sample 2's x + y, after its x and y
        calls, denom = [], gaussian.denom
        monkeypatch.setattr(gaussian, "denom",
                            lambda z: calls.append(z) or (10 ** 12 if len(calls) == 11 else denom(z)))
        code, raw = run(tmp_path, "dc.json", ["denom-check", "--samples", "20", "--seed", "0"])
        assert code == 1
        report = json.loads(raw)
        assert [k for k, ok in report["verdicts"].items() if not ok] == ["submultiplicative_sum"]
        assert b"GaussRat" not in raw  # the witness goes to stderr only
        err = capsys.readouterr().err.splitlines()
        assert err[-2].startswith("FAIL: submultiplicative_sum with config ")
        assert err[-1] == f"  submultiplicative_sum: sample 2: x = {calls[8]!r}, y = {calls[9]!r}"


class TestOrbitCheck:
    @pytest.mark.parametrize("orbit", ["sl2", "torus"])
    def test_passes(self, tmp_path, orbit):
        code, raw = run(tmp_path, f"oc-{orbit}.json",
                        ["orbit-check", "--orbit", orbit, "--primes", "2,3", "--max-j", "2"])
        assert code == 0
        report = json.loads(raw)
        assert all(report["verdicts"].values())
        if orbit == "sl2":
            assert report["results"]["p2_j1"]["closed_form"] == "0"
        else:
            assert report["results"]["p2_j1"]["closed_form"] == "2"


class TestAmplifier:
    def test_trivial_smoke(self, tmp_path):
        code, raw = run(tmp_path, "amp.json",
                        ["amplifier", "--Q", "50,100", "--spectrum", "trivial"])
        assert code == 0
        report = json.loads(raw)
        first = report["results"][0]
        assert first["Q"] == "50"
        assert first["primes_used"] == ["53", "61", "73", "89", "97"]
        assert first["Lambda"] == "873882282/1"
        assert "." not in first["Lambda"]  # exact, never a float

    def test_tempered_torus(self, tmp_path):
        code, raw = run(tmp_path, "amp2.json",
                        ["amplifier", "--Q", "50", "--spectrum", "tempered",
                         "--seed", "42", "--orbit", "torus"])
        assert code == 0
        report = json.loads(raw)
        assert int(report["results"][0]["intersection_count"]) > 0

    def test_torus_window_with_two_radius_4_primes_passes(self, tmp_path):
        # [11, 22] keeps 13 and 17 at ell = 4: 2 (n + ell - 1) = 10 points
        # per pair of primes, more than the 4 n^2 = 8 the bound once allowed
        code, raw = run(tmp_path, "amp3.json",
                        ["amplifier", "--Q", "11", "--spectrum", "tempered",
                         "--seed", "12", "--orbit", "torus"])
        assert code == 0
        first = json.loads(raw)["results"][0]
        assert (first["ell"], first["primes_used"], first["intersection_count"]) == \
            ("4", ["13", "17"], "20")


class TestDeterminism:
    CASES = [
        ("verify-hecke", ["verify-hecke", "--primes", "2,3", "--max-radius", "4"]),
        ("split-density", ["split-density", "--poly", "x^3-2", "--limit", "5000"]),
        ("denom-check", ["denom-check", "--samples", "100", "--seed", "7"]),
        ("orbit-check", ["orbit-check", "--primes", "2", "--max-j", "2"]),
        ("amplifier", ["amplifier", "--Q", "50", "--spectrum", "tempered", "--seed", "3"]),
    ]

    @pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
    def test_byte_identical_reruns(self, tmp_path, name, argv):
        _, first = run(tmp_path, f"{name}-a.json", argv)
        _, second = run(tmp_path, f"{name}-b.json", argv)
        assert first == second

    @pytest.mark.parametrize("argv", cli.SUITES.values(), ids=cli.SUITES.keys())
    def test_run_all_checks_report_matches_recorded_digest(self, argv, capsys):
        recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        want = recorded["cli_suites"][" ".join(argv)]
        code = main(argv)
        stdout = capsys.readouterr().out
        assert (code, hashlib.sha256(stdout.encode()).hexdigest()) == \
            (want["exit"], want["sha256"])

    def test_seed_changes_tempered_report(self, tmp_path):
        base = ["amplifier", "--Q", "50", "--spectrum", "tempered"]
        _, a = run(tmp_path, "s1.json", base + ["--seed", "1"])
        _, b = run(tmp_path, "s2.json", base + ["--seed", "2"])
        assert a != b

    @pytest.mark.parametrize("argv", cli.SUITES.values(), ids=cli.SUITES.keys())
    def test_equals_spelling_matches_recorded_digest(self, argv, capsys):
        recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        want = recorded["cli_suites"][" ".join(argv)]
        joined = [argv[0]] + [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
        assert len(joined) < len(argv)
        code = main(joined)
        stdout = capsys.readouterr().out
        assert (code, hashlib.sha256(stdout.encode()).hexdigest()) == \
            (want["exit"], want["sha256"])

    def test_unique_prefix_matches_full_flag(self, tmp_path):
        argv = cli.SUITES["verify-hecke"]
        abbreviated = ["--max-r" if token == "--max-radius" else token for token in argv]
        assert abbreviated != argv
        assert run(tmp_path, "full.json", argv) == run(tmp_path, "short.json", abbreviated)

    def test_repeated_flag_last_wins(self, tmp_path):
        # the first values alone would be refused by the sphere cap
        repeated = ["orbit-check", "--primes", "7", "--max-j", "5", "--primes", "2", "--max-j=1"]
        argv = ["orbit-check", "--primes", "2", "--max-j", "1"]
        assert run(tmp_path, "last.json", repeated) == run(tmp_path, "once.json", argv)

    def test_every_other_recorded_report_matches_its_digest(self, capsys):
        # the denom-check and tempered seeds that check does not run
        recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())["cli_suites"]
        others = {argv: want for argv, want in recorded.items()
                  if argv.split() not in cli.SUITES.values()}
        assert len(others) == 62
        mismatched = []
        for argv, want in others.items():
            code = main(argv.split())
            digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
            if (code, digest) != (want["exit"], want["sha256"]):
                mismatched.append(argv)
        assert mismatched == []

    def test_stdout_matches_file(self, tmp_path, capsys):
        argv = ["orbit-check", "--primes", "2", "--max-j", "1"]
        code = main(argv)
        assert code == 0
        stdout = capsys.readouterr().out
        _, filed = run(tmp_path, "oc.json", argv)
        assert stdout.encode() == filed


class TestCheck:
    def check_lines(self, outdir, names, failed=()) -> list[str]:
        """check's stdout for suites run in the order of names."""
        lines = []
        for name in names:
            path = f"{outdir}/{name}.json"
            lines += [f"== {name}",
                      f"   FAILED (see {path})" if name in failed else f"   ok -> {path}"]
        return lines + ([f"{len(failed)} suite(s) failed"] if failed else [])

    def test_every_report_matches_its_digest_in_either_order(self, tmp_path, capsys,
                                                             monkeypatch):
        # one process runs the table, then the table reversed: no suite
        # leaves state behind that changes a later suite's bytes
        recorded = json.loads((ROOT / "perfbench" / "expected.json").read_text())["cli_suites"]
        table = dict(cli.SUITES)
        for order, suites in (("forward", table), ("reverse", dict(reversed(table.items())))):
            monkeypatch.setattr(cli, "SUITES", suites)
            outdir = tmp_path / order
            assert main(["check", "--out", str(outdir)]) == 0
            assert capsys.readouterr().out.splitlines() == self.check_lines(outdir, suites)
            assert sorted(p.name for p in outdir.iterdir()) == sorted(f"{n}.json" for n in table)
            for name, argv in table.items():
                digest = hashlib.sha256((outdir / f"{name}.json").read_bytes()).hexdigest()
                assert digest == recorded[" ".join(argv)]["sha256"], (order, name)

    def test_reports_go_to_reports_by_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "SUITES", {"orbit": ["orbit-check", "--primes", "2",
                                                      "--max-j", "1"]})
        assert main(["check"]) == 0
        assert capsys.readouterr().out.splitlines() == self.check_lines("reports", ["orbit"])
        assert [p.name for p in (tmp_path / "reports").iterdir()] == ["orbit.json"]

    @pytest.mark.parametrize("outcome", ["false-verdict", "bad-input"])
    def test_a_failed_suite_fails_check_after_every_suite_ran(self, outcome, tmp_path, capsys,
                                                              monkeypatch):
        def denom_check(args):
            if outcome == "bad-input":
                raise ValueError("refused")
            return {}, {}, {"always": False}
        monkeypatch.setitem(cli.COMMANDS, "denom-check",
                            (denom_check, *cli.COMMANDS["denom-check"][1:]))
        assert main(["check", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == self.check_lines(tmp_path, cli.SUITES,
                                                             failed=["denom-check"])
        if outcome == "false-verdict":
            assert "FAIL: always with config {}" in captured.err
            assert json.loads((tmp_path / "denom-check.json").read_text())["verdicts"] == \
                {"always": False}
        else:
            assert "treeamp: error: refused" in captured.err.splitlines()
        written = {p.name for p in tmp_path.iterdir()}
        assert written == {f"{n}.json" for n in cli.SUITES} - (
            {"denom-check.json"} if outcome == "bad-input" else set())


def json_encoded(obj):
    """The report as the writer handed it to json.dumps before it wrote
    JSON itself: the input of the json oracle."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return f"{obj:.12g}"
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): json_encoded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_encoded(v) for v in obj]
    return obj


report_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 300, 2 ** 300)
    | st.floats() | st.fractions() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text() | st.integers() | st.booleans(), inner, max_size=4),
    max_leaves=12)


@given(report_values)
@example({"\x00\x1f\x7f\"\\\b\f\n\r\t/ \xe9\u2028\uffff\U0001f600\U0010ffff":
          [(), {}, -0.0, float("inf"), float("nan"), 10 ** 40, Fraction(-1, 3)],
          1: "int key", "1": "str key", True: None})
@settings(max_examples=100, deadline=None)
def test_report_writer_matches_json(obj):
    encoded = json_encoded(obj)
    assert cli._dump(obj, "") == json.dumps(encoded, indent=2, sort_keys=True)
    assert cli._dump(obj, None) == json.dumps(encoded, sort_keys=True)


class TestOutPath:
    ARGV = ["orbit-check", "--primes", "2", "--max-j", "1"]

    def report(self, capsys) -> bytes:
        assert main(self.ARGV) == 0
        return capsys.readouterr().out.encode()

    def test_regular_file_is_replaced_whole(self, tmp_path, capsys):
        out, old = tmp_path / "r.json", tmp_path / "old.json"
        out.write_text("old report")
        os.link(out, old)  # a second name for the file --out replaces
        assert main(self.ARGV + ["--out", str(out)]) == 0
        assert out.read_bytes() == self.report(capsys)
        assert old.read_text() == "old report"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.json", "r.json"]

    def test_symlink_stays_and_its_target_is_replaced_whole(self, tmp_path, capsys):
        target, link, old = tmp_path / "target.json", tmp_path / "link.json", tmp_path / "old.json"
        target.write_text("old report")
        os.link(target, old)  # a second name for the file the link names
        link.symlink_to(target)
        assert main(self.ARGV + ["--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == self.report(capsys)
        assert old.read_text() == "old report"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "old.json",
                                                              "target.json"]

    def test_dangling_symlink_gets_its_target_made(self, tmp_path, capsys):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        link.symlink_to(target)
        assert main(self.ARGV + ["--out", str(link)]) == 0
        assert link.is_symlink() and target.read_bytes() == self.report(capsys)

    def test_fifo_reader_gets_the_bytes(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(self.ARGV + ["--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert got == [self.report(capsys)]
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


BAD_INPUT = {
    "verify-hecke-non-prime": ["verify-hecke", "--primes", "4"],
    "verify-hecke-large-non-prime": ["verify-hecke", "--primes", "2,1000001"],
    # is_prime refuses to decide at psi_13 and above
    "verify-hecke-psi-13": ["verify-hecke", "--primes", "3317044064679887385961981"],
    "verify-hecke-empty-primes": ["verify-hecke", "--primes", ""],
    "verify-hecke-malformed-primes": ["verify-hecke", "--primes", "abc"],
    "amplifier-malformed-q": ["amplifier", "--Q", "50,x"],
    "verify-hecke-max-radius-0": ["verify-hecke", "--max-radius", "0"],
    "verify-hecke-max-radius-1": ["verify-hecke", "--max-radius", "1"],
    "verify-hecke-max-radius-negative": ["verify-hecke", "--max-radius", "-4"],
    "verify-hecke-max-radius-3": ["verify-hecke", "--max-radius", "3"],
    "verify-hecke-max-radius-7": ["verify-hecke", "--max-radius", "7"],
    "orbit-check-index-0": ["orbit-check", "--index", "0"],
    "orbit-check-max-j-0": ["orbit-check", "--max-j", "0"],
    "orbit-check-sphere-p7-j4": ["orbit-check", "--primes", "7", "--max-j", "4"],
    "orbit-check-sphere-p13-j3": ["orbit-check", "--primes", "13", "--max-j", "3"],
    # refused from the radius alone, without building (p+1) p^(2j-1)
    "orbit-check-max-j-huge-p2": ["orbit-check", "--primes", "2", "--max-j", "100000"],
    "orbit-check-max-j-huge-p3": ["orbit-check", "--primes", "3", "--max-j", "5000"],
    "denom-check-negative-samples": ["denom-check", "--samples", "-5"],
    "amplifier-q-below-floor": ["amplifier", "--Q", "10"],
    "amplifier-q-descending": ["amplifier", "--Q", "400,200"],
    "amplifier-empty-q": ["amplifier", "--Q", ""],
    "amplifier-malformed-poly": ["amplifier", "--poly", "x^^2"],
    "amplifier-non-monic": ["amplifier", "--poly", "2x^2+1", "--Q", "50"],
    "split-density-non-monic": ["split-density", "--poly", "2x^2+1"],
    "split-density-zero-denominator": ["split-density", "--poly", "x^2+1",
                                       "--expected", "1/0"],
    "split-density-limit-above-cap": ["split-density", "--poly", "x^2+1",
                                      "--limit", "1000001"],
    "amplifier-q-above-cap": ["amplifier", "--Q", "50,500001"],
    "amplifier-duplicate-q": ["amplifier", "--Q", "50,50"],
    "split-density-degree-above-cap": ["split-density", "--poly", "x^9+1"],
    "amplifier-degree-huge": ["amplifier", "--poly", "x^1000000000+1"],
    "verify-hecke-repeated-prime": ["verify-hecke", "--primes", "2,2"],
    "orbit-check-repeated-prime": ["orbit-check", "--primes", "2,2"],
    "orbit-check-unknown-orbit": ["orbit-check", "--orbit", "cone"],
    "amplifier-unknown-orbit": ["amplifier", "--orbit", "cone"],
    # relative to the directory the test runs in, which holds only a-directory/
    "out-missing-parent": ["verify-hecke", "--primes", "2", "--max-radius", "2",
                           "--out", "missing/report.json"],
    "out-is-directory": ["verify-hecke", "--primes", "2", "--max-radius", "2",
                         "--out", "a-directory"],
    "unknown-flag": ["verify-hecke", "--bogus", "2"],
    "ambiguous-prefix": ["amplifier", "--s", "1"],  # --seed or --spectrum
    "flag-without-value": ["verify-hecke", "--max-radius", "4", "--primes"],
    "flag-as-value": ["split-density", "--poly", "--limit", "100"],
    "help-as-value": ["split-density", "--poly", "-h"],
    "split-density-without-poly": ["split-density", "--limit", "100"],
    "stray-positional": ["verify-hecke", "2,3"],
    "no-subcommand": [],
    "unknown-spectrum": ["amplifier", "--spectrum", "warm"],
    "check-unknown-flag": ["check", "--bogus"],
    "check-out-is-a-file": ["check", "--out", "a-directory/file"],
}


class TestBadInput:
    @pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=BAD_INPUT.keys())
    def test_exits_2_with_error_line(self, argv, capsys, tmp_path, monkeypatch):
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "a-directory" / "file").write_text("")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("treeamp: error:"), captured.err
        assert "Traceback" not in captured.err
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("argv,value", [
        (BAD_INPUT["split-density-limit-above-cap"], "1000001"),
        (BAD_INPUT["amplifier-q-above-cap"], "500001"),
    ])
    def test_sieve_cap_names_value_and_cap(self, argv, value, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        line = capsys.readouterr().err.strip()
        assert line.startswith("treeamp: error:")
        assert value in line and str(cli.MAX_SIEVE) in line

    @pytest.mark.parametrize("name,p,j", [
        ("orbit-check-sphere-p7-j4", 7, 4),
        ("orbit-check-sphere-p13-j3", 13, 3),
        ("orbit-check-max-j-huge-p2", 2, 100000),
        ("orbit-check-max-j-huge-p3", 3, 5000),
    ])
    def test_sphere_cap_names_prime_j_and_cap(self, name, p, j, capsys):
        with pytest.raises(SystemExit):
            main(BAD_INPUT[name])
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("treeamp: error:")
        assert f"p={p}, j={j}" in lines[0] and str(cli.MAX_SPHERE) in lines[0]
        assert len(lines[0]) < 120  # the sphere size itself is never printed

    @pytest.mark.parametrize("argv,value", [
        (BAD_INPUT["verify-hecke-malformed-primes"], "'abc'"),
        (BAD_INPUT["amplifier-malformed-q"], "'50,x'"),
    ])
    def test_malformed_list_names_the_text_not_the_parser(self, argv, value, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        line = capsys.readouterr().err.splitlines()[-1]
        assert value in line
        assert "_int_list" not in line

    @pytest.mark.parametrize("name,words", [
        ("unknown-flag", ["--bogus"]),
        ("ambiguous-prefix", ["--s", "--seed", "--spectrum"]),
        ("flag-without-value", ["--primes"]),
        ("flag-as-value", ["--poly", "expected a value"]),
        ("help-as-value", ["--poly", "expected a value"]),
        ("split-density-without-poly", ["--poly"]),
        ("stray-positional", ["'2,3'"]),
        ("no-subcommand", ["verify-hecke", "amplifier"]),
        ("unknown-spectrum", ["'warm'", "'trivial'", "'tempered'"]),
    ])
    def test_usage_error_names_the_flag_or_text(self, name, words, capsys):
        with pytest.raises(SystemExit):
            main(BAD_INPUT[name])
        line = capsys.readouterr().err
        assert all(word in line for word in words), line

    @pytest.mark.parametrize("name", ["orbit-check-unknown-orbit", "amplifier-unknown-orbit"])
    def test_unknown_orbit_names_it_and_every_kind(self, name, capsys):
        with pytest.raises(SystemExit):
            main(BAD_INPUT[name])
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("treeamp: error:")
        assert "'cone'" in lines[0]
        assert all(repr(kind.value) in lines[0] for kind in OrbitKind)


def test_a_value_may_start_with_a_minus(tmp_path):
    # only a --flag or -h after a flag reads as a missing value
    reports = []
    for poly in ("-2+x^3", "x^3-2"):
        out = tmp_path / f"{len(reports)}.json"
        assert main(["split-density", "--poly", poly, "--limit", "1000", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    out = tmp_path / "expected.json"
    assert main(["split-density", "--poly", "x^3-2", "--limit", "1000",
                 "--expected", "-1/2", "--out", str(out)]) == 1  # the density is not -1/2
    assert b'"expected": "-1/2"' in out.read_bytes()


# Every subcommand's flags and the default text its help shows; --out
# defaults to None unless listed.
HELP_DEFAULTS = {
    "verify-hecke": {"--primes": "2,3,5,7,11", "--max-radius": "8"},
    "split-density": {"--poly": "required", "--limit": "100000", "--expected": "None"},
    "denom-check": {"--samples": "1000", "--seed": "0"},
    "orbit-check": {"--orbit": "torus", "--index": "1", "--primes": "2,3,5", "--max-j": "3"},
    "amplifier": {"--Q": "50,100,200,400", "--poly": "x^2+1", "--spectrum": "trivial",
                  "--seed": "42", "--orbit": "sl2", "--index": "1"},
    "check": {"--out": "reports"},
}


class TestHelp:
    @pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
    def test_top_level_lists_every_subcommand(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        names = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
        assert names == set(HELP_DEFAULTS)

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", HELP_DEFAULTS)
    def test_subcommand_lists_every_flag_with_its_default(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, flag])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = dict(line.split() for line in captured.out.splitlines() if line.startswith("  "))
        assert rows == {"--out": "None", **HELP_DEFAULTS[command]}


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with src on the path, capturing bytes."""
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


PROCESS_CASES = {
    "pass": (["orbit-check", "--primes", "2", "--max-j", "1"], 0),
    "failing-verdict": (["split-density", "--poly", "x^2+1", "--limit", "1000",
                         "--expected", "0"], 1),
    "bad-input": (BAD_INPUT["verify-hecke-non-prime"], 2),
}


def stderr_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("wall time: ")]


class TestProcessEntry:
    @pytest.mark.parametrize("argv,code", PROCESS_CASES.values(), ids=PROCESS_CASES.keys())
    def test_process_matches_in_process_main(self, argv, code, capsys):
        proc = fresh_python("-m", "treeamp.cli", *argv)
        try:
            in_process = main(argv)
        except SystemExit as exc:
            in_process = exc.code
        captured = capsys.readouterr()
        assert (proc.returncode, in_process) == (code, code)
        assert proc.stdout == captured.out.encode()
        err = proc.stderr.decode()
        assert "Traceback" not in err
        assert stderr_lines(err) == stderr_lines(captured.err)
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("treeamp: error:")

    @pytest.mark.parametrize("case", ["pass", "bad-input"])
    def test_run_freezes_the_heap_before_exit(self, case, tmp_path):
        argv, code = PROCESS_CASES[case]
        probe = ("import atexit, gc; from treeamp import cli; "
                 "before = gc.get_freeze_count(); "
                 "atexit.register(lambda: print(before, gc.get_freeze_count() > 0)); "
                 "cli.run()")
        proc = fresh_python("-c", probe, *argv, "--out", str(tmp_path / "r.json"))
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == b"0 True\n"

    def test_main_leaves_the_heap_unfrozen(self, tmp_path):
        before = gc.get_freeze_count()
        assert run(tmp_path, "oc.json", PROCESS_CASES["pass"][0])[0] == 0
        assert gc.get_freeze_count() == before

    def test_console_script_is_the_main_block_entry(self):
        # the installed treeamp script and python -m treeamp.cli call one function
        scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1]
        module, func = re.search(r'^treeamp = "([\w.]+):(\w+)"$', scripts, re.M).groups()
        assert getattr(importlib.import_module(module), func) is cli.run
        body = [node for node in ast.parse(Path(cli.__file__).read_text()).body
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [ast.unparse(stmt) for block in body for stmt in block.body] == [f"{func}()"]


def test_finish_names_every_failing_verdict(tmp_path, capsys):
    report = {"config": {"limit": 7, "poly": "x^2 + 1"},
              "verdicts": {"first_bad": False, "fine": True, "second_bad": False}}
    assert cli.finish(report, str(tmp_path / "r.json"), 0.0) == 1
    fail = capsys.readouterr().err.splitlines()[-1]
    assert fail.startswith("FAIL: first_bad, second_bad ")
    assert "fine" not in fail
    assert '{"limit": "7", "poly": "x^2 + 1"}' in fail


def run_probe(probe: str, *args: str, flags: tuple[str, ...] = ()) -> str:
    """Run probe in a fresh interpreter with src on the path; its stdout."""
    proc = fresh_python(*flags, "-c", probe, *args)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode().strip()


# prints the top-level modules loaded so far that are not in the standard library
FOREIGN = ("print('foreign:', *sorted({m.split('.')[0] for m in sys.modules}"
           " - set(sys.stdlib_module_names)))")


def test_runtime_loads_only_the_standard_library(tmp_path):
    """Every treeamp module, the eight suites and IntPoly.discriminant load no module
    outside the standard library but treeamp and what site loads in a bare interpreter."""
    bare = run_probe("import sys; " + FOREIGN).split()
    probe = ("import importlib, pkgutil, sys, treeamp; "
             "[importlib.import_module(f'treeamp.{m.name}') "
             "for m in pkgutil.iter_modules(treeamp.__path__)]; "
             "from treeamp import cli, splitting; "
             "assert cli.main(['check', '--out', sys.argv[1]]) == 0; "
             "assert splitting.parse_poly('x^3-2').discriminant() == -108; " + FOREIGN)
    loaded = run_probe(probe, str(tmp_path)).splitlines()[-1].split()
    assert sorted(set(loaded) - set(bare)) == ["treeamp"]


# IntPoly.discriminant with every import of sympy refused; the results go to stdout
SYMPY_BLOCKED = """import sys
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "sympy":
            raise ImportError(f"{name} is blocked")
sys.meta_path.insert(0, Refuse())
from treeamp.splitting import parse_poly
print(*(parse_poly(text).discriminant() for text in sys.argv[1:]))
"""
# x^2+1, x^3-2 and x^8+x+1, a non-monic cubic with a negative leading
# coefficient, and (x-1)^2 (x+2), which has a repeated root
RECORDED_DISCRIMINANTS = {"x^2+1": -4, "x^3-2": -108, "x^8+x+1": 15953673,
                          "-3x^3+2x^2-x+5": -5703, "x^3-3x+2": 0}


def test_discriminant_needs_no_sympy_on_any_supported_python(supported_pythons):
    for python in supported_pythons:
        proc = subprocess.run([python, "-c", SYMPY_BLOCKED, *RECORDED_DISCRIMINANTS],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert proc.returncode == 0, (python, proc.stderr)
        assert proc.stdout.split() == [str(d) for d in RECORDED_DISCRIMINANTS.values()], python


LOADED = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'treeamp'))"


def test_import_loads_no_library_module():
    # treeamp.commands holds the caps and no subcommand body
    assert run_probe("import sys, treeamp.cli; " + LOADED) == \
        "treeamp treeamp.cli treeamp.commands"


def test_import_loads_no_argparse_or_gettext():
    probe = ("import sys, treeamp.cli; "
             "print([m for m in ('argparse', 'gettext') if m in sys.modules])")
    assert run_probe(probe) == "[]"


def test_import_loads_no_typing_or_random():
    # -S: without site, whose imports may load either module first
    probe = ("import sys, treeamp.cli, treeamp.orbits; "
             "print([m for m in ('typing', 'random') if m in sys.modules])")
    assert run_probe(probe, flags=("-S",)) == "[]"


# Tiny flags for each subcommand and the library modules it loads, besides
# its own module under treeamp.commands, the value base _value and the
# primality module _primes; every other treeamp module must stay unloaded.
# The tree-only subcommands load no split filter.
SUBCOMMAND_LOADS = {
    "denom-check": (["--samples", "2"], {"gaussian"}),
    "split-density": (["--poly", "x^2+1", "--limit", "100"], {"splitting"}),
    "verify-hecke": (["--primes", "2", "--max-radius", "2"], {"hecke", "tree"}),
    "orbit-check": (["--primes", "2", "--max-j", "1"], {"orbits", "tree"}),
    "amplifier": (["--Q", "50"], {"amplifier", "orbits", "splitting", "tree"}),
}


def subcommand_modules(command: str) -> set[str]:
    """The treeamp modules a process that runs command loads, besides treeamp.cli."""
    return {"treeamp", "treeamp.commands", f"treeamp.commands.{command.replace('-', '_')}",
            "treeamp._value", "treeamp._primes"} | \
        {f"treeamp.{m}" for m in SUBCOMMAND_LOADS[command][1]}


@pytest.mark.parametrize("command", SUBCOMMAND_LOADS)
def test_subcommand_loads_only_what_it_runs(command, tmp_path):
    flags, _ = SUBCOMMAND_LOADS[command]
    probe = "import sys; from treeamp.cli import main; main(sys.argv[1:]); " + LOADED
    loaded = run_probe(probe, command, *flags, "--out", str(tmp_path / "r.json")).split()
    assert loaded == sorted(subcommand_modules(command) | {"treeamp.cli"})


# Runs its arguments as `python -m treeamp.cli` does, then prints the exit
# code, whether __future__ was loaded, and the treeamp modules loaded
AS_MAIN = """import runpy, sys
try:
    runpy.run_module("treeamp.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, "__future__" in sys.modules)
""" + LOADED


@pytest.mark.parametrize("suite", cli.SUITES)
def test_suite_process_compiles_only_the_code_it_runs(suite, tmp_path):
    """Each suite, run as its own process, loads exactly its subcommand's modules
    and no __future__; treeamp.cli runs as __main__ and never loads by name, which
    would compile cli.py a second time."""
    argv = cli.SUITES[suite]
    status, loaded = run_probe(AS_MAIN, *argv, "--out", str(tmp_path / "r.json")).splitlines()
    assert status == "0 False"
    assert loaded.split() == sorted(subcommand_modules(argv[0]))


@pytest.mark.parametrize("command", SUBCOMMAND_LOADS)
def test_subcommand_imports_no_dataclasses(command, tmp_path):
    # nor the argument parser, nor json, nor fractions where the subcommand builds no rational
    flags, _ = SUBCOMMAND_LOADS[command]
    absent = ["dataclasses", "argparse", "gettext", "json"] + \
        (["fractions"] if command in ("verify-hecke", "orbit-check") else [])
    probe = ("import sys; from treeamp.cli import main; main(sys.argv[1:]); "
             f"print([m for m in {absent!r} if m in sys.modules])")
    assert run_probe(probe, command, *flags, "--out", str(tmp_path / "r.json")) == "[]"


# Edge values per flag, valid and invalid; every flag that sets a
# workload size is always given, so no drawn run exceeds 10^4 primes
# or a radius-4 ball.
EDGE_VALUES = {
    "verify-hecke": {"--primes": ["2", "2,3", "13", "", "4", "17", "2,2"],
                     "--max-radius": [None, "0", "2", "3", "4", "8", "10"]},
    "split-density": {"--poly": ["x^2+1", "x-1", "x^2", "x^3-3x+2", "2x^2+1", "x^^2"],
                      "--limit": ["100", "101", "10000", "99"],
                      "--expected": [None, "1/2", "0", "1/0"]},
    "denom-check": {"--samples": ["1", "2", "20", "0", "-5"],
                    "--seed": [None, "-1", "0", "7"]},
    "orbit-check": {"--orbit": [None, "sl2", "torus", "cone"],
                    "--index": [None, "1", "3", "0"],
                    "--primes": ["2", "3", "2,3", "", "4", "2,2"],
                    "--max-j": ["1", "2", "0"]},
    "amplifier": {"--Q": ["11", "50", "50,100", "10", "400,200", ""],
                  "--poly": [None, "x^2+1", "x-1", "x^3-3x+2", "2x^2+1", "x^^2"],
                  "--spectrum": [None, "trivial", "tempered"],
                  "--orbit": [None, "sl2", "torus", "cone"],
                  "--index": [None, "1", "2", "0"]},
}


@st.composite
def cli_argv(draw):
    # each flag spelled --flag value or --flag=value, and sometimes an unknown flag
    command = draw(st.sampled_from(sorted(EDGE_VALUES)))
    argv = [command]
    for flag, values in EDGE_VALUES[command].items():
        value = draw(st.sampled_from(values))
        if value is not None:
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), "--bogus")
    return argv


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_argv())
def test_exit_code_is_0_1_or_2(argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), argv
