"""Span tracer that wraps treeamp's public functions from outside the package.

``Tracer.install`` replaces module attributes of ``treeamp.tree``, ``hecke``,
``splitting``, ``gaussian``, ``orbits``, ``amplifier`` and ``cli`` with timing
wrappers.  Cross-module calls (``hecke.convolve``) and same-module calls made
by global name (``convolve`` inside ``hecke.global_assemble``) both look the
attribute up at call time, so both are recorded.  ``uninstall`` puts the
originals back; nothing under ``src/`` is modified.

Spans are ``[name, start, end, parent_index]`` lists kept in memory and written
out by ``dump``.  Counters are attached to the enclosing root span (one
workload pass, or one CLI process).  ``summarize`` turns a dump into per-root
totals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from fractions import Fraction

# (module, attribute) -> span name; every one is a public function.
SPANNED = {
    ("splitting", "empirical_density"): "splitting.empirical_density",
    ("splitting", "split_primes_in"): "splitting.split_primes_in",
    ("splitting", "primes_in"): "splitting.primes_in",
    ("hecke", "global_assemble"): "hecke.global_assemble",
    ("hecke", "norm_inf"): "hecke.norm_inf",
    ("hecke", "convolve"): "hecke.convolve",
    ("hecke", "eigenvalue_sequence"): "hecke.eigenvalue_sequence",
    ("orbits", "count_global_intersections"): "orbits.count_global_intersections",
    ("orbits", "brute_force_intersect"): "orbits.brute_force_intersect",
    ("amplifier", "scaling_sweep"): "amplifier.scaling_sweep",
    ("amplifier", "build_amplifier"): "amplifier.build_amplifier",
    ("amplifier", "pick_local"): "amplifier.pick_local",
    ("gaussian", "denom"): "gaussian.denom",
    ("gaussian", "denom_mat"): "gaussian.denom_mat",
    ("gaussian", "product_formula_check"): "gaussian.product_formula_check",
    ("gaussian", "gaussian_factor"): "gaussian.gaussian_factor",
    ("cli", "write_report"): "cli.write_report",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._primes: list[int] | None = None  # last primes_in result
        self._orig_discriminant = None  # IntPoly.discriminant, unwrapped

    # -- spans and counters ------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: int) -> None:
        counters = self.counters[self._stack[0]]
        counters[key] = counters.get(key, 0) + n

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span; counters and the convolution-cache delta attach to it."""
        from treeamp import tree
        idx = self._open(name)
        self.counters[idx] = {}
        before = tree.convolution_count.cache_info()
        try:
            yield
        finally:
            after = tree.convolution_count.cache_info()
            self.count("tree.convolution_count_hits", after.hits - before.hits)
            self.count("tree.convolution_count_misses", after.misses - before.misses)
            self._close(idx)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post is not None and tracer._stack:
                post(args, result)
            return result

        return wrapper

    def _wrap_stream(self, fn):
        """Count the vertices a generator yields; streaming stays lazy."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                if tracer._stack:
                    tracer.count("tree.iter_sphere_vertices", n)

        return wrapper

    def _post_primes_in(self, args, result) -> None:
        self._primes = result
        self.count("splitting.primes_sieved", len(result))

    def _count_tests(self, f) -> int:
        """Frobenius tests made: primes that do not divide disc(f)."""
        primes, self._primes = self._primes, None
        if f.degree() == 1 or primes is None:
            return 0
        disc = self._orig_discriminant(f)
        tests = sum(1 for p in primes if disc % p)
        self.count("splitting.primes_tested", tests)
        return tests

    def _post_density(self, args, result: Fraction) -> None:
        total = len(self._primes or ())
        if self._count_tests(args[0]):
            self.count("splitting.splits", result.numerator * total // result.denominator)

    def _post_split_primes(self, args, result) -> None:
        if self._count_tests(args[0]):
            self.count("splitting.splits", len(result))

    def install(self) -> None:
        from treeamp import splitting, tree
        post = {
            "splitting.primes_in": self._post_primes_in,
            "splitting.empirical_density": self._post_density,
            "splitting.split_primes_in": self._post_split_primes,
            "hecke.global_assemble":
                lambda args, r: self.count("hecke.support_points", len(r.coeffs)),
            "amplifier.build_amplifier":
                lambda args, r: self.count("amplifier.primes_kept", len(r[1].primes_used)),
        }
        for (mod_name, attr), name in SPANNED.items():
            mod = importlib.import_module(f"treeamp.{mod_name}")
            self._replace(mod, attr, self._wrap(name, getattr(mod, attr), post.get(name)))
        self._orig_discriminant = splitting.IntPoly.discriminant
        self._replace(splitting.IntPoly, "discriminant",
                      self._wrap("splitting.discriminant", splitting.IntPoly.discriminant))
        self._replace(tree, "iter_sphere", self._wrap_stream(tree.iter_sphere))

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def record(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.record(), fh)


def summarize(dump: dict) -> list[dict]:
    """Per-root totals: seconds and calls per span name, plus counters.

    A span's time counts toward its name only when no ancestor has the same
    name, so recursion is not counted twice.  ``amplifier.self_s`` is the
    ``build_amplifier`` time not covered by its child spans.
    """
    spans = dump["spans"]
    counters = {int(k): v for k, v in dump["counters"].items()}
    children: dict[int, list[int]] = {}
    for idx, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(idx)
    out = []
    for root in children.get(-1, []):
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_s = 0.0

        def visit(idx: int, open_names: frozenset) -> None:
            nonlocal self_s
            name, start, end, _ = spans[idx]
            calls[name] = calls.get(name, 0) + 1
            if name not in open_names:
                seconds[name] = seconds.get(name, 0.0) + (end - start)
            kids = children.get(idx, [])
            if name == "amplifier.build_amplifier":
                self_s += (end - start) - sum(spans[k][2] - spans[k][1] for k in kids)
            for k in kids:
                visit(k, open_names | {name})

        visit(root, frozenset())
        seconds["amplifier.self"] = self_s
        out.append({"seconds": seconds, "calls": calls,
                    "counters": counters.get(root, {})})
    return out
