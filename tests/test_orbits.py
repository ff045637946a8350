import re
import tracemalloc
from collections import Counter

import pytest

from treeamp import hecke, tree
from treeamp.orbits import (
    OrbitKind,
    OrbitModel,
    brute_force_intersect,
    count_global_intersections,
    orbit_intersect_one_sided,
)

from oracles import count_expanded_intersections, subtract_identity

SL2 = OrbitModel(OrbitKind.SL2)
TORUS = OrbitModel(OrbitKind.MULTIPLICATIVE)


class TestClosedForm:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_sl2_never_meets(self, p, j):
        assert orbit_intersect_one_sided(SL2, p, j) == 0

    def test_torus_spot(self):
        assert orbit_intersect_one_sided(TORUS, 3, 2) == 2

    def test_linearity_in_translates(self):
        model = OrbitModel(OrbitKind.MULTIPLICATIVE, 3)
        assert orbit_intersect_one_sided(model, 2, 1) == 6

    @pytest.mark.parametrize("index", [1.5, 1.0, "2", None], ids=repr)
    def test_non_integer_index_refused(self, index):
        # a float multiplier would make every torus count a float
        with pytest.raises(ValueError,
                           match=f"^index multiplier must be an integer, got {re.escape(repr(index))}$"):
            OrbitModel(OrbitKind.SL2, index)

    @pytest.mark.parametrize("index", [0, -1, False])
    def test_index_below_1_refused(self, index):
        with pytest.raises(ValueError, match="^index multiplier must be >= 1$"):
            OrbitModel(OrbitKind.MULTIPLICATIVE, index)

    @pytest.mark.parametrize("count", [
        orbit_intersect_one_sided, brute_force_intersect,
    ], ids=["closed-form", "brute-force"])
    def test_non_prime_rejected(self, count):
        with pytest.raises(ValueError, match="p must be prime, got 4"):
            count(TORUS, 4, 1)

    @pytest.mark.parametrize("count", [
        orbit_intersect_one_sided, brute_force_intersect,
    ], ids=["closed-form", "brute-force"])
    @pytest.mark.parametrize("j", [1.5, 1.0, "2", None], ids=repr)
    def test_non_integer_j_refused(self, count, j):
        with pytest.raises(ValueError, match=f"^j must be an integer, got {re.escape(repr(j))}$"):
            count(TORUS, 5, j)


class TestBruteForce:
    @pytest.mark.parametrize("kind", [OrbitKind.SL2, OrbitKind.MULTIPLICATIVE])
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("index", [1, 2, 3])
    def test_matches_closed_form(self, kind, p, j, index):
        model = OrbitModel(kind, index)
        closed = orbit_intersect_one_sided(model, p, j)
        assert brute_force_intersect(model, p, j) == closed

    def test_identity_coset_on_apartment(self):
        assert brute_force_intersect(TORUS, 2, 0) == 1

    def test_identity_coset_on_diagonal(self):
        # (root, root) is the one diagonal point in the j = 0 support
        assert brute_force_intersect(SL2, 3, 0) == 1

    @pytest.mark.parametrize("model,j", [(SL2, 3), (TORUS, 3), (TORUS, 4)],
                             ids=["sl2-j3", "torus-j3", "torus-j4"])
    def test_streams_without_holding_the_support(self, model, j):
        # the radius-2j sphere at p = 5 has 6 * 5^(2j-1) vertices
        tracemalloc.start()
        try:
            count = brute_force_intersect(model, 5, j)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == orbit_intersect_one_sided(model, 5, j)
        assert peak < 500_000

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_sl2_walks_every_sphere_of_the_ball(self, p, j, monkeypatch):
        # the sl2 verdicts compare 0 with 0 whatever the walk yields, so count the walk
        walked = Counter()
        stream = tree.iter_sphere

        def counting_stream(q, r):
            for v in stream(q, r):
                walked[r] += 1
                yield v

        monkeypatch.setattr(tree, "iter_sphere", counting_stream)
        assert brute_force_intersect(SL2, p, j) == 0
        assert walked == {r: tree.sphere_size(p, r) for r in range(2 * j + 1)}

    @pytest.mark.parametrize("model", [SL2, TORUS], ids=["sl2", "torus"])
    def test_negative_j_rejected(self, model):
        with pytest.raises(ValueError, match="j must be >= 0"):
            brute_force_intersect(model, 2, -1)


class TestGlobalCounts:
    def two_prime_tau(self):
        parts = {2: (hecke.basic(2, 1), 1), 3: (hecke.basic(3, 1), 1)}
        return subtract_identity(hecke.global_assemble(parts))

    def test_sl2_always_zero(self):
        assert count_expanded_intersections(SL2, self.two_prime_tau()) == 0

    def test_empty_element(self):
        assert count_expanded_intersections(TORUS, hecke.GlobalHeckeElement.from_dict({})) == 0

    def test_two_prime_expansion(self):
        # per prime the square contributes radii 2 and 4 (2 hits each);
        # the single cross point contributes 2 * 2
        assert count_expanded_intersections(TORUS, self.two_prime_tau()) == 4 + 4 + 4

    def test_monotone_in_index(self):
        tau = self.two_prime_tau()
        counts = [count_expanded_intersections(OrbitModel(OrbitKind.MULTIPLICATIVE, c), tau)
                  for c in (1, 2, 3)]
        assert counts == [12, 24, 36]

    def test_additive_over_support(self):
        tau = self.two_prime_tau()
        total = 0
        for point, coeff in tau.coeffs:
            single = hecke.GlobalHeckeElement.from_dict({point: coeff})
            total += count_expanded_intersections(TORUS, single)
        assert total == count_expanded_intersections(TORUS, tau)

    @pytest.mark.parametrize("kind", list(OrbitKind))
    @pytest.mark.parametrize("index", [1, 3])
    @pytest.mark.parametrize("js", [{2: 1}, {2: 1, 3: 1}, {2: 2, 3: 1, 5: 2}])
    def test_amplifier_closed_form_matches_expansion(self, kind, index, js):
        parts = {p: (hecke.basic(p, j), 1) for p, j in js.items()}
        tau = subtract_identity(hecke.global_assemble(parts))
        squares = []
        for h, _ in parts.values():
            square = hecke.convolve(h, h)
            coeffs = dict(square.coeffs)
            squares.append([coeffs.get(r, 0) for r in range(0, square.max_radius() + 1, 2)])
        model = OrbitModel(kind, index)
        assert count_global_intersections(model, squares) == \
            count_expanded_intersections(model, tau)
