import random
import re
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from treeamp import tree


def bfs_distances(p, source_word, max_depth):
    """Independent distance oracle: BFS over the ball of radius max_depth."""
    dist = {source_word: 0}
    queue = deque([source_word])
    while queue:
        w = queue.popleft()
        d = dist[w]
        nbrs = []
        if w:
            nbrs.append(w[:-1])
        if len(w) < max_depth:
            hi = p if not w else p - 1
            nbrs.extend(w + (digit,) for digit in range(hi + 1))
        for nb in nbrs:
            if nb not in dist:
                dist[nb] = d + 1
                queue.append(nb)
    return dist


def random_word(rng, p, length):
    if length == 0:
        return ()
    first = rng.randint(0, p)
    rest = tuple(rng.randint(0, p - 1) for _ in range(length - 1))
    return (first,) + rest


class TestSphere:
    def test_radius_zero(self):
        assert list(tree.iter_sphere(2, 0)) == [tree.root(2)]

    def test_root_degree(self):
        assert sum(1 for _ in tree.iter_sphere(2, 1)) == 3

    @pytest.mark.parametrize("p,r,size", [(2, 2, 6), (3, 4, 108)])
    def test_spot_sizes(self, p, r, size):
        assert sum(1 for _ in tree.iter_sphere(p, r)) == size

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_enumeration_matches_closed_form(self, p):
        for r in range(9):
            expected = tree.sphere_size(p, r)
            if expected <= 20000:
                words = [v.word for v in tree.iter_sphere(p, r)]
                assert len(words) == len(set(words)) == expected
                assert all(len(w) == r for w in words)
            else:
                # too large to walk here: verify the recursion instead
                assert expected == p * tree.sphere_size(p, r - 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_words_stream_in_lexicographic_order(self, p):
        for r in range(5):
            words = [v.word for v in tree.iter_sphere(p, r)]
            assert words == sorted(w for w in bfs_distances(p, (), r) if len(w) == r)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_streamed_vertices_equal_their_checked_rebuild(self, p):
        # iter_sphere skips TreeVertex's digit check; the rebuild runs it
        for r in range(5):
            vertices = list(tree.iter_sphere(p, r))
            assert len(set(vertices)) == len(vertices) == tree.sphere_size(p, r)
            for v in vertices:
                checked = tree.TreeVertex(p, v.word)
                assert v == checked and hash(v) == hash(checked)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_word_stream_is_the_streamed_vertices(self, p):
        for r in range(5):
            assert list(tree._sphere_words(p, r)) == [v.word for v in tree.iter_sphere(p, r)]

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            next(tree.iter_sphere(4, 2))

    @pytest.mark.parametrize("r", [2.5, 2.0, "2", None], ids=repr)
    def test_sphere_size_refuses_a_non_integer_radius(self, r):
        with pytest.raises(ValueError, match=f"^radius must be an integer, got {re.escape(repr(r))}$"):
            tree.sphere_size(5, r)

    @pytest.mark.parametrize("r", [2.5, 2.0, "2", None], ids=repr)
    def test_iter_sphere_refuses_a_non_integer_radius(self, r):
        with pytest.raises(ValueError, match=f"^radius must be an integer, got {re.escape(repr(r))}$"):
            next(tree.iter_sphere(5, r))

    def test_sphere_size_of_a_bool_radius_is_its_integer(self):
        assert tree.sphere_size(5, True) == tree.sphere_size(5, 1) == 6

    def test_strong_pseudoprime_rejected(self):
        with pytest.raises(ValueError, match="p must be prime"):
            tree.TreeVertex(318665857834031151167461, ())

    def test_streams_past_the_cli_prime_cap(self):
        assert next(tree.iter_sphere(17, 1)).depth() == 1


class TestDistance:
    def test_root_to_root(self):
        assert tree.distance(tree.root(3), tree.root(3)) == 0

    def test_siblings_through_root(self):
        v = tree.TreeVertex(2, (0,))
        w = tree.TreeVertex(2, (1,))
        assert tree.distance(v, w) == 2

    def test_mismatched_primes_rejected(self):
        with pytest.raises(ValueError):
            tree.distance(tree.root(2), tree.root(3))

    @pytest.mark.parametrize("p,n_sources,n_targets", [(2, 8, 10), (3, 8, 10), (5, 2, 20)])
    def test_bfs_oracle(self, p, n_sources, n_targets):
        rng = random.Random(1000 + p)
        for _ in range(n_sources):
            src = random_word(rng, p, rng.randint(0, 8))
            dist = bfs_distances(p, src, 8)
            v = tree.TreeVertex(p, src)
            for _ in range(n_targets):
                tgt = random_word(rng, p, rng.randint(0, 8))
                w = tree.TreeVertex(p, tgt)
                assert tree.distance(v, w) == dist[tgt]

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms(self, la, lb, lc, data):
        p = 3
        words = [
            tuple(data.draw(st.integers(0, p if i == 0 else p - 1)) for i in range(n))
            for n in (la, lb, lc)
        ]
        u, v, w = (tree.TreeVertex(p, word) for word in words)
        assert tree.distance(u, v) == tree.distance(v, u)
        assert tree.distance(u, w) <= tree.distance(u, v) + tree.distance(v, w)
        assert (tree.distance(u, v) == 0) == (u == v)


def enumeration_count(p, a, b, r):
    """Oracle: enumerate the radius-a sphere and test distances to 0^r."""
    y = tree.TreeVertex(p, (0,) * r)
    return sum(1 for z in tree.iter_sphere(p, a) if tree.distance(z, y) == b)


class TestConvolutionCount:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_degree2_coefficients(self, p):
        assert tree.convolution_count(p, 2, 2, 0) == p * (p + 1)
        assert tree.convolution_count(p, 2, 2, 2) == p - 1
        assert tree.convolution_count(p, 2, 2, 4) == 1

    def test_spot_value(self):
        assert tree.convolution_count(2, 4, 2, 6) == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_full_table_against_enumeration(self, p):
        max_ab = {2: 8, 3: 6, 5: 4}[p]  # reaches every branch of the closed form
        for a in range(0, max_ab + 1, 2):
            for b in range(0, max_ab + 1, 2):
                for r in range(0, a + b + 1, 2):
                    assert tree.convolution_count(p, a, b, r) == enumeration_count(p, a, b, r)

    @pytest.mark.parametrize("p", [2, 3])
    def test_transitivity_independence(self, p):
        rng = random.Random(7)
        for a in (2, 4):
            for b in (2, 4):
                for r in range(0, a + b + 1, 2):
                    expected = tree.convolution_count(p, a, b, r)
                    for _ in range(5):
                        y = tree.TreeVertex(p, random_word(rng, p, r))
                        count = sum(
                            1 for z in tree.iter_sphere(p, a)
                            if tree.distance(z, y) == b
                        )
                        assert count == expected

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_mass_conservation(self, p):
        for a in range(0, 9, 2):
            for b in range(0, 9, 2):
                total = sum(
                    tree.convolution_count(p, a, b, r) * tree.sphere_size(p, r)
                    for r in range(0, a + b + 1, 2)
                )
                assert total == tree.sphere_size(p, a) * tree.sphere_size(p, b)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_double_coset_symmetry(self, p):
        for a in range(0, 9, 2):
            for b in range(0, 9, 2):
                for r in range(0, a + b + 1, 2):
                    if a > r + b:
                        continue
                    lhs = tree.convolution_count(p, a, b, r) * tree.sphere_size(p, r)
                    rhs = tree.convolution_count(p, r, b, a) * tree.sphere_size(p, a)
                    assert lhs == rhs

    def test_odd_arguments_rejected(self):
        with pytest.raises(ValueError):
            tree.convolution_count(2, 1, 2, 2)
        with pytest.raises(ValueError):
            tree.convolution_count(2, 2, 2, 3)

    @pytest.mark.parametrize("r", [4.0, 2.5, "4", None], ids=repr)
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_non_integer_radius_refused_before_the_cache(self, r, at):
        # a float equal to a cached radius must neither be served from the
        # cache nor, on a cold cache, leave a float count behind
        radii = [4, 2, 2]
        radii[at] = r
        with pytest.raises(ValueError, match=f"^radius must be an integer, got {re.escape(repr(r))}$"):
            tree.convolution_count(7, *radii)
        assert tree.convolution_count(7, 4, 2, 2) == 49
        assert type(tree.convolution_count(7, 4, 2, 2)) is int

    def test_r_beyond_sum_rejected(self):
        with pytest.raises(ValueError):
            tree.convolution_count(2, 2, 2, 6)
