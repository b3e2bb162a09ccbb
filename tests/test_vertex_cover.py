"""Tests for the vertex cover solvers (repro.graphs.wvc,
repro.graphs.bipartite_vc, repro.graphs.vertex_cover)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    cover_weight,
    exact_min_vertex_cover,
    is_vertex_cover,
    matching_2approx_vertex_cover,
    min_weight_vertex_cover_bipartite,
    random_graph,
    wvc_exact,
    wvc_local_ratio,
)
from repro.graphs.bipartite_vc import zero_pairs


def brute_force_wvc(n, weights, edges):
    """Reference: try all subsets (n <= ~14)."""
    best, best_w = set(range(n)), sum(weights)
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            s = set(subset)
            if is_vertex_cover(edges, s):
                w = cover_weight(weights, s)
                if w < best_w:
                    best, best_w = s, w
    return best, best_w


@st.composite
def weighted_graphs(draw, max_n=9):
    n = draw(st.integers(2, max_n))
    weights = [draw(st.integers(1, 9)) for _ in range(n)]
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(possible), max_size=12, unique=True))
        if possible
        else []
    )
    return n, [float(w) for w in weights], edges


class TestLocalRatio:
    @given(weighted_graphs())
    @settings(max_examples=40, deadline=None)
    def test_is_cover_and_2approx(self, g):
        n, weights, edges = g
        cover = wvc_local_ratio(n, weights, edges)
        assert is_vertex_cover(edges, cover)
        _, opt = brute_force_wvc(n, weights, edges)
        assert cover_weight(weights, cover) <= 2 * opt + 1e-9

    def test_empty_graph(self):
        assert wvc_local_ratio(3, [1, 1, 1], []) == set()

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            wvc_local_ratio(2, [1, 1], [(0, 0)])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            wvc_local_ratio(2, [-1, 1], [(0, 1)])

    def test_zero_weight_vertices_enter_for_free(self):
        cover = wvc_local_ratio(3, [0.0, 5.0, 5.0], [(0, 1), (0, 2)])
        assert cover == {0}


class TestExact:
    @given(weighted_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, g):
        n, weights, edges = g
        cover = wvc_exact(n, weights, edges)
        assert is_vertex_cover(edges, cover)
        _, opt = brute_force_wvc(n, weights, edges)
        assert cover_weight(weights, cover) == pytest.approx(opt)

    def test_size_guard(self):
        n = 50
        edges = [(i, i + 1) for i in range(0, n - 1, 2)]
        with pytest.raises(ValueError):
            wvc_exact(n, [1.0] * n, edges, max_vertices=10)

    def test_unweighted_wrapper(self):
        # Path graph 0-1-2-3: optimum cover {1, 2}.
        cover = exact_min_vertex_cover(4, [(0, 1), (1, 2), (2, 3)])
        assert len(cover) == 2
        assert is_vertex_cover([(0, 1), (1, 2), (2, 3)], cover)


class TestBipartite:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_wvc(self, seed):
        """Max-flow bipartite WVC must equal the exact general solver
        on the same (bipartitioned) graph."""
        rng = np.random.default_rng(seed)
        p, q = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        lw = [float(rng.integers(1, 9)) for _ in range(p)]
        rw = [float(rng.integers(1, 9)) for _ in range(q)]
        edges = [
            (i, j) for i in range(p) for j in range(q) if rng.random() < 0.4
        ]
        cl, cr, weight = min_weight_vertex_cover_bipartite(lw, rw, edges)
        # Validity.
        for (i, j) in edges:
            assert i in cl or j in cr
        assert weight == pytest.approx(
            sum(lw[i] for i in cl) + sum(rw[j] for j in cr)
        )
        # Optimality vs exact WVC on the merged graph.
        merged_weights = lw + rw
        merged_edges = [(i, p + j) for (i, j) in edges]
        opt_cover = wvc_exact(p + q, merged_weights, merged_edges)
        assert weight == pytest.approx(cover_weight(merged_weights, opt_cover))

    def test_worked_example_shape(self):
        # The Section 5 bipartite graph (Fig. 10): s3(w2), s8(w1) vs
        # d2(w1), d5(w1), d6(w5); edges s3-d5, s8-d2, s8-d6.
        lw = [2.0, 1.0]  # s3, s8
        rw = [1.0, 1.0, 5.0]  # d2, d5, d6
        edges = [(0, 1), (1, 0), (1, 2)]
        cl, cr, weight = min_weight_vertex_cover_bipartite(lw, rw, edges)
        assert weight == 2.0
        assert cl == {1} and cr == {1}  # {s8, d5}

    def test_no_edges(self):
        cl, cr, w = min_weight_vertex_cover_bipartite([1.0], [1.0], [])
        assert cl == set() and cr == set() and w == 0.0

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            min_weight_vertex_cover_bipartite([1.0], [1.0], [(0, 1)])


class TestHelpers:
    def test_matching_2approx(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        cover = matching_2approx_vertex_cover(4, edges)
        assert is_vertex_cover(edges, cover)
        assert len(cover) <= 4  # 2 * optimum (2)

    def test_random_graph_shape(self):
        rng = np.random.default_rng(0)
        edges = random_graph(6, 0.5, rng)
        assert all(0 <= u < v < 6 for (u, v) in edges)
        assert random_graph(6, 0.0, rng) == []
        assert len(random_graph(4, 1.0, rng)) == 6

    def test_random_graph_bad_p(self):
        with pytest.raises(ValueError):
            random_graph(4, 1.5, np.random.default_rng(0))


class TestZeroPairs:
    """``zero_pairs`` is ``np.argwhere(~M)`` read through the flat index."""

    @staticmethod
    def assert_matches_argwhere(M):
        got, want = zero_pairs(M), np.argwhere(~M)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(0, 5), (4, 0), (0, 0)])
    def test_empty_matrices_never_divide(self, shape, monkeypatch):
        def no_divmod(*args, **kwargs):
            raise AssertionError("divmod reached with an empty matrix")

        monkeypatch.setattr(np, "divmod", no_divmod)
        M = np.zeros(shape, dtype=bool)
        assert zero_pairs(M).shape == (0, 2)
        monkeypatch.undo()
        self.assert_matches_argwhere(M)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (7, 3)])
    def test_all_true_and_all_false(self, shape):
        self.assert_matches_argwhere(np.ones(shape, dtype=bool))
        self.assert_matches_argwhere(np.zeros(shape, dtype=bool))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        p, q = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        M = rng.random((p, q)) < rng.random()
        self.assert_matches_argwhere(M)
        # A transposed view is read in logical (row-major) order.
        self.assert_matches_argwhere(M.T)
