"""Parity of the compiled bipartite cover with the pure-Python Dinic
oracle, and of Lamb1's vectorized Reduce-WVC with the per-element one.

The compiled path (scipy's ``maximum_flow``) must return the *same*
``(cover_left, cover_right, weight)`` as :class:`repro.graphs.MaxFlow`,
not merely a cover of equal weight: both read the cover off the
residual graph's source side, which every maximum flow shares.
"""

import itertools

import numpy as np
import pytest

from repro.core.lamb import find_lamb_set
from repro.graphs import bipartite_vc
from repro.graphs.bipartite_vc import (
    compact_edges,
    min_weight_vertex_cover_bipartite,
    zero_pairs,
)
from repro.mesh import FaultSet, Mesh, random_node_faults
from repro.routing import repeated, xy, xyz


def random_instance(rng):
    """Left/right weights and an edge array with zero weights, isolated
    vertices and left vertices sharing one neighbourhood."""
    p, q = int(rng.integers(1, 30)), int(rng.integers(1, 30))
    lw = rng.integers(0, 6, size=p).astype(float)
    rw = rng.integers(0, 6, size=q).astype(float)
    dense = rng.random((p, q)) < rng.uniform(0.02, 0.4)
    dense[rng.random(p) < 0.2] = False  # isolated left vertices
    dense[:, rng.random(q) < 0.2] = False  # isolated right vertices
    if p > 2:
        dense[1] = dense[0]  # duplicate neighbourhoods
    return lw, rw, np.argwhere(dense)


def brute_force_weight(lw, rw, edges):
    p, q = len(lw), len(rw)
    best = float(lw.sum() + rw.sum())
    for mask in itertools.product((0, 1), repeat=p):
        chosen = np.array(mask, dtype=bool)
        # Cheapest completion: every right end of an uncovered edge.
        need = {j for i, j in edges if not chosen[i]}
        best = min(best, float(lw[chosen].sum() + rw[sorted(need)].sum()))
    return best


class TestCompiledCover:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_dinic_oracle(self, seed):
        lw, rw, edges = random_instance(np.random.default_rng(seed))
        oracle = bipartite_vc._cover_dinic(lw, rw, edges)
        if len(edges):
            big = int(lw.sum() + rw.sum()) + 1
            assert bipartite_vc._cover_compiled(lw, rw, edges, big) == oracle
        got = min_weight_vertex_cover_bipartite(lw, rw, edges)
        assert got == (oracle if len(edges) else (set(), set(), 0.0))
        assert isinstance(got[2], float)

    def test_repeated_edges_match(self):
        # Weights near 2**30: a middle capacity summed over repeats of
        # one edge would no longer fit int32.
        lw = np.array([2.0, 1.0]) * 2**28
        rw = np.array([1.0, 3.0]) * 2**28
        edges = np.array([[0, 0], [0, 0], [1, 1], [0, 1], [1, 1], [0, 0]])
        big = int(lw.sum() + rw.sum()) + 1
        assert 2**30 < big < 2**31
        assert bipartite_vc._cover_compiled(
            lw, rw, edges, big
        ) == bipartite_vc._cover_dinic(lw, rw, edges)

    def test_integral_weights_take_compiled_path(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("oracle used for integral weights")

        monkeypatch.setattr(bipartite_vc, "_cover_dinic", forbidden)
        cl, cr, w = min_weight_vertex_cover_bipartite(
            [1, 5], [5, 1], [(0, 0), (0, 1), (1, 1)]
        )
        assert (cl, cr, w) == ({0}, {1}, 2.0)

    def test_weights_past_int32_match_oracle(self):
        # scipy stores capacities as int32; a 2**31-sized instance must
        # fall back to the oracle rather than overflow.
        rng = np.random.default_rng(5)
        lw, rw, edges = random_instance(rng)
        while not len(edges):
            lw, rw, edges = random_instance(rng)
        scale = 2.0**30
        got = min_weight_vertex_cover_bipartite(lw * scale, rw * scale, edges)
        assert (lw.sum() + rw.sum()) * scale + 1 >= 2**31
        assert got == bipartite_vc._cover_dinic(lw * scale, rw * scale, edges)
        # Scaling every weight scales the optimum and keeps the cover.
        small = min_weight_vertex_cover_bipartite(lw, rw, edges)
        assert got[:2] == small[:2]
        assert got[2] == small[2] * scale

    def test_huge_weights_optimal(self):
        lw = np.array([3.0, 2**40, 1.0])
        rw = np.array([2**40, 2.0])
        edges = [(0, 0), (1, 0), (1, 1), (2, 1)]
        _, _, w = min_weight_vertex_cover_bipartite(lw, rw, edges)
        assert w == brute_force_weight(lw, rw, edges)

    def test_fractional_weights_use_oracle(self):
        lw, rw = [0.5, 1.5], [1.25, 0.25]
        edges = [(0, 0), (1, 0), (1, 1)]
        assert min_weight_vertex_cover_bipartite(
            lw, rw, edges
        ) == bipartite_vc._cover_dinic(
            np.array(lw), np.array(rw), np.array(edges)
        )

    def test_array_and_tuple_edges_agree(self):
        lw, rw, edges = random_instance(np.random.default_rng(3))
        pairs = [(int(i), int(j)) for i, j in edges]
        assert min_weight_vertex_cover_bipartite(
            lw, rw, edges
        ) == min_weight_vertex_cover_bipartite(list(lw), list(rw), iter(pairs))

    def test_array_edge_range_checked(self):
        with pytest.raises(ValueError, match=r"edge \(0, 2\) out of range"):
            min_weight_vertex_cover_bipartite(
                [1.0], [1.0, 1.0], np.array([[0, 1], [0, 2]])
            )


class TestCompactEdges:
    def test_relabels_densely(self):
        rows, cols, edges = compact_edges(np.array([[5, 2], [1, 2], [5, 9]]))
        assert rows.tolist() == [1, 5] and cols.tolist() == [2, 9]
        assert edges.tolist() == [[1, 0], [0, 0], [1, 1]]

    def test_empty(self):
        rows, cols, edges = compact_edges(np.empty((0, 2), dtype=np.int64))
        assert rows.size == cols.size == 0 and edges.shape == (0, 2)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("m", [0, 1, 2, 50, 400])
    def test_matches_unique_relabelling(self, seed, m):
        """The mark-table relabelling against the two ``np.unique``
        passes it replaced, on unsorted pairs with repeats (and on
        :func:`zero_pairs`' row-major ones), dtypes included."""
        rng = np.random.default_rng(seed)
        high = int(rng.integers(1, 90))
        pairs = rng.integers(0, high, size=(m, 2))
        pairs = np.concatenate((pairs, pairs[: m // 3]))  # duplicates
        rng.shuffle(pairs)
        matrix = rng.random((high, high + 7)) < 0.9
        for case in (pairs, zero_pairs(matrix)):
            got = compact_edges(case)
            want = unique_relabelling(case)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError, match="nonnegative"):
            compact_edges(np.array([[0, 1], [-1, 2]]))


def unique_relabelling(pairs):
    """``compact_edges`` as two ``np.unique(..., return_inverse=True)``
    passes: the sorting form it replaced."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    rows, left = np.unique(pairs[:, 0], return_inverse=True)
    cols, right = np.unique(pairs[:, 1], return_inverse=True)
    return rows, cols, np.stack([left.ravel(), right.ravel()], axis=1)


def reference_reduce(result, values):
    """The per-element Reduce-WVC(Bipartite) of Fig. 13 solved by the
    Dinic oracle: the reduction Lamb1 ran before it was vectorized."""
    from repro.core.lamb import _rect_weights

    zeros = np.argwhere(~result.reach.Rk)
    if not zeros.size:
        return (), (), 0.0
    ses, des = result.ses_partition, result.des_partition
    rel_s = sorted({int(i) for i, _ in zeros})
    rel_d = sorted({int(j) for _, j in zeros})
    s_pos = {i: a for a, i in enumerate(rel_s)}
    d_pos = {j: b for b, j in enumerate(rel_d)}
    edges = np.array([(s_pos[int(i)], d_pos[int(j)]) for i, j in zeros])
    lw = np.array(_rect_weights([ses[i] for i in rel_s], values))
    rw = np.array(_rect_weights([des[j] for j in rel_d], values))
    cl, cr, w = bipartite_vc._cover_dinic(lw, rw, edges)
    return (
        tuple(rel_s[a] for a in sorted(cl)),
        tuple(rel_d[b] for b in sorted(cr)),
        w,
    )


LAMB_CASES = [
    (widths, f, k, seed, predetermined)
    for seed in range(5)
    for widths, f in (((24, 24), 25), ((9, 9, 9), 30))
    for k, predetermined in ((1, False), (2, seed % 2 == 0))
]


class TestLambParity:
    @pytest.mark.parametrize("widths,f,k,seed,predetermined", LAMB_CASES)
    def test_find_lamb_set_matches_reference(
        self, widths, f, k, seed, predetermined
    ):
        mesh = Mesh(widths)
        faults = random_node_faults(mesh, f, np.random.default_rng(seed))
        pre = []
        if predetermined:
            pre = [v for v in mesh.nodes() if not faults.node_is_faulty(v)][:3]
        order = repeated(xy() if mesh.d == 2 else xyz(), k)
        result = find_lamb_set(faults, order, predetermined=pre)
        ses_ids, des_ids, weight = reference_reduce(
            result, {v: 0.0 for v in pre}
        )
        assert result.chosen_ses == ses_ids
        assert result.chosen_des == des_ids
        assert result.cover_weight == weight
        assert isinstance(result.cover_weight, float)
        expected = set(pre)
        for i in ses_ids:
            expected.update(result.ses_partition[i].nodes())
        for j in des_ids:
            expected.update(result.des_partition[j].nodes())
        assert result.lambs == frozenset(expected)

    def test_worked_example(self):
        faults = FaultSet(Mesh((12, 12)), [(9, 1), (11, 6), (10, 10)])
        result = find_lamb_set(faults, repeated(xy(), 2))
        assert sorted(result.lambs) == [(10, 11), (11, 10)]
        assert result.cover_weight == 2.0
        assert isinstance(result.cover_weight, float)
