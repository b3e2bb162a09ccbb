"""Tests for the Theorem 9.1 reduction (repro.complexity.nphardness)
and the Lamb1 adversarial family (Section 6.3.1)."""

import numpy as np
import pytest

from repro.complexity import (
    build_lamb_instance,
    cover_to_lamb_set,
    lamb1_adversarial_instance,
    recover_vertex_cover,
)
from repro.core import find_lamb_set, full_reach_matrix, is_lamb_set
from repro.graphs import exact_min_vertex_cover, is_vertex_cover
from repro.routing import repeated, xy, xyz


@pytest.fixture(scope="module")
def k3_instance():
    """The triangle K3 (VC optimum 2) as a (3,2)-lamb instance."""
    return build_lamb_instance(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture(scope="module")
def k3_reach(k3_instance):
    return full_reach_matrix(k3_instance.faults, repeated(xyz(), 2))


class TestConstruction:
    def test_dimensions(self, k3_instance):
        inst = k3_instance
        assert inst.num_vertices == 4  # 3 + helper
        assert inst.n >= 2 * inst.num_vertices
        # K3 plus helper: non-edges are exactly the 3 helper pairs.
        assert set(inst.nonedge_levels) == {(0, 1), (0, 2), (0, 3)}

    def test_nonedge_planes_flanked_by_column_planes(self, k3_instance):
        inst = k3_instance
        for level in inst.nonedge_levels.values():
            assert level - 1 in inst.column_levels
            assert level + 1 in inst.column_levels

    def test_columns_are_good(self, k3_instance):
        inst = k3_instance
        for i in range(inst.num_vertices):
            for v in inst.column_nodes(i):
                assert not inst.faults.node_is_faulty(v)

    def test_every_column_has_an_outlet(self, k3_instance):
        # The helper vertex guarantees >= 1 outlet per column.
        for i in range(k3_instance.num_vertices):
            assert k3_instance.outlet_levels(i)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            build_lamb_instance(3, [(0, 3)])
        with pytest.raises(ValueError):
            build_lamb_instance(3, [(1, 1)])

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_lamb_instance(3, [(0, 1)], n=4)


class TestReachabilityProperties:
    """The three properties in the proof of Theorem 9.1."""

    def test_property1_nonedges_2reach(self, k3_instance, k3_reach):
        inst, R = k3_instance, k3_reach
        mesh = inst.faults.mesh
        for (i, j) in inst.nonedge_levels:
            for v in inst.column_nodes(i):
                for w in inst.column_nodes(j):
                    assert R[mesh.index_of(v), mesh.index_of(w)]
                    assert R[mesh.index_of(w), mesh.index_of(v)]

    def test_property2_edges_blocked(self, k3_instance, k3_reach):
        inst, R = k3_instance, k3_reach
        mesh = inst.faults.mesh
        edges_internal = {(u + 1, v + 1) for (u, v) in inst.edges}
        for (i, j) in sorted(edges_internal):
            oi, oj = inst.outlet_levels(i), inst.outlet_levels(j)
            for v in inst.non_outlet_nodes(i):
                for w in inst.non_outlet_nodes(j):
                    assert not R[mesh.index_of(v), mesh.index_of(w)], (v, w)

    def test_property3_columns_and_external(self, k3_instance, k3_reach):
        inst, R = k3_instance, k3_reach
        mesh = inst.faults.mesh
        rng = np.random.default_rng(0)
        externals = [
            v for v in mesh.nodes() if not inst.is_internal(v)
        ]
        sample = [externals[int(k)] for k in rng.integers(0, len(externals), 8)]
        for i in range(inst.num_vertices):
            group = inst.column_nodes(i)[:3] + sample
            for v in group:
                for w in group:
                    assert R[mesh.index_of(v), mesh.index_of(w)], (i, v, w)


class TestCoverTransfer:
    def test_lamb_yields_vertex_cover(self, k3_instance):
        inst = k3_instance
        result = find_lamb_set(inst.faults, repeated(xyz(), 2))
        cover = recover_vertex_cover(inst, result.lambs)
        assert is_vertex_cover(inst.edges, cover)

    def test_optimal_cover_yields_lamb_set(self, k3_instance):
        inst = k3_instance
        opt = exact_min_vertex_cover(3, inst.edges)
        lambs = cover_to_lamb_set(inst, opt)
        assert is_lamb_set(inst.faults, repeated(xyz(), 2), lambs)

    def test_non_cover_does_not_yield_lamb_set(self, k3_instance):
        inst = k3_instance
        # {0} misses edge (1, 2): the corresponding Λ must NOT work.
        lambs = cover_to_lamb_set(inst, {0})
        assert not is_lamb_set(inst.faults, repeated(xyz(), 2), lambs)

    def test_path_graph_instance(self):
        """P3 (0-1-2): optimum cover {1}."""
        inst = build_lamb_instance(3, [(0, 1), (1, 2)])
        lambs = cover_to_lamb_set(inst, {1})
        assert is_lamb_set(inst.faults, repeated(xyz(), 2), lambs)
        result = find_lamb_set(inst.faults, repeated(xyz(), 2))
        cover = recover_vertex_cover(inst, result.lambs)
        assert is_vertex_cover(inst.edges, cover)


class TestAdversarialFamily:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_lamb1_ratio(self, m):
        """Section 6.3.1: Lamb1 returns (4m-1)n lambs where 2mn is
        optimal — the 2 - 1/(2m) gap."""
        inst = lamb1_adversarial_instance(m)
        orderings = repeated(xy(), 2)
        result = find_lamb_set(inst.faults, orderings)
        assert result.size == inst.lamb1_size
        assert is_lamb_set(inst.faults, orderings, result.lambs)
        assert inst.ratio == pytest.approx(2 - 1 / (2 * m))

    def test_optimal_is_two_outer_components(self):
        inst = lamb1_adversarial_instance(1)
        n = 5
        orderings = repeated(xy(), 2)
        # The two outer components form a valid (and optimal) lamb set.
        outer = [(x, y) for x in range(n) for y in range(n) if y < 1 or y > 3]
        assert is_lamb_set(inst.faults, orderings, outer)
        assert len(outer) == inst.optimal_lamb_size

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            lamb1_adversarial_instance(0)
