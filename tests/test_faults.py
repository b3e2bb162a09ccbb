"""Tests for repro.mesh.faults."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.mesh import (
    FaultSet,
    Mesh,
    cross_block,
    l_shaped_block,
    random_link_faults,
    random_node_faults,
    rectangular_block,
    t_shaped_block,
)

from conftest import faulty_meshes


class TestFaultSet:
    def test_empty(self):
        f = FaultSet(Mesh((4, 4)))
        assert f.f == 0
        assert f.is_empty()
        assert not f.node_is_faulty((0, 0))

    def test_node_faults(self):
        f = FaultSet(Mesh((4, 4)), [(1, 2), (3, 3)])
        assert f.f == 2
        assert f.node_is_faulty((1, 2))
        assert not f.node_is_faulty((2, 1))

    def test_deduplicates_nodes(self):
        f = FaultSet(Mesh((4, 4)), [(1, 2), (1, 2)])
        assert f.num_node_faults == 1

    def test_rejects_out_of_mesh(self):
        with pytest.raises(ValueError):
            FaultSet(Mesh((4, 4)), [(4, 0)])

    def test_link_faults_directed(self):
        m = Mesh((4, 4))
        f = FaultSet(m, (), [((0, 0), (0, 1))])
        assert f.num_link_faults == 1
        assert f.link_is_faulty((0, 0), (0, 1))
        assert not f.link_is_faulty((0, 1), (0, 0))

    def test_link_incident_to_node_fault(self):
        m = Mesh((4, 4))
        f = FaultSet(m, [(0, 0)], [((0, 0), (0, 1))])
        # The explicit link fault is redundant and dropped...
        assert f.num_link_faults == 0
        # ...but the link is still unusable because the node is faulty.
        assert f.link_is_faulty((0, 0), (0, 1))
        assert f.link_is_faulty((1, 0), (0, 0))

    def test_rejects_non_link(self):
        with pytest.raises(ValueError):
            FaultSet(Mesh((4, 4)), (), [((0, 0), (1, 1))])

    def test_good_nodes(self):
        m = Mesh((3, 3))
        f = FaultSet(m, [(1, 1)])
        good = f.good_nodes()
        assert len(good) == 8
        assert (1, 1) not in good

    def test_fault_array(self):
        m = Mesh((4, 4))
        f = FaultSet(m, [(1, 2), (3, 0)])
        arr = f.node_fault_array()
        assert arr.shape == (2, 4 - 2)  # (2 faults, d=2)
        assert set(map(tuple, arr)) == {(1, 2), (3, 0)}

    def test_with_nodes_as_faults(self):
        m = Mesh((4, 4))
        f = FaultSet(m, [(0, 0)]).with_nodes_as_faults([(1, 1)])
        assert f.num_node_faults == 2

    def test_with_links_as_faults(self):
        m = Mesh((4, 4))
        f = FaultSet(m, [(3, 3)]).with_links_as_faults([((0, 0), (1, 0))])
        assert f.num_link_faults == 1
        assert f.link_is_faulty((0, 0), (1, 0))

    def test_incremental_union_matches_from_scratch(self):
        """Growing a fault set one event at a time is == (and hashes
        identically) to building it in one shot -- the invariant the
        chaos engine's epoch bookkeeping relies on."""
        m = Mesh((5, 5))
        grown = (
            FaultSet(m, [(1, 1)])
            .with_faults(node_faults=[(2, 2)])
            .with_links_as_faults([((0, 0), (0, 1))])
            .with_faults(link_faults=[((3, 3), (3, 4))])
        )
        scratch = FaultSet(
            m,
            [(1, 1), (2, 2)],
            [((0, 0), (0, 1)), ((3, 3), (3, 4))],
        )
        assert grown == scratch
        assert hash(grown) == hash(scratch)

    def test_with_faults_canonicalizes_implied_links(self):
        """A link incident to a *newly added* node fault is dropped by
        the union, exactly as the one-shot constructor would."""
        m = Mesh((4, 4))
        f = FaultSet(m).with_faults(
            node_faults=[(0, 0)], link_faults=[((0, 0), (0, 1))]
        )
        assert f.num_link_faults == 0
        assert f.link_is_faulty((0, 0), (0, 1))  # implied by the node
        assert f == FaultSet(m, [(0, 0)], [((0, 0), (0, 1))])

    def test_links_as_node_faults(self):
        m = Mesh((4, 4))
        f = FaultSet(m, [(3, 3)], [((0, 0), (1, 0)), ((2, 2), (2, 1))])
        converted = f.links_as_node_faults()
        assert converted.num_link_faults == 0
        assert converted.node_is_faulty((0, 0))
        assert converted.node_is_faulty((2, 2))
        assert converted.node_is_faulty((3, 3))

    def test_equality(self):
        m = Mesh((4, 4))
        assert FaultSet(m, [(1, 1), (2, 2)]) == FaultSet(m, [(2, 2), (1, 1)])

    @given(faulty_meshes())
    @settings(max_examples=20, deadline=None)
    def test_f_counts_nodes_and_links(self, faults):
        assert faults.f == faults.num_node_faults + faults.num_link_faults


class TestRandomGenerators:
    def test_random_node_faults(self):
        m = Mesh((8, 8))
        f = random_node_faults(m, 10, np.random.default_rng(0))
        assert f.num_node_faults == 10
        assert len(set(f.node_faults)) == 10

    def test_random_link_faults(self):
        m = Mesh((5, 5))
        f = random_link_faults(m, 7, np.random.default_rng(0))
        assert f.num_link_faults == 7
        assert f.num_node_faults == 0

    def test_random_link_faults_directed_count_is_f(self):
        """Regression for the docstring contract: directed draws give
        exactly ``count`` faulty directed links, so ``f == count``."""
        m = Mesh((6, 6))
        for count in (1, 5, 12):
            f = random_link_faults(m, count, np.random.default_rng(count))
            assert f.num_link_faults == count
            assert f.f == count

    def test_random_link_faults_bidirectional(self):
        m = Mesh((5, 5))
        f = random_link_faults(m, 4, np.random.default_rng(0), bidirectional=True)
        assert f.num_link_faults == 8
        links = set(f.link_faults)
        for (u, v) in sorted(links):
            assert (v, u) in links

    def test_random_link_faults_bidirectional_count_doubles_f(self):
        """Bidirectional draws pick ``count`` physical channels; each
        fails in both directions, so ``|F_L| == 2 * count == f``."""
        m = Mesh((6, 6))
        for count in (1, 3, 9):
            f = random_link_faults(
                m, count, np.random.default_rng(count), bidirectional=True
            )
            assert f.num_link_faults == 2 * count
            assert f.f == 2 * count

    def test_too_many_link_faults(self):
        with pytest.raises(ValueError):
            random_link_faults(Mesh((2, 2)), 100, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "draw",
        [
            lambda m, n, rng: random_node_faults(m, n, rng),
            lambda m, n, rng: random_link_faults(m, n, rng),
            lambda m, n, rng: random_link_faults(m, n, rng, bidirectional=True),
        ],
        ids=["node", "link-directed", "link-bidirectional"],
    )
    def test_negative_count_rejected_zero_allowed(self, draw):
        m = Mesh((4, 4))
        with pytest.raises(ValueError, match="negative.*-1"):
            draw(m, -1, np.random.default_rng(0))
        assert draw(m, 0, np.random.default_rng(0)).f == 0


class TestPatterns:
    def test_rectangular_block(self):
        m = Mesh((8, 8))
        nodes = rectangular_block(m, (2, 3), (2, 2))
        assert sorted(nodes) == [(2, 3), (2, 4), (3, 3), (3, 4)]

    def test_rectangular_block_bounds(self):
        with pytest.raises(ValueError):
            rectangular_block(Mesh((4, 4)), (3, 3), (2, 1))

    def test_cross(self):
        m = Mesh((9, 9))
        nodes = cross_block(m, (4, 4), 2)
        assert (4, 4) in nodes
        assert (2, 4) in nodes and (6, 4) in nodes
        assert (4, 2) in nodes and (4, 6) in nodes
        assert len(nodes) == 9

    def test_cross_clipped_at_border(self):
        nodes = cross_block(Mesh((5, 5)), (0, 0), 2)
        assert all(x >= 0 and y >= 0 for x, y in nodes)

    def test_l_shape(self):
        nodes = l_shaped_block(Mesh((8, 8)), (1, 1), 3, 2)
        assert (1, 1) in nodes and (3, 1) in nodes and (1, 2) in nodes
        assert len(nodes) == 4

    def test_t_shape(self):
        nodes = t_shaped_block(Mesh((8, 8)), (1, 1), 3, 2)
        assert (1, 1) in nodes and (3, 1) in nodes
        assert (2, 2) in nodes and (2, 3) in nodes

    def test_patterns_require_2d(self):
        with pytest.raises(ValueError):
            cross_block(Mesh((4, 4, 4)), (1, 1, 1), 1)
        with pytest.raises(ValueError):
            l_shaped_block(Mesh((4,)), (1,), 1, 1)
