"""Tests for k-round reachability (repro.routing.multiround) and
route materialization (repro.routing.reachindex)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_reach_index
from repro.mesh import FaultSet, Mesh
from repro.routing import (
    FaultGrids,
    KRoundOrdering,
    LineFaultIndex,
    Ordering,
    count_turns_multiround,
    dor_path,
    find_k_round_route,
    k_round_reachable,
    max_turns_bound,
    multi_source_reach_sets,
    one_round_reachable,
    path_is_fault_free,
    reach_set_k_rounds,
    reach_set_one_round,
    repeated,
    reverse_reach_set_one_round,
    xy,
    xyz,
)

from conftest import faulty_meshes, faulty_meshes_with_ordering, good_node_pairs


def _start_grid(mesh, v):
    g = np.zeros(mesh.widths, dtype=bool)
    g[tuple(v)] = True
    return g


class TestOneRoundReachSet:
    @given(faulty_meshes_with_ordering())
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_reachability(self, fm):
        """The grid propagation must agree with the per-pair segment
        test for every destination."""
        faults, pi = fm
        mesh = faults.mesh
        grids = FaultGrids(faults)
        idx = LineFaultIndex(faults)
        for v, _ in good_node_pairs(faults, 3):
            reach = reach_set_one_round(grids, pi, _start_grid(mesh, v))
            for w in mesh.nodes():
                assert reach[w] == one_round_reachable(idx, pi, v, w), (v, w)

    @given(faulty_meshes_with_ordering())
    @settings(max_examples=30, deadline=None)
    def test_reverse_matches_forward(self, fm):
        """u in reverse_reach(w) iff w in reach(u)."""
        faults, pi = fm
        mesh = faults.mesh
        grids = FaultGrids(faults)
        for _, w in good_node_pairs(faults, 2):
            if faults.node_is_faulty(w):
                continue
            rev = reverse_reach_set_one_round(grids, pi, _start_grid(mesh, w))
            for u in faults.good_nodes():
                fwd = reach_set_one_round(grids, pi, _start_grid(mesh, u))
                assert rev[u] == fwd[tuple(w)], (u, w)


class TestKRounds:
    def test_two_rounds_heal_one_round_gap(self):
        # From the paper: (3,2) unreachable from (0,0) in one XY round
        # when (2,0) is faulty, but reachable in two.
        m = Mesh((12, 12))
        faults = FaultSet(m, [(2, 0)])
        grids = FaultGrids(faults)
        assert not k_round_reachable(grids, repeated(xy(), 1), (0, 0), (3, 2))
        assert k_round_reachable(grids, repeated(xy(), 2), (0, 0), (3, 2))

    def test_monotone_in_k(self):
        m = Mesh((8, 8))
        faults = FaultSet(m, [(3, 3), (4, 2), (2, 5)])
        grids = FaultGrids(faults)
        r1 = reach_set_k_rounds(grids, repeated(xy(), 1), (0, 0))
        r2 = reach_set_k_rounds(grids, repeated(xy(), 2), (0, 0))
        r3 = reach_set_k_rounds(grids, repeated(xy(), 3), (0, 0))
        assert (r1 <= r2).all() and (r2 <= r3).all()

    def test_faulty_source_reaches_nothing(self):
        m = Mesh((6, 6))
        faults = FaultSet(m, [(2, 2)])
        grids = FaultGrids(faults)
        assert not reach_set_k_rounds(grids, repeated(xy(), 2), (2, 2)).any()

    def test_mixed_orderings(self):
        m = Mesh((6, 6))
        # A wall along x=2 except a hole at y=5.  Crossing it and
        # coming back down to (5, 0) needs a round that ends with a Y
        # segment after the crossing: (YX, XY) succeeds where (XY, YX)
        # cannot (YX's final X segment is blocked on row 0).
        faults = FaultSet(m, [(2, y) for y in range(5)])
        grids = FaultGrids(faults)
        good = KRoundOrdering([Ordering((1, 0)), Ordering((0, 1))])
        bad = KRoundOrdering([Ordering((0, 1)), Ordering((1, 0))])
        assert k_round_reachable(grids, good, (0, 0), (5, 0))
        assert not k_round_reachable(grids, bad, (0, 0), (5, 0))

    @given(faulty_meshes(max_d=2, max_width=6, allow_link_faults=True))
    @settings(max_examples=20, deadline=None)
    def test_two_round_composition(self, faults):
        """v 2-reaches w iff some u with v ->1 u and u ->1 w exists."""
        mesh = faults.mesh
        grids = FaultGrids(faults)
        pi = xy() if mesh.d == 2 else Ordering(range(mesh.d))
        pairs = good_node_pairs(faults, 4)
        for v, w in pairs:
            r1v = reach_set_one_round(grids, pi, _start_grid(mesh, v))
            expected = False
            for u in mesh.nodes():
                if r1v[u]:
                    r1u = reach_set_one_round(grids, pi, _start_grid(mesh, u))
                    if r1u[tuple(w)]:
                        expected = True
                        break
            got = k_round_reachable(grids, repeated(pi, 2), v, w)
            assert got == expected, (v, w)


class TestMultiSourceReachSets:
    """The bit-parallel word-lane kernel against its sequential oracle."""

    @given(faulty_meshes(max_d=3, max_width=6, allow_link_faults=True),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_matches_sequential_oracle(self, faults, k):
        mesh = faults.mesh
        grids = FaultGrids(faults)
        pi = xy() if mesh.d == 2 else Ordering(range(mesh.d))
        orderings = repeated(pi, k)
        sources = [tuple(v) for v in mesh.nodes()]
        rows = multi_source_reach_sets(grids, orderings, sources)
        assert rows.shape == (len(sources), mesh.num_nodes)
        for v, row in zip(sources, rows):
            expect = reach_set_k_rounds(grids, orderings, v).reshape(-1)
            assert np.array_equal(row, expect), v

    def test_more_than_64_sources_cross_word_boundary(self):
        # 100 sources forces two uint64 words per node; lane packing
        # must keep each source in its own bit.
        m = Mesh((10, 10))
        faults = FaultSet(m, [(4, 4), (5, 2), (2, 7)])
        grids = FaultGrids(faults)
        orderings = repeated(xy(), 2)
        sources = [tuple(v) for v in m.nodes()][:100]
        rows = multi_source_reach_sets(grids, orderings, sources)
        for v, row in zip(sources, rows):
            expect = reach_set_k_rounds(grids, orderings, v).reshape(-1)
            assert np.array_equal(row, expect), v

    def test_faulty_source_row_all_false(self):
        m = Mesh((6, 6))
        faults = FaultSet(m, [(2, 2)])
        grids = FaultGrids(faults)
        rows = multi_source_reach_sets(grids, repeated(xy(), 2), [(2, 2)])
        assert not rows.any()

    def test_empty_sources(self):
        m = Mesh((4, 4))
        grids = FaultGrids(FaultSet(m))
        rows = multi_source_reach_sets(grids, repeated(xy(), 2), [])
        assert rows.shape == (0, m.num_nodes)


class TestRouteMaterialization:
    @given(faulty_meshes(max_d=3, max_width=6))
    @settings(max_examples=25, deadline=None)
    def test_routes_are_valid_and_fault_free(self, faults):
        mesh = faults.mesh
        grids = FaultGrids(faults)
        orderings = repeated(Ordering(range(mesh.d)), 2)
        index = build_reach_index(faults, orderings)
        rng = np.random.default_rng(0)
        for v, w in good_node_pairs(faults, 4):
            paths = find_k_round_route(index, v, w, rng=rng)
            reachable = k_round_reachable(grids, orderings, v, w)
            assert (paths is not None) == reachable
            if paths is None:
                continue
            assert paths[0][0] == tuple(v)
            assert paths[-1][-1] == tuple(w)
            for t, p in enumerate(paths):
                assert path_is_fault_free(faults, p)
                # Each round's path is a valid DOR route for its ordering.
                assert p == dor_path(mesh, orderings[t], p[0], p[-1])
            assert count_turns_multiround(paths) <= max_turns_bound(
                mesh.d, orderings.k
            )

    def test_policies_give_valid_routes(self):
        m = Mesh((8, 8))
        faults = FaultSet(m, [(3, 0), (3, 1), (0, 3), (1, 3)])
        index = build_reach_index(faults, repeated(xy(), 2))
        rng = np.random.default_rng(1)
        for policy in ("shortest", "first", "random"):
            paths = find_k_round_route(
                index, (0, 0), (7, 7), policy=policy, rng=rng
            )
            assert paths is not None
            for p in paths:
                assert path_is_fault_free(faults, p)

    def test_shortest_policy_is_minimal(self):
        m = Mesh((8, 8))
        index = build_reach_index(FaultSet(m), repeated(xy(), 2))
        paths = find_k_round_route(index, (0, 0), (5, 5))
        assert paths is not None
        hops = sum(len(p) - 1 for p in paths)
        assert hops == 10  # fault-free: exactly the L1 distance

    @pytest.mark.parametrize(
        "k, faults, dest",
        [
            (1, [], (3, 3)),
            (2, [], (3, 3)),
            # Unreachable: (3, 3) is walled in by faulty neighbours.
            (2, [(2, 3), (3, 2)], (3, 3)),
        ],
        ids=["k1", "k2", "unreachable"],
    )
    def test_unknown_policy(self, k, faults, dest):
        m = Mesh((4, 4))
        index = build_reach_index(FaultSet(m, faults), repeated(xy(), k))
        with pytest.raises(ValueError, match="unknown policy 'bogus'"):
            find_k_round_route(index, (0, 0), dest, policy="bogus")

    def test_faulty_endpoint_returns_none(self):
        m = Mesh((4, 4))
        index = build_reach_index(FaultSet(m, [(0, 0)]), repeated(xy(), 2))
        assert find_k_round_route(index, (0, 0), (3, 3)) is None
        assert find_k_round_route(index, (3, 3), (0, 0)) is None
