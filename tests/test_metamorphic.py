"""Metamorphic properties: symmetries and monotonicities the system
must respect regardless of instance details."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import find_lamb_set, find_ses_partition
from repro.mesh import FaultSet, Mesh
from repro.routing import (
    FaultGrids,
    Ordering,
    ascending,
    reach_set_k_rounds,
    repeated,
    xy,
)

from conftest import faulty_meshes, faulty_meshes_with_ordering


class TestFaultMonotonicity:
    @given(faulty_meshes(max_d=2, max_width=6, allow_link_faults=False))
    @settings(max_examples=20, deadline=None)
    def test_more_faults_never_extend_reach(self, faults):
        """Adding a fault can only shrink every reach set."""
        mesh = faults.mesh
        if faults.num_node_faults == 0:
            return
        smaller = FaultSet(mesh, faults.node_faults[:-1])
        orderings = repeated(ascending(mesh.d), 2)
        g_small = FaultGrids(smaller)
        g_big = FaultGrids(faults)
        for v in smaller.good_nodes()[:6]:
            if faults.node_is_faulty(v):
                continue
            big = reach_set_k_rounds(g_big, orderings, v)
            small = reach_set_k_rounds(g_small, orderings, v)
            assert (big <= small).all()

    @given(faulty_meshes(max_d=2, max_width=5, max_node_faults=4,
                         allow_link_faults=False))
    @settings(max_examples=15, deadline=None)
    def test_one_extra_fault_changes_optimum_by_at_most_one(self, faults):
        """λ(F) <= λ(F ∪ {v}) + 1: a lamb set for the larger fault set
        plus the newly faulted node is a lamb set for the smaller."""
        mesh = faults.mesh
        if faults.num_node_faults == 0:
            return
        smaller = FaultSet(mesh, faults.node_faults[:-1])
        orderings = repeated(ascending(mesh.d), 2)
        lam_small = find_lamb_set(smaller, orderings, method="general-exact",
                                  wvc_max_vertices=60)
        lam_big = find_lamb_set(faults, orderings, method="general-exact",
                                wvc_max_vertices=60)
        assert lam_small.size <= lam_big.size + 1


class TestRoundMonotonicity:
    @given(faulty_meshes(max_d=2, max_width=5, max_node_faults=4,
                         allow_link_faults=False))
    @settings(max_examples=12, deadline=None)
    def test_optimal_lamb_size_nonincreasing_in_k(self, faults):
        """For fixed M, F, pi: λ(M, k, F) can only decrease as k grows
        (remark after Definition 2.7)."""
        orderings = [repeated(ascending(faults.mesh.d), k) for k in (1, 2, 3)]
        sizes = [
            find_lamb_set(faults, o, method="general-exact",
                          wvc_max_vertices=60).size
            for o in orderings
        ]
        assert sizes[0] >= sizes[1] >= sizes[2]


def _permute_instance(faults: FaultSet, perm):
    """Apply a dimension permutation to mesh + faults."""
    mesh = faults.mesh
    new_mesh = Mesh(tuple(mesh.widths[p] for p in perm))
    nodes = [tuple(v[p] for p in perm) for v in faults.node_faults]
    links = [
        (tuple(u[p] for p in perm), tuple(w[p] for p in perm))
        for (u, w) in faults.link_faults
    ]
    return FaultSet(new_mesh, nodes, links)


class TestDimensionPermutationSymmetry:
    @given(faulty_meshes_with_ordering(max_width=5))
    @settings(max_examples=20, deadline=None)
    def test_lamb_size_invariant(self, fm):
        """Relabeling dimensions consistently (mesh widths, fault
        coordinates, and the routing order) cannot change the lamb
        count or partition size."""
        faults, pi = fm
        d = faults.mesh.d
        perm = tuple(reversed(range(d)))  # a fixed nontrivial relabeling
        inv = [0] * d
        for i, p in enumerate(perm):
            inv[p] = i
        permuted = _permute_instance(faults, perm)
        # The ordering must follow the relabeling: routed dim pi[t]
        # becomes inv[pi[t]].
        pi2 = Ordering(tuple(inv[j] for j in pi.perm))
        a = find_lamb_set(faults, repeated(pi, 2))
        b = find_lamb_set(permuted, repeated(pi2, 2))
        assert a.size == b.size
        assert a.num_ses == b.num_ses
        assert a.num_des == b.num_des
        # The relabeled lamb set is a valid lamb set for the relabeled
        # instance (exact equality would over-constrain WVC
        # tie-breaking).
        from repro.core import is_lamb_set

        mapped = {tuple(v[p] for p in perm) for v in a.lambs}
        assert is_lamb_set(permuted, repeated(pi2, 2), mapped)


def _reflect_instance(faults: FaultSet, axis: int):
    mesh = faults.mesh
    n = mesh.widths[axis]

    def rf(v):
        v = list(v)
        v[axis] = n - 1 - v[axis]
        return tuple(v)

    nodes = [rf(v) for v in faults.node_faults]
    links = [(rf(u), rf(w)) for (u, w) in faults.link_faults]
    return FaultSet(mesh, nodes, links), rf


class TestReflectionSymmetry:
    @given(faulty_meshes_with_ordering(max_width=5))
    @settings(max_examples=20, deadline=None)
    def test_lamb_set_reflects(self, fm):
        """Mirroring the mesh along any axis mirrors the problem: the
        dimension-ordered route structure is preserved, so lamb sizes
        are invariant and SES partitions map bijectively."""
        faults, pi = fm
        axis = pi.perm[0]
        reflected, rf = _reflect_instance(faults, axis)
        a = find_lamb_set(faults, repeated(pi, 2))
        b = find_lamb_set(reflected, repeated(pi, 2))
        assert a.size == b.size
        assert a.num_ses == b.num_ses

    @given(faulty_meshes_with_ordering(max_width=5))
    @settings(max_examples=15, deadline=None)
    def test_partition_sizes_reflect(self, fm):
        faults, pi = fm
        for axis in range(faults.mesh.d):
            reflected, _ = _reflect_instance(faults, axis)
            assert len(find_ses_partition(faults, pi)) == len(
                find_ses_partition(reflected, pi)
            )


class TestWormholeConservation:
    def test_network_fully_released_after_drain(self):
        """After draining, no resource is owned and no buffer holds a
        flit (conservation of flits + clean teardown)."""
        from repro.wormhole import WormholeSimulator, uniform_random_traffic

        mesh = Mesh((8, 8))
        faults = FaultSet(mesh, [(3, 3)])
        sim = WormholeSimulator(faults, repeated(xy(), 2), seed=0)
        rng = np.random.default_rng(0)
        endpoints = faults.good_nodes()
        for inj in uniform_random_traffic(endpoints, 50, rng, num_flits=5):
            sim.send(inj.source, inj.dest, inj.num_flits, inj.inject_cycle)
        sim.run()
        assert sim.net.is_idle()
        delivered_flits = sum(
            m.num_flits for m in sim.messages.values() if m.is_delivered
        )
        assert delivered_flits == sum(m.num_flits for m in sim.messages.values())

    def test_flit_positions_ordered_throughout(self):
        """Invariant: flit positions are non-increasing (no flit passes
        its predecessor) at every cycle."""
        from repro.wormhole import WormholeSimulator

        mesh = Mesh((8, 8))
        sim = WormholeSimulator(FaultSet(mesh), repeated(xy(), 2), seed=0)
        sim.send((0, 0), (7, 7), num_flits=6)
        sim.send((7, 0), (0, 7), num_flits=6)
        sim.send((0, 7), (7, 0), num_flits=6)
        while not all(m.is_delivered for m in sim.messages.values()):
            sim.step()
            for m in sim.messages.values():
                assert all(
                    a >= b for a, b in zip(m.flit_pos, m.flit_pos[1:])
                )
