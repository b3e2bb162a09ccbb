"""Tests for traffic generators (repro.wormhole.traffic) and the
deadlock detector primitives (repro.wormhole.deadlock)."""

import numpy as np
import pytest

from repro.mesh import FaultSet, Mesh
from repro.wormhole import (
    Hop,
    Message,
    VirtualNetwork,
    build_wait_graph,
    find_deadlock_cycle,
    hotspot_traffic,
    permutation_traffic,
    transpose_traffic,
    uniform_random_traffic,
)


@pytest.fixture
def pool():
    return [(x, y) for x in range(4) for y in range(4)]


class TestUniform:
    def test_no_self_messages(self, pool, rng):
        for inj in uniform_random_traffic(pool, 200, rng):
            assert inj.source != inj.dest
            assert inj.source in pool and inj.dest in pool

    def test_inject_window(self, pool, rng):
        injections = uniform_random_traffic(pool, 100, rng, inject_window=10)
        cycles = {i.inject_cycle for i in injections}
        assert all(0 <= c <= 10 for c in sorted(cycles))
        assert len(cycles) > 1

    def test_needs_two_endpoints(self, rng):
        with pytest.raises(ValueError):
            uniform_random_traffic([(0, 0)], 5, rng)


class TestPermutation:
    def test_is_derangement(self, pool, rng):
        injections = permutation_traffic(pool, rng)
        assert len(injections) == len(pool)
        sources = [i.source for i in injections]
        dests = [i.dest for i in injections]
        assert sorted(sources) == sorted(pool)
        assert sorted(dests) == sorted(pool)
        assert all(s != d for s, d in zip(sources, dests))


class TestHotspot:
    def test_hotspot_receives_fraction(self, pool, rng):
        injections = hotspot_traffic(
            pool, 300, rng, hotspot=(1, 1), hotspot_fraction=0.5
        )
        hot = sum(1 for i in injections if i.dest == (1, 1))
        assert hot >= 100  # ~50% +- noise
        assert all(i.source != i.dest for i in injections)

    def test_hotspot_must_be_endpoint(self, pool, rng):
        with pytest.raises(ValueError):
            hotspot_traffic(pool, 10, rng, hotspot=(9, 9))


class TestTranspose:
    def test_pairs(self, pool):
        m = Mesh((4, 4))
        injections = transpose_traffic(m, pool)
        for inj in injections:
            x, y = inj.source
            assert inj.dest == (y, x)
            assert x != y  # diagonal nodes excluded

    def test_respects_pool(self):
        m = Mesh((4, 4))
        pool = [(0, 1), (2, 3)]  # transposes missing from the pool
        assert transpose_traffic(m, pool) == []

    def test_requires_square_2d(self):
        with pytest.raises(ValueError):
            transpose_traffic(Mesh((4, 5)), [(0, 0), (1, 1)])


class TestDeadlockDetector:
    def _msg(self, mid, hops):
        return Message(mid, hops[0].src, hops[-1].dst, 2, hops, inject_cycle=0)

    def test_wait_graph_edges(self):
        mesh = Mesh((4, 4))
        net = VirtualNetwork(FaultSet(mesh), num_vcs=1)
        h1 = Hop((0, 0), (1, 0), 0)
        h2 = Hop((1, 0), (2, 0), 0)
        m1 = self._msg(1, [h1, h2])
        m2 = self._msg(2, [h2])
        # m1 holds h1 and wants h2; m2 holds h2.
        net.try_acquire(h1, 1)
        m1.flit_pos = [0, -1]
        net.try_acquire(h2, 2)
        graph = build_wait_graph([m1, m2], net)
        assert graph == {1: 2}

    def test_cycle_detection(self):
        assert find_deadlock_cycle({1: 2, 2: 3, 3: 1}) is not None
        assert sorted(find_deadlock_cycle({1: 2, 2: 1})) == [1, 2]
        assert find_deadlock_cycle({1: 2, 2: 3}) is None
        assert find_deadlock_cycle({}) is None

    def test_tail_into_cycle(self):
        cycle = find_deadlock_cycle({0: 1, 1: 2, 2: 1})
        assert sorted(cycle) == [1, 2]
