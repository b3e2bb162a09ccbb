"""Tests for the flit-level wormhole simulator
(repro.wormhole.simulator + deadlock + stats)."""

import numpy as np
import pytest

from repro.core import find_lamb_set
from repro.mesh import FaultSet, Mesh, random_node_faults
from repro.routing import max_turns_bound, repeated, xy, xyz
from repro.wormhole import (
    DeadlockError,
    Hop,
    WormholeSimulator,
    uniform_random_traffic,
)


def fresh_sim(widths=(8, 8), fault_nodes=(), k=2, **kw):
    mesh = Mesh(widths)
    faults = FaultSet(mesh, list(fault_nodes))
    pi = xy() if mesh.d == 2 else xyz()
    return WormholeSimulator(faults, repeated(pi, k), **kw)


class TestSingleMessage:
    def test_latency_formula(self):
        """An uncontended message takes hops + flits - 1 cycles
        (pipelining), on straight and multi-dimension two-round routes."""
        for widths, src, dst, flits in (
            ((8, 8), (0, 0), (3, 0), 4),
            ((10, 10), (0, 0), (7, 4), 6),
            ((10, 10), (9, 9), (2, 3), 1),
        ):
            sim = fresh_sim(widths=widths)
            msg = sim.send(src, dst, num_flits=flits)
            stats = sim.run()
            assert stats.delivered == 1
            assert msg.num_hops == sum(abs(a - b) for a, b in zip(src, dst))
            assert msg.latency == msg.num_hops + flits - 1

    def test_single_flit_single_hop(self):
        sim = fresh_sim()
        msg = sim.send((0, 0), (1, 0), num_flits=1)
        sim.run()
        assert msg.latency == 1

    def test_self_message_delivers_instantly(self):
        sim = fresh_sim()
        msg = sim.send((2, 2), (2, 2), num_flits=3)
        assert msg.is_delivered
        sim.run()

    def test_route_avoids_faults(self):
        sim = fresh_sim(fault_nodes=[(2, 0), (1, 1)])
        msg = sim.send((0, 0), (4, 0), num_flits=2)
        for hop in msg.hops:
            assert not sim.faults.node_is_faulty(hop.src)
            assert not sim.faults.node_is_faulty(hop.dst)
        sim.run()
        assert msg.is_delivered

    def test_unreachable_raises(self):
        # Wall: with k=1 round of XY the far side is unreachable.
        wall = [(2, y) for y in range(8)]
        sim = fresh_sim(fault_nodes=wall, k=1)
        with pytest.raises(ValueError):
            sim.send((0, 0), (5, 5))

    def test_vc_assignment_follows_rounds(self):
        sim = fresh_sim(fault_nodes=[(3, 0)])
        msg = sim.send((0, 0), (5, 0), num_flits=1)
        vcs = {h.vc for h in msg.hops}
        assert vcs <= {0, 1}
        # Round order: all VC-0 hops precede VC-1 hops.
        seq = [h.vc for h in msg.hops]
        assert seq == sorted(seq)

    def test_injection_in_past_rejected(self):
        sim = fresh_sim()
        sim.step()
        with pytest.raises(ValueError):
            sim.send((0, 0), (1, 0), inject_cycle=0)


class TestContention:
    def test_channel_serializes(self):
        """Two messages over the same link on the same VC serialize;
        the second waits for the first's tail."""
        sim = fresh_sim()
        a = sim.send((0, 0), (3, 0), num_flits=5)
        b = sim.send((0, 0), (3, 0), num_flits=5)
        stats = sim.run()
        assert stats.delivered == 2
        assert b.deliver_cycle > a.deliver_cycle

    def test_oldest_first_arbitration(self):
        sim = fresh_sim()
        late = sim.send((1, 0), (3, 0), num_flits=3, inject_cycle=2)
        early = sim.send((0, 0), (3, 0), num_flits=3, inject_cycle=0)
        sim.run()
        assert early.deliver_cycle <= late.deliver_cycle

    def test_wormhole_blocking_holds_flits_in_place(self):
        """With tiny buffers a blocked head strands its flits along the
        path (wormhole, not store-and-forward): the blocker's channels
        stay owned until its tail passes."""
        sim = fresh_sim(buffer_flits=1)
        a = sim.send((0, 0), (4, 0), num_flits=8)
        b = sim.send((4, 4), (4, 0), num_flits=8)  # shares column entry
        stats = sim.run()
        assert stats.delivered == 2


class TestDeadlockFreedom:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_traffic_never_deadlocks_with_proper_vcs(self, seed):
        """The paper's discipline (round t on VC t) is deadlock-free."""
        mesh = Mesh((6, 6))
        rng = np.random.default_rng(seed)
        faults = random_node_faults(mesh, 3, rng)
        orderings = repeated(xy(), 2)
        result = find_lamb_set(faults, orderings)
        endpoints = [v for v in mesh.nodes() if result.is_survivor(v)]
        sim = WormholeSimulator(faults, orderings, buffer_flits=1, seed=seed)
        for inj in uniform_random_traffic(endpoints, 80, rng, num_flits=6):
            sim.send(inj.source, inj.dest, inj.num_flits, inj.inject_cycle)
        stats = sim.run(max_cycles=50_000)  # DeadlockError would fail this
        assert stats.delivered == stats.total_messages

    def test_single_vc_ring_deadlocks(self):
        mesh = Mesh((4, 4))
        sim = WormholeSimulator(
            FaultSet(mesh), repeated(xy(), 2),
            vc_of_round=lambda t: 0, num_vcs=1, buffer_flits=1,
        )
        ring = [(0, 0), (2, 0), (2, 2), (0, 2)]

        def L(a, b):
            path = [a]
            x, y = a
            while x != b[0]:
                x += 1 if b[0] > x else -1
                path.append((x, y))
            while y != b[1]:
                y += 1 if b[1] > y else -1
                path.append((x, y))
            return path

        for i in range(4):
            a, b, c = ring[i], ring[(i + 1) % 4], ring[(i + 2) % 4]
            hops = [Hop(u, v, 0) for p in (L(a, b), L(b, c)) for u, v in zip(p, p[1:])]
            sim.send(a, c, num_flits=12, hops=hops)
        with pytest.raises(DeadlockError) as exc:
            sim.run(5000)
        assert len(exc.value.cycle) == 4

    def test_timeout_without_deadlock(self):
        sim = fresh_sim()
        sim.send((0, 0), (7, 7), num_flits=4)
        with pytest.raises(RuntimeError, match="did not drain"):
            sim.run(max_cycles=2)


class TestStats:
    def test_aggregates(self):
        sim = fresh_sim()
        rng = np.random.default_rng(0)
        endpoints = list(Mesh((8, 8)).nodes())
        for inj in uniform_random_traffic(endpoints, 30, rng, num_flits=4):
            sim.send(inj.source, inj.dest, inj.num_flits)
        stats = sim.run()
        assert stats.delivered == stats.total_messages == 30
        assert stats.avg_latency > 0
        assert stats.p95_latency >= stats.avg_latency / 2
        assert stats.max_latency >= stats.p95_latency - 1
        assert stats.throughput_flits_per_cycle > 0
        assert stats.avg_hops > 0
        assert stats.max_turns <= max_turns_bound(2, 2)

    def test_turns_bound_3d(self):
        mesh = Mesh((4, 4, 4))
        faults = FaultSet(mesh, [(1, 1, 1), (2, 2, 2)])
        sim = WormholeSimulator(faults, repeated(xyz(), 2), seed=0)
        rng = np.random.default_rng(0)
        endpoints = [v for v in mesh.nodes() if not faults.node_is_faulty(v)]
        for inj in uniform_random_traffic(endpoints, 40, rng, num_flits=2):
            sim.send(inj.source, inj.dest, inj.num_flits)
        stats = sim.run()
        assert stats.max_turns <= max_turns_bound(3, 2)


class TestVcConfiguration:
    def test_extra_vcs_allowed(self):
        """More VCs than rounds is legal (hardware may have spares)."""
        sim = fresh_sim(num_vcs=4)
        sim.send((0, 0), (3, 3), num_flits=2)
        assert sim.run().delivered == 1

    def test_vc_override_out_of_range_rejected(self):
        sim = fresh_sim(num_vcs=1)  # but 2 rounds want VCs 0 and 1
        wall = [(4, y) for y in range(3)]
        with pytest.raises(ValueError):
            # Any 2-round route whose second round moves will request
            # VC 1 and fail hop validation.
            sim2 = fresh_sim(fault_nodes=wall, num_vcs=1)
            sim2.send((0, 0), (6, 0), num_flits=2)

    def test_custom_vc_map(self):
        sim = fresh_sim(num_vcs=3, vc_of_round=lambda t: t + 1)
        msg = sim.send((0, 0), (3, 0), num_flits=2)
        assert {h.vc for h in msg.hops} == {1}
        sim.run()
