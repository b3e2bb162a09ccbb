"""Tests for virtual-channel bookkeeping (repro.wormhole.network) and
message state (repro.wormhole.packets)."""

import pytest

from repro.mesh import FaultSet, Mesh
from repro.wormhole import Hop, Message, VirtualNetwork


def make_net(**kw):
    m = Mesh((4, 4))
    faults = FaultSet(m, [(2, 2)])
    defaults = dict(num_vcs=2, buffer_flits=2)
    defaults.update(kw)
    return VirtualNetwork(faults, **defaults)


class TestValidation:
    def test_valid_hop(self):
        net = make_net()
        net.validate_hop(Hop((0, 0), (0, 1), 0))

    def test_rejects_bad_vc(self):
        net = make_net()
        with pytest.raises(ValueError):
            net.validate_hop(Hop((0, 0), (0, 1), 2))
        with pytest.raises(ValueError):
            net.validate_hop(Hop((0, 0), (0, 1), -1))

    def test_rejects_non_link(self):
        net = make_net()
        with pytest.raises(ValueError):
            net.validate_hop(Hop((0, 0), (1, 1), 0))

    def test_rejects_faulty_node(self):
        net = make_net()
        with pytest.raises(ValueError):
            net.validate_hop(Hop((2, 1), (2, 2), 0))

    def test_rejects_faulty_link(self):
        m = Mesh((4, 4))
        faults = FaultSet(m, (), [((0, 0), (0, 1))])
        net = VirtualNetwork(faults, num_vcs=1)
        with pytest.raises(ValueError):
            net.validate_hop(Hop((0, 0), (0, 1), 0))
        net.validate_hop(Hop((0, 1), (0, 0), 0))  # reverse direction fine

    @pytest.mark.parametrize("src, dst", [
        ((0, 7), (0, 8)),        # destination outside M2(8)
        ((-1, 0), (0, 0)),       # source outside M2(8)
        ((0, 0, 0), (0, 0, 1)),  # 3-D nodes on a 2-D mesh
        ((0, 0), (0, 0, 1)),     # mixed arity
    ])
    def test_rejects_out_of_mesh_and_wrong_arity(self, src, dst):
        net = VirtualNetwork(FaultSet(Mesh((8, 8))), num_vcs=1)
        with pytest.raises(ValueError, match="is not a link"):
            net.validate_hop(Hop(src, dst, 0))
        with pytest.raises(ValueError, match="is not a link"):
            net.admit_route([Hop((0, 0), (0, 1), 0), Hop(src, dst, 0)])

    def test_rejects_after_apply_faults(self):
        """A hop admitted (and interned) before a live fault must be
        rejected once the fault set grows: node and directed link."""
        m = Mesh((4, 4))
        net = VirtualNetwork(FaultSet(m), num_vcs=1)
        node_hop = Hop((1, 0), (1, 1), 0)
        link_hop = Hop((0, 0), (0, 1), 0)
        reverse = Hop((0, 1), (0, 0), 0)
        ids = net.admit_route([node_hop, link_hop, reverse])
        net.apply_faults(FaultSet(m, [(1, 1)], [((0, 0), (0, 1))]))
        with pytest.raises(ValueError, match="touches a faulty node"):
            net.validate_hop(node_hop)
        with pytest.raises(ValueError, match="uses a faulty link"):
            net.validate_hop(link_hop)
        assert net.admit_route([reverse]) == ids[2:]

    def test_admit_route_returns_stable_ids(self):
        net = make_net()
        route = [Hop((0, 0), (0, 1), 0), Hop((0, 1), (1, 1), 1)]
        ids = net.admit_route(route)
        assert len(set(ids)) == 2
        assert net.admit_route(route) == ids
        assert [net.resource_key(i) for i in ids] == [
            (h.src, h.dst, h.vc) for h in route
        ]

    def test_send_rejects_bad_explicit_hops(self):
        from repro.routing import repeated, xy
        from repro.wormhole import WormholeSimulator

        faults = FaultSet(Mesh((4, 4)), [(2, 2)])
        sim = WormholeSimulator(faults, repeated(xy(), 2))
        bad = {
            "uses VC 2, have 2": Hop((0, 0), (0, 1), 2),
            "is not a link": Hop((0, 0), (1, 1), 0),
            "touches a faulty node": Hop((2, 1), (2, 2), 0),
        }
        for message, hop in bad.items():
            with pytest.raises(ValueError, match=message):
                sim.send((0, 0), (0, 1), hops=[hop])
        assert not sim.messages

    def test_constructor_validation(self):
        m = Mesh((4, 4))
        with pytest.raises(ValueError):
            VirtualNetwork(FaultSet(m), num_vcs=0)
        with pytest.raises(ValueError):
            VirtualNetwork(FaultSet(m), num_vcs=1, buffer_flits=0)


class TestOwnership:
    def test_acquire_release(self):
        net = make_net()
        hop = Hop((0, 0), (0, 1), 0)
        assert net.owner(hop) is None
        assert net.try_acquire(hop, 1)
        assert net.owner(hop) == 1
        assert net.try_acquire(hop, 1)  # idempotent for the owner
        assert not net.try_acquire(hop, 2)
        net.release(hop, 1)
        assert net.owner(hop) is None
        assert net.try_acquire(hop, 2)

    def test_vcs_are_independent(self):
        net = make_net()
        assert net.try_acquire(Hop((0, 0), (0, 1), 0), 1)
        assert net.try_acquire(Hop((0, 0), (0, 1), 1), 2)

    def test_release_requires_owner(self):
        net = make_net()
        hop = Hop((0, 0), (0, 1), 0)
        net.try_acquire(hop, 1)
        with pytest.raises(RuntimeError):
            net.release(hop, 2)


class TestBuffers:
    def test_capacity(self):
        net = make_net(buffer_flits=2)
        hop = Hop((0, 0), (0, 1), 0)
        assert net.buffer_has_space(hop)
        net.buffer_push(hop)
        net.buffer_push(hop)
        assert not net.buffer_has_space(hop)
        with pytest.raises(RuntimeError):
            net.buffer_push(hop)
        net.buffer_pop(hop)
        assert net.buffer_has_space(hop)

    def test_pop_empty_raises(self):
        net = make_net()
        with pytest.raises(RuntimeError):
            net.buffer_pop(Hop((0, 0), (0, 1), 0))


class TestCycleBandwidth:
    def test_one_flit_per_cycle(self):
        net = make_net()
        hop = Hop((0, 0), (0, 1), 0)
        assert net.channel_free_this_cycle(hop)
        net.mark_channel_used(hop)
        assert not net.channel_free_this_cycle(hop)
        net.new_cycle()
        assert net.channel_free_this_cycle(hop)


class TestMessage:
    def test_construction(self):
        hops = [Hop((0, 0), (1, 0), 0), Hop((1, 0), (1, 1), 1)]
        m = Message(0, (0, 0), (1, 1), 4, hops, inject_cycle=3)
        assert m.num_hops == 2
        assert m.head_pos == -1 and m.tail_pos == -1
        assert m.next_hop_index() == 0
        assert not m.is_delivered
        assert m.latency is None
        assert m.path_nodes() == [(0, 0), (1, 0), (1, 1)]

    def test_rejects_zero_flits(self):
        with pytest.raises(ValueError):
            Message(0, (0, 0), (0, 1), 0, [], inject_cycle=0)

    def test_latency(self):
        m = Message(0, (0, 0), (0, 1), 1, [Hop((0, 0), (0, 1), 0)], inject_cycle=5)
        m.deliver_cycle = 9
        assert m.latency == 4
        assert m.is_delivered
