"""Virtual-channel bookkeeping for the wormhole simulator.

A *resource* is a (physical directed link, virtual channel) pair.  In
wormhole switching a resource is owned exclusively by one message from
the time its head flit is routed onto it until its tail flit has
crossed it; each resource also has a small downstream flit buffer and
a bandwidth of one flit per cycle.

Hot-path note: each ``(src, dst, vc)`` resource is interned once, on
first use, into a dense integer id, and the network's whole state is
three flat lists indexed by that id — :attr:`VirtualNetwork.owners`,
:attr:`VirtualNetwork.occupancy` and :attr:`VirtualNetwork.used_at`.
Interning grows with the resources touched, never with the mesh.
:meth:`VirtualNetwork.admit_route` validates a whole route in one pass
and returns its id list, which the simulator keeps on the message
(:attr:`repro.wormhole.Message.hop_ids`); the flit kernel then reads
and writes the lists directly, with no tuple hashing and no method
call per flit.  Per-cycle link bandwidth is a cycle *stamp*: resource
``r`` was used this cycle iff ``used_at[r] == stamp``, so
:meth:`VirtualNetwork.new_cycle` is O(1).  The hop-taking methods are
thin wrappers over the same lists, kept for diagnostics and tests.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..mesh.faults import FaultSet
from ..mesh.geometry import Link, Node
from .packets import Hop

__all__ = ["ResourceKey", "VirtualNetwork"]

ResourceKey = Tuple[Node, Node, int]  # (src, dst, vc)


class VirtualNetwork:
    """Ownership, buffer occupancy and per-cycle bandwidth state.

    Parameters
    ----------
    faults:
        Fault set; routing over a faulty node or link is rejected at
        route admission (routes are supposed to be fault-free by
        construction — this is a safety net, not a routing layer).
    num_vcs:
        Number of virtual channels per physical link.
    buffer_flits:
        Downstream buffer capacity per resource, in flits.

    Attributes
    ----------
    owners, occupancy, used_at:
        Per resource id: the owning message id (None = free), the
        flits in its downstream buffer, and the last cycle stamp that
        moved a flit over it.
    stamp:
        The current cycle stamp.
    """

    def __init__(self, faults: FaultSet, num_vcs: int, buffer_flits: int = 2):
        if num_vcs < 1:
            raise ValueError("need at least one virtual channel")
        if buffer_flits < 1:
            raise ValueError("need at least one flit of buffering")
        self.mesh = faults.mesh
        self.num_vcs = num_vcs
        self.buffer_flits = buffer_flits
        self._ids: Dict[ResourceKey, int] = {}
        self._keys: List[ResourceKey] = []
        self.owners: List[Optional[int]] = []
        self.occupancy: List[int] = []
        self.used_at: List[int] = []
        self.stamp = 0
        self._set_faults(faults)

    def _set_faults(self, faults: FaultSet) -> None:
        self.faults = faults
        self._dead_nodes: FrozenSet[Node] = frozenset(faults.node_faults)
        self._dead_links: FrozenSet[Link] = frozenset(faults.link_faults)

    # ------------------------------------------------------------------
    def _intern(self, key: ResourceKey) -> int:
        """The id of resource ``key``, allocated on first use.  Only
        real resources get an id — a VC in range on a mesh link — and
        both stay real: the mesh is fixed and VCs only grow."""
        rid = self._ids.get(key)
        if rid is not None:
            return rid
        src, dst, vc = key
        if vc < 0 or vc >= self.num_vcs:
            raise ValueError(f"hop uses VC {vc}, have {self.num_vcs}")
        if not self.mesh.are_adjacent(src, dst):
            raise ValueError(f"hop {src} -> {dst} is not a link")
        rid = len(self._keys)
        self._ids[key] = rid
        self._keys.append(key)
        self.owners.append(None)
        self.occupancy.append(0)
        self.used_at.append(-1)
        return rid

    def resource_key(self, rid: int) -> ResourceKey:
        """The ``(src, dst, vc)`` resource behind id ``rid``."""
        return self._keys[rid]

    def admit_route(self, hops: Iterable[Hop]) -> List[int]:
        """Validate a route and return its resource ids, one per hop.

        Rejects, with ValueError and in this order, a hop on an unknown
        VC, a hop that is not a mesh link, one that touches a faulty
        node and one over a faulty directed link.
        """
        ids = self._ids
        dead = self._dead_nodes
        dead_links = self._dead_links
        out: List[int] = []
        for hop in hops:
            src = hop.src
            dst = hop.dst
            rid = ids.get((src, dst, hop.vc))
            if rid is None:
                rid = self._intern((src, dst, hop.vc))
            if src in dead or dst in dead:
                raise ValueError(f"hop {src} -> {dst} touches a faulty node")
            if (src, dst) in dead_links:
                raise ValueError(f"hop {src} -> {dst} uses a faulty link")
            out.append(rid)
        return out

    def validate_hop(self, hop: Hop) -> None:
        """Reject a hop that uses faulty hardware or an unknown VC."""
        self.admit_route((hop,))

    # ------------------------------------------------------------------
    def apply_faults(self, faults: FaultSet) -> None:
        """Swap in a grown fault set (live-fault epoch).

        Future admissions see the new state; in-flight state is
        untouched — the simulator is responsible for aborting and
        draining messages whose acquired paths now cross a fault.
        """
        if faults.mesh != self.mesh:
            raise ValueError("live faults must live in the same mesh")
        self._set_faults(faults)

    def grow_vcs(self, num_vcs: int) -> None:
        """Raise the VC count (degradation ladder: escalating k rounds
        needs one VC per round).  Shrinking is rejected — resources on
        the removed VCs could still be owned."""
        if num_vcs < self.num_vcs:
            raise ValueError("cannot shrink the VC count mid-flight")
        self.num_vcs = num_vcs

    def release_message(self, msg_id: int) -> int:
        """Force-release every resource owned by ``msg_id`` (abort /
        drain path).  Returns the number of resources released."""
        owners = self.owners
        released = 0
        for rid, owner in enumerate(owners):
            if owner == msg_id:
                owners[rid] = None
                released += 1
        return released

    def owned_resources(self, msg_id: int) -> Set[ResourceKey]:
        """All (link, VC) resources currently owned by ``msg_id``
        (watchdog diagnostics)."""
        keys = self._keys
        return {keys[rid] for rid, owner in enumerate(self.owners)
                if owner == msg_id}

    def is_idle(self) -> bool:
        """No resource is owned and no buffer holds a flit."""
        return not any(self.occupancy) and all(
            owner is None for owner in self.owners
        )

    # ------------------------------------------------------------------
    # Hop-based wrappers (diagnostics, tests)
    # ------------------------------------------------------------------
    def _rid(self, hop: Hop) -> int:
        return self._intern((hop.src, hop.dst, hop.vc))

    def owner(self, hop: Hop) -> Optional[int]:
        return self.owners[self._rid(hop)]

    def try_acquire(self, hop: Hop, msg_id: int) -> bool:
        """Acquire the resource for ``msg_id`` if free."""
        rid = self._rid(hop)
        holder = self.owners[rid]
        if holder is None:
            self.owners[rid] = msg_id
            return True
        return holder == msg_id

    def release(self, hop: Hop, msg_id: int) -> None:
        rid = self._rid(hop)
        if self.owners[rid] != msg_id:
            raise RuntimeError(
                f"message {msg_id} does not own {self._keys[rid]}"
            )
        self.owners[rid] = None

    def buffer_has_space(self, hop: Hop) -> bool:
        return self.occupancy[self._rid(hop)] < self.buffer_flits

    def buffer_push(self, hop: Hop) -> None:
        rid = self._rid(hop)
        if self.occupancy[rid] >= self.buffer_flits:
            raise RuntimeError(f"buffer overflow on {self._keys[rid]}")
        self.occupancy[rid] += 1

    def buffer_pop(self, hop: Hop) -> None:
        rid = self._rid(hop)
        if self.occupancy[rid] <= 0:
            raise RuntimeError(f"buffer underflow on {self._keys[rid]}")
        self.occupancy[rid] -= 1

    def channel_free_this_cycle(self, hop: Hop) -> bool:
        return self.used_at[self._rid(hop)] != self.stamp

    def mark_channel_used(self, hop: Hop) -> None:
        self.used_at[self._rid(hop)] = self.stamp

    def new_cycle(self) -> None:
        self.stamp += 1
