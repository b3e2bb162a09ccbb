"""Virtual-channel bookkeeping for the wormhole simulator.

A *resource* is a (physical directed link, virtual channel) pair.  In
wormhole switching a resource is owned exclusively by one message from
the time its head flit is routed onto it until its tail flit has
crossed it; each resource also has a small downstream flit buffer and
a bandwidth of one flit per cycle.

Hot-path note: every per-cycle operation is O(1) on plain dict lookups
keyed by precomputed :data:`ResourceKey` tuples.  The simulator's
inner loop uses the ``*_key`` variants with the per-message hop-key
arrays (:attr:`repro.wormhole.Message.hop_keys`) so no tuples are
rebuilt per flit per cycle; the hop-taking methods are thin wrappers
kept for validation, diagnostics and tests.  Per-cycle link bandwidth
is tracked with a cycle *stamp* table instead of a set that is cleared
each cycle, so ``new_cycle`` is O(1) regardless of how many channels
moved flits.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..mesh.faults import FaultSet
from ..mesh.geometry import Node
from .packets import Hop

__all__ = ["ResourceKey", "VirtualNetwork"]

ResourceKey = Tuple[Node, Node, int]  # (src, dst, vc)


def _key(hop: Hop) -> ResourceKey:
    return (hop.src, hop.dst, hop.vc)


class VirtualNetwork:
    """Ownership, buffer occupancy and per-cycle bandwidth state.

    Parameters
    ----------
    faults:
        Fault set; routing over a faulty node or link is rejected at
        hop validation time (routes are supposed to be fault-free by
        construction — this is a safety net, not a routing layer).
    num_vcs:
        Number of virtual channels per physical link.
    buffer_flits:
        Downstream buffer capacity per resource, in flits.
    """

    def __init__(self, faults: FaultSet, num_vcs: int, buffer_flits: int = 2):
        if num_vcs < 1:
            raise ValueError("need at least one virtual channel")
        if buffer_flits < 1:
            raise ValueError("need at least one flit of buffering")
        self.faults = faults
        self.mesh = faults.mesh
        self.num_vcs = num_vcs
        self.buffer_flits = buffer_flits
        self._owner: Dict[ResourceKey, int] = {}
        self._occupancy: Dict[ResourceKey, int] = {}
        # Cycle-stamp table: channel ``k`` was used this cycle iff
        # ``_used_stamp[k] == _stamp``.  ``new_cycle`` just bumps the
        # stamp — O(1) instead of clearing a set.
        self._used_stamp: Dict[ResourceKey, int] = {}
        self._stamp: int = 0

    # ------------------------------------------------------------------
    def validate_hop(self, hop: Hop) -> None:
        """Reject hops that use faulty hardware or unknown VCs."""
        if hop.vc < 0 or hop.vc >= self.num_vcs:
            raise ValueError(f"hop uses VC {hop.vc}, have {self.num_vcs}")
        if not self.mesh.are_adjacent(hop.src, hop.dst):
            raise ValueError(f"hop {hop.src} -> {hop.dst} is not a link")
        if self.faults.node_is_faulty(hop.src) or self.faults.node_is_faulty(hop.dst):
            raise ValueError(f"hop {hop.src} -> {hop.dst} touches a faulty node")
        if self.faults.link_is_faulty(hop.src, hop.dst):
            raise ValueError(f"hop {hop.src} -> {hop.dst} uses a faulty link")

    # ------------------------------------------------------------------
    def apply_faults(self, faults: FaultSet) -> None:
        """Swap in a grown fault set (live-fault epoch).

        Future ``validate_hop`` calls see the new state; in-flight
        state is untouched — the simulator is responsible for aborting
        and draining messages whose acquired paths now cross a fault.
        """
        if faults.mesh != self.mesh:
            raise ValueError("live faults must live in the same mesh")
        self.faults = faults

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
        mine = [key for key, owner in self._owner.items() if owner == msg_id]
        for key in mine:
            del self._owner[key]
        return len(mine)

    def drop_buffer_flit(self, hop: Hop) -> None:
        """Discard one buffered flit of an aborted message (alias of
        :meth:`buffer_pop` kept distinct for intent)."""
        self.buffer_pop(hop)

    def owned_resources(self, msg_id: int) -> Set[ResourceKey]:
        """All (link, VC) resources currently owned by ``msg_id``
        (watchdog diagnostics)."""
        return {key for key, owner in self._owner.items() if owner == msg_id}

    # ------------------------------------------------------------------
    # Key-based fast path (the simulator inner loop)
    # ------------------------------------------------------------------
    def owner_key(self, key: ResourceKey) -> Optional[int]:
        return self._owner.get(key)

    def try_acquire_key(self, key: ResourceKey, msg_id: int) -> bool:
        holder = self._owner.get(key)
        if holder is None:
            self._owner[key] = msg_id
            return True
        return holder == msg_id

    def release_key(self, key: ResourceKey, msg_id: int) -> None:
        if self._owner.get(key) != msg_id:
            raise RuntimeError(f"message {msg_id} does not own {key}")
        del self._owner[key]

    def buffer_has_space_key(self, key: ResourceKey) -> bool:
        return self._occupancy.get(key, 0) < self.buffer_flits

    def buffer_push_key(self, key: ResourceKey) -> None:
        n = self._occupancy.get(key, 0)
        if n >= self.buffer_flits:
            raise RuntimeError(f"buffer overflow on {key}")
        self._occupancy[key] = n + 1

    def buffer_pop_key(self, key: ResourceKey) -> None:
        n = self._occupancy.get(key, 0)
        if n <= 0:
            raise RuntimeError(f"buffer underflow on {key}")
        if n == 1:
            del self._occupancy[key]
        else:
            self._occupancy[key] = n - 1

    def channel_free_key(self, key: ResourceKey) -> bool:
        return self._used_stamp.get(key, -1) != self._stamp

    def mark_used_key(self, key: ResourceKey) -> None:
        self._used_stamp[key] = self._stamp

    # ------------------------------------------------------------------
    # Hop-based wrappers (validation, diagnostics, tests)
    # ------------------------------------------------------------------
    def owner(self, hop: Hop) -> Optional[int]:
        return self.owner_key(_key(hop))

    def try_acquire(self, hop: Hop, msg_id: int) -> bool:
        """Acquire the resource for ``msg_id`` if free."""
        return self.try_acquire_key(_key(hop), msg_id)

    def release(self, hop: Hop, msg_id: int) -> None:
        self.release_key(_key(hop), msg_id)

    # ------------------------------------------------------------------
    def buffer_has_space(self, hop: Hop) -> bool:
        return self.buffer_has_space_key(_key(hop))

    def buffer_push(self, hop: Hop) -> None:
        self.buffer_push_key(_key(hop))

    def buffer_pop(self, hop: Hop) -> None:
        self.buffer_pop_key(_key(hop))

    # ------------------------------------------------------------------
    def channel_free_this_cycle(self, hop: Hop) -> bool:
        return self.channel_free_key(_key(hop))

    def mark_channel_used(self, hop: Hop) -> None:
        self.mark_used_key(_key(hop))

    def new_cycle(self) -> None:
        self._stamp += 1
