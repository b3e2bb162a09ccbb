"""The per-flit wormhole kernel and the full-scan step loop, kept as the
reference :class:`repro.wormhole.WormholeSimulator` must match cycle
for cycle.

:class:`FlitKernelSimulator` swaps the production run-level kernel for
the historical one that walks every undelivered flit of a visited
message, one at a time, and parks a blocked message by the same
per-flit walk (:func:`park_keys_by_flit`); the frontier step loop
(pending heap, park/wake) is the production one, so its park and wake
counts must equal the production simulator's too.
:class:`ScanSimulator` also drops the frontier: every cycle it visits
every active message, oldest first.  Both cost O(flits) per visit
(the scan also O(messages) per cycle), so use them on test-sized runs
only.

:class:`EagerRouteSimulator` is the route reference: the production
simulator routing every send at once, each route miss one
:func:`repro.routing.find_k_round_route` call at its send.  Queued
sends must give every message the same hops and resource ids, draw
the same rng stream and so run identically.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.lamb import build_reach_index
from repro.mesh.geometry import Node
from repro.routing.reachindex import find_k_round_route
from repro.wormhole.packets import Hop, Message
from repro.wormhole.simulator import _MISSING, Route, WormholeSimulator
from repro.wormhole.trace import TraceEvent


def park_keys_by_flit(
    sim: WormholeSimulator, m: Message
) -> Optional[List[int]]:
    """The resources a zero-move message waits on, walking every flit:
    the reference for the production run walk
    (:meth:`WormholeSimulator._park_keys`), which must return the same
    list in the same order."""
    fp = m.flit_pos
    ids = m.hop_ids
    last = len(ids) - 1
    nxt = fp[0] + 1
    if nxt > last:
        return None  # head ejected: trailing drain, stay runnable
    occupancy = sim.net.occupancy
    cap = sim.net.buffer_flits
    head = ids[nxt]
    holder = sim.net.owners[head]
    if holder == m.msg_id:
        return None  # defensive: should have moved
    if holder is None and (nxt == last or occupancy[head] < cap):
        return None  # only blocked by this cycle's bandwidth
    wait = [head]
    for f in range(1, m.num_flits):
        pos = fp[f]
        b = pos + 1
        if b > last:
            continue  # flit already ejected
        if fp[f - 1] < b:
            if pos < 0:
                break  # the rest are still queued at the source
            continue  # no gap: waits on its predecessor (internal)
        if b == last:
            return None  # defensive: ejection always possible
        if occupancy[ids[b]] < cap:
            return None  # defensive: should have moved
        wait.append(ids[b])
    return wait


class FlitKernelSimulator(WormholeSimulator):
    """The production step loop over the per-flit kernel and the
    per-flit park walk (the kernel keeps no run list)."""

    def _park_keys(self, m: Message) -> Optional[List[int]]:
        return park_keys_by_flit(self, m)

    def _advance_message(self, m: Message) -> int:
        """Move every flit of ``m`` that can move this cycle (head
        first, then body flits in order — each over a distinct hop, so
        per-message ordering is conflict-free).  Returns the number of
        flits that moved."""
        net = self.net
        owners = net.owners
        occupancy = net.occupancy
        used_at = net.used_at
        stamp = net.stamp
        cap = net.buffer_flits
        waiters = self._waiters
        fp = m.flit_pos
        ids = m.hop_ids
        last = len(ids) - 1
        mid = m.msg_id
        tail = m.num_flits - 1
        tracer = self.tracer
        moved = 0
        # Flits eject in order, so the first ``delivered_flits`` are
        # gone and every later one has a hop left to cross.
        first = m.delivered_flits
        for f in range(first, tail + 1):
            pos = fp[f]
            nxt = pos + 1
            if f > first and fp[f - 1] < nxt:
                if pos < 0:
                    break  # this and all later flits still queued
                continue  # cannot pass the preceding flit
            rid = ids[nxt]
            if used_at[rid] == stamp:
                continue  # resource bandwidth spent this cycle
            # The head can always eject at the final hop; anywhere else
            # a full downstream buffer blocks the move.
            if nxt != last and occupancy[rid] >= cap:
                continue
            if f == 0:
                holder = owners[rid]
                if holder is None:
                    owners[rid] = mid
                    if tracer is not None:
                        hop = m.hops[nxt]
                        tracer.record(
                            TraceEvent(self.cycle, "acquire", mid,
                                       src=hop.src, dst=hop.dst, vc=hop.vc)
                        )
                elif holder != mid:
                    continue  # held by another message
            elif owners[rid] != mid:
                continue  # released under us? cannot happen
            used_at[rid] = stamp
            if pos >= 0:
                pid = ids[pos]
                n = occupancy[pid]
                if n <= 0:
                    raise RuntimeError(
                        f"buffer underflow on {net.resource_key(pid)}"
                    )
                occupancy[pid] = n - 1
                if pid in waiters:
                    self._wake_key(pid)
            if nxt != last:
                occupancy[rid] += 1
            else:
                m.delivered_flits += 1
            fp[f] = nxt
            moved += 1
            if tracer is not None:
                hop = m.hops[nxt]
                tracer.record(
                    TraceEvent(self.cycle, "flit", mid, flit=f,
                               src=hop.src, dst=hop.dst, vc=hop.vc)
                )
            # Tail crossed hop `nxt`: release it.
            if f == tail:
                if owners[rid] != mid:
                    raise RuntimeError(
                        f"message {mid} does not own {net.resource_key(rid)}"
                    )
                owners[rid] = None
                if rid in waiters:
                    self._wake_key(rid)
                if tracer is not None:
                    hop = m.hops[nxt]
                    tracer.record(
                        TraceEvent(self.cycle, "release", mid,
                                   src=hop.src, dst=hop.dst, vc=hop.vc)
                    )
        return moved


class ScanSimulator(FlitKernelSimulator):
    """The per-flit kernel under the full-scan step loop: no pending
    heap, no parking (its park and wake counts stay 0)."""

    def _active_messages(self) -> List[Message]:
        """Messages eligible to move this cycle, oldest first."""
        out = [
            m
            for m in self.messages.values()
            if not m.is_finished and m.inject_cycle <= self.cycle
        ]
        out.sort(key=lambda m: (m.inject_cycle, m.msg_id))
        return out

    def step(self) -> int:
        self._process_due_events()
        self.net.new_cycle()
        moved = 0
        for m in self._active_messages():
            moved += self._advance_message(m)
            if m.delivered_flits == m.num_flits and m.deliver_cycle is None:
                m.deliver_cycle = self.cycle + 1
                self._finished_count += 1
                if self.tracer is not None:
                    self.tracer.record(
                        TraceEvent(self.cycle, "deliver", m.msg_id,
                                   src=m.source, dst=m.dest)
                    )
        self.cycle += 1
        if moved == 0 and any(
            not m.is_finished and m.inject_cycle < self.cycle
            for m in self.messages.values()
        ):
            self._check_deadlock()
        else:
            self._idle_cycles = 0
        return moved


class EagerRouteSimulator(WormholeSimulator):
    """The production simulator routing every send at once: a route
    miss is one :func:`find_k_round_route` call at the send (or at
    :meth:`build_hops`, or at a redispatch), its hops built one by
    one and admitted by the network, and memoized per routing epoch."""

    def _admits_every_route(self) -> bool:
        return False  # so every send routes at once, through _route

    def _route(self, src: Node, dst: Node) -> Optional[Route]:
        cached = self._routes.get((src, dst), _MISSING)
        if cached is not _MISSING:
            return cached
        if self._reach_index is None:
            self._reach_index = build_reach_index(self.faults, self.orderings)
        paths = find_k_round_route(
            self._reach_index, src, dst, policy=self.policy, rng=self.rng
        )
        if paths is None:
            self._routes[(src, dst)] = None
            return None
        hops: List[Hop] = []
        for t, path in enumerate(paths):
            vc = self._vc_of_round(t)
            hops += [Hop(u, v, vc) for u, v in zip(path, path[1:])]
        route = (hops, self.net.admit_route(hops))
        self._routes[(src, dst)] = route
        return route
