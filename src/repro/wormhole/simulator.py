"""Cycle-driven flit-level wormhole simulator.

Simulates deterministic k-round dimension-ordered wormhole routing on
a faulty mesh with one virtual channel per round (the paper's
deadlock-free discipline) — the simulated stand-in for the Blue Gene
3D-mesh hardware the paper targets.

Model (standard wormhole switching, Dally & Seitz [8]):

- a message's flits follow one path in a pipelined manner;
- each (link, VC) resource carries one flit per cycle, is exclusively
  owned from head arrival to tail departure, and has a small
  downstream buffer (``buffer_flits``);
- a blocked head leaves all flits in place (no buffering of whole
  messages at intermediate nodes — crucially, a message *continues in
  a pipelined fashion through all k rounds*, Section 1);
- ejection consumes flits immediately at the destination; injection
  waits until the first hop's resource is acquired.

Arbitration is oldest-first (by injection cycle, then message id),
which is deterministic and starvation-free.

Engines
-------
Two cycle-exact step engines are provided:

``"frontier"`` (default)
    The event-driven fast path.  Messages waiting for a future
    injection cycle sit in a heap; messages whose head is blocked on
    a (link, VC) resource held by another message — or on a full
    downstream buffer — are *parked* on those resource keys and only
    re-enter the per-cycle agenda when the blocking resource is
    released or its buffer is popped.  Visits of blocked messages
    have no side effects (a head acquires a resource only when it
    also moves), so parking a message that could not have moved is
    observationally identical to scanning it; same-cycle wake-ups are
    inserted into the agenda *after* the current arbitration position
    only, which reproduces the scan's snapshot visit order exactly.
    Live-fault events conservatively rebuild the whole frontier.

``"scan"``
    The reference oracle: every cycle visits every active message
    (O(messages) per cycle even when almost everything is blocked or
    still queued).

Both engines share the flit-advance kernel (:meth:`_advance_message`)
and produce bit-identical :class:`SimStats`, trace streams and
deadlock diagnostics; golden tests pin the frontier engine against
the scan oracle on seeded scenarios.

Route cache
-----------
:meth:`build_hops` memoizes materialized routes per ``(src, dst)``
pair within a *routing epoch*; the cache is invalidated whenever the
fault state or the k-round ordering changes (live-fault events,
:meth:`set_orderings`).  Note the rng is only consulted on cache
misses, so enabling the cache changes *which* tie-break draws are
consumed relative to the historical behaviour (set
``route_cache=False`` to restore the draw-per-call stream); for any
fixed configuration the simulation itself remains deterministic.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..core.lamb import build_reach_index
from ..mesh.faults import FaultSet
from ..mesh.geometry import Link, Node
from ..obs import get_registry
from ..routing.ordering import KRoundOrdering
from ..routing.reachindex import ReachIndex, find_k_round_route
from .deadlock import (
    DeadlockError,
    SimulationTimeout,
    build_wait_graph,
    find_deadlock_cycle,
    snapshot_stalls,
)
from .network import ResourceKey, VirtualNetwork
from .packets import Hop, Message
from .stats import SimStats
from .trace import SYSTEM_MSG_ID, TraceEvent, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .chaos import FaultEvent, FaultSchedule

__all__ = ["WormholeSimulator", "SIM_ENGINES"]

#: Abort reasons attached to messages torn out by live faults.
ABORT_ENDPOINT_FAILED = "endpoint-failed"
ABORT_UNREACHABLE = "unreachable-after-fault"
ABORT_RETRY_BUDGET = "retry-budget-exhausted"
ABORT_QUARANTINED = "quarantined"

#: Valid ``engine=`` values.
SIM_ENGINES = ("frontier", "scan")

_MISSING = object()  # route-cache sentinel (None is a cached miss)


class WormholeSimulator:
    """Flit-level simulator of k-round DOR wormhole routing.

    Parameters
    ----------
    faults:
        The faulty mesh.
    orderings:
        k-round ordering; round ``t`` travels on VC ``t`` by default.
    buffer_flits:
        Per-resource downstream buffer depth.
    policy:
        Intermediate-node policy for route materialization (see
        :func:`repro.routing.find_k_round_route`).
    vc_of_round:
        Maps round index -> VC.  The default (identity) is the paper's
        deadlock-free discipline; pass ``lambda t: 0`` to deliberately
        break it and watch :class:`DeadlockError` fire.
    deadlock_check_every:
        How often (cycles without any flit movement) to run the
        wait-graph cycle detector.
    tracer:
        Optional :class:`repro.wormhole.Tracer` recording the event
        stream (injections, acquisitions, flit hops, deliveries).
    schedule:
        Optional :class:`repro.wormhole.FaultSchedule` of *live* fault
        events.  At the start of each cycle, due events are applied:
        the fault state grows, in-flight messages whose remaining path
        crosses a new fault are aborted and drained, and each victim is
        re-injected on a fresh route with bounded retry + exponential
        backoff (or aborted with an explicit reason).
    on_fault:
        Callback ``(event, new_node_faults, new_link_faults)`` invoked
        after a fault event is applied and victims are drained but
        *before* they are re-routed — the hook where
        :class:`repro.wormhole.ChaosEngine` runs the checkpoint /
        rollback / reconfigure epoch.
    max_retries:
        How many times a torn-out message may be re-injected before it
        is aborted with ``retry-budget-exhausted``.
    retry_backoff:
        Base re-injection delay in cycles; retry ``r`` waits
        ``retry_backoff * 2**(r-1)`` cycles (exponential backoff).
    engine:
        Step engine: ``"frontier"`` (event-driven fast path, the
        default) or ``"scan"`` (per-cycle full scan, the parity
        oracle); both are cycle-exact.
    route_cache:
        Memoize :meth:`build_hops` per (src, dst) within a routing
        epoch (invalidated on live faults / :meth:`set_orderings`).
    """

    def __init__(
        self,
        faults: FaultSet,
        orderings: KRoundOrdering,
        buffer_flits: int = 2,
        policy: str = "shortest",
        vc_of_round: Optional[Callable[[int], int]] = None,
        num_vcs: Optional[int] = None,
        seed: int = 0,
        deadlock_check_every: int = 4,
        tracer: Optional[Tracer] = None,
        schedule: Optional["FaultSchedule"] = None,
        on_fault: Optional[
            Callable[["FaultEvent", Tuple[Node, ...], Tuple[Link, ...]], None]
        ] = None,
        max_retries: int = 3,
        retry_backoff: int = 8,
        engine: str = "frontier",
        route_cache: bool = True,
    ):
        self.faults = faults
        self.mesh = faults.mesh
        self.orderings = orderings
        self.policy = policy
        self._vc_of_round = vc_of_round or (lambda t: t)
        if engine not in SIM_ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of "
                             f"{SIM_ENGINES}")
        self.engine = engine
        self.net = VirtualNetwork(
            faults,
            num_vcs=(orderings.k if num_vcs is None else num_vcs),
            buffer_flits=buffer_flits,
        )
        self.rng = np.random.default_rng(seed)
        self.cycle = 0
        self.messages: Dict[int, Message] = {}
        self._next_id = 0
        self._deadlock_check_every = deadlock_check_every
        self._idle_cycles = 0
        self.tracer = tracer
        self.schedule = schedule
        self._schedule_pos = 0
        self.on_fault = on_fault
        if max_retries < 0 or retry_backoff < 1:
            raise ValueError("need max_retries >= 0 and retry_backoff >= 1")
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.quarantined: Set[Node] = set()
        self.fault_events_applied = 0
        # --- route cache ----------------------------------------------
        self._route_cache_enabled = bool(route_cache)
        self._route_cache: Dict[Tuple[Node, Node], Optional[List[Hop]]] = {}
        self.routing_epoch = 0
        # Lamb1's phases 1-2 for the current epoch, built on its first
        # route miss (routes need no lamb set, so no WVC).
        self._reach_index: Optional[ReachIndex] = None
        # --- frontier state -------------------------------------------
        # Messages waiting for a future inject_cycle, as a min-heap of
        # (inject_cycle, msg_id).
        self._pending: List[Tuple[int, int]] = []
        # Messages visited every cycle (potentially able to move).
        self._runnable: Set[int] = set()
        # msg_id -> resource keys it is parked on; woken when any of
        # them is released or has a flit popped from its buffer.
        self._parked: Dict[int, List[ResourceKey]] = {}
        # resource key -> msg_ids parked on it (may hold stale
        # entries; filtered against _parked on wake).
        self._waiters: Dict[ResourceKey, List[int]] = {}
        # O(1) drain check: count of delivered-or-aborted messages.
        self._finished_count = 0
        # Current cycle's arbitration agenda (sorted (inject, id)
        # keys); None outside a frontier step.
        self._agenda: Optional[List[Tuple[int, int]]] = None
        self._agenda_cur_key: Tuple[int, int] = (-1, -1)
        self._visited: Set[int] = set()
        # --- telemetry (plain ints on the hot path; deltas are
        # published to the ambient registry once per run()) -----------
        self.stall_cycles = 0
        self.park_events = 0
        self.wake_events = 0
        self.retry_events = 0
        self.abort_counts: Dict[str, int] = {}
        self._published: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Static verification
    # ------------------------------------------------------------------
    def verify_deadlock_free(self, strict: bool = True):
        """Statically prove this simulator's configuration deadlock-free.

        Builds the extended channel-dependency graph for the current
        (faults, orderings, VC discipline) and checks acyclicity —
        i.e. run the :mod:`repro.analysis.static.cdg` prover *before*
        pushing any traffic.  With ``strict`` (default) a cyclic CDG
        raises :class:`~repro.analysis.static.StaticDeadlockError`
        (a :class:`SimulationError`); otherwise the
        :class:`~repro.analysis.static.CdgReport` is returned either
        way, with the minimal counterexample cycle attached.
        """
        from ..analysis.static.cdg import (
            assert_deadlock_free,
            prove_deadlock_free,
        )

        fn = assert_deadlock_free if strict else prove_deadlock_free
        return fn(
            self.faults,
            self.orderings,
            vc_of_round=self._vc_of_round,
            num_vcs=self.net.num_vcs,
        )

    # ------------------------------------------------------------------
    # Route construction and message submission
    # ------------------------------------------------------------------
    def build_hops(self, src: Node, dst: Node) -> Optional[List[Hop]]:
        """Materialize a k-round route as VC-annotated hops, or None if
        unreachable.

        Cached per (src, dst) within the current routing epoch: live
        faults and :meth:`set_orderings` bump :attr:`routing_epoch`
        and clear the cache, so a hit can never return a route through
        known-dead hardware.  Hits skip validation and rng tie-break
        draws (the cached route already passed both).
        """
        if self._route_cache_enabled:
            cached = self._route_cache.get((src, dst), _MISSING)
            if cached is not _MISSING:
                return cached
        if self._reach_index is None:
            self._reach_index = build_reach_index(self.faults, self.orderings)
        paths = find_k_round_route(
            self._reach_index, src, dst, policy=self.policy, rng=self.rng
        )
        if paths is None:
            if self._route_cache_enabled:
                self._route_cache[(src, dst)] = None
            return None
        hops: List[Hop] = []
        for t, path in enumerate(paths):
            vc = self._vc_of_round(t)
            for u, v in zip(path, path[1:]):
                hops.append(Hop(tuple(u), tuple(v), vc))
        for hop in hops:
            self.net.validate_hop(hop)
        if self._route_cache_enabled:
            self._route_cache[(src, dst)] = hops
        return hops

    def _invalidate_routes(self) -> None:
        """New routing epoch: faults grew or the ordering changed.  The
        next route miss rebuilds the index from the cumulative fault
        set."""
        self.routing_epoch += 1
        self._route_cache.clear()
        self._reach_index = None

    def send(
        self,
        src: Node,
        dst: Node,
        num_flits: int = 16,
        inject_cycle: Optional[int] = None,
        hops: Optional[List[Hop]] = None,
    ) -> Message:
        """Queue a message; raises ValueError if ``dst`` is not
        k-round reachable from ``src``."""
        src = tuple(int(x) for x in src)
        dst = tuple(int(x) for x in dst)
        if hops is None:
            hops = self.build_hops(src, dst)
            if hops is None:
                raise ValueError(f"{dst} is not k-round reachable from {src}")
        else:
            for hop in hops:
                self.net.validate_hop(hop)
        when = self.cycle if inject_cycle is None else int(inject_cycle)
        if when < self.cycle:
            raise ValueError("cannot inject in the past")
        msg = Message(
            msg_id=self._next_id,
            source=src,
            dest=dst,
            num_flits=int(num_flits),
            hops=hops,
            inject_cycle=when,
        )
        self._next_id += 1
        if not hops:  # src == dst: delivered without entering the network
            msg.delivered_flits = msg.num_flits
            msg.deliver_cycle = when
            self._finished_count += 1
        elif self.engine != "scan":
            heapq.heappush(self._pending, (when, msg.msg_id))
        self.messages[msg.msg_id] = msg
        if self.tracer is not None:
            self.tracer.record(
                TraceEvent(when, "inject", msg.msg_id, src=src, dst=dst)
            )
        return msg

    # ------------------------------------------------------------------
    # Live faults (chaos): abort/drain/retry machinery
    # ------------------------------------------------------------------
    def set_orderings(self, orderings: KRoundOrdering) -> None:
        """Adopt an escalated k-round discipline mid-run (degradation
        ladder).  Grows the VC count so round ``t`` still gets VC ``t``;
        in-flight messages keep their old (shorter) routes."""
        self.orderings = orderings
        want = max(self.net.num_vcs, orderings.k)
        if want > self.net.num_vcs:
            self.net.grow_vcs(want)
        self._invalidate_routes()

    def quarantine(self, nodes: Sequence[Node]) -> None:
        """Mark ``nodes`` as unreachable-by-policy: torn-out messages
        with a quarantined endpoint are aborted instead of retried.
        Unaffected in-flight messages are left to finish."""
        self.quarantined.update(tuple(int(x) for x in v) for v in nodes)

    def inject_faults(
        self,
        node_faults: Sequence[Node] = (),
        link_faults: Sequence[Link] = (),
    ) -> List[Message]:
        """Kill hardware *now* (programmatic live fault, bypassing any
        schedule).  Returns the torn-out victim messages."""
        from .chaos import FaultEvent

        event = FaultEvent(self.cycle, tuple(node_faults), tuple(link_faults))
        return self._apply_fault_event(event)

    def _process_due_events(self) -> None:
        if self.schedule is None:
            return
        while (
            self._schedule_pos < len(self.schedule)
            and self.schedule[self._schedule_pos].cycle <= self.cycle
        ):
            event = self.schedule[self._schedule_pos]
            self._schedule_pos += 1
            self._apply_fault_event(event)

    def _apply_fault_event(self, event: "FaultEvent") -> List[Message]:
        """Grow the fault state, tear out and drain affected messages,
        run the reconfiguration hook, then re-dispatch the victims."""
        new_nodes = tuple(
            v for v in event.node_faults if not self.faults.node_is_faulty(v)
        )
        new_links = tuple(
            (u, w)
            for (u, w) in event.link_faults
            if not self.faults.link_is_faulty(u, w)
        )
        if not new_nodes and not new_links:
            return []  # stale event: everything already dead
        self.faults = self.faults.with_faults(new_nodes, new_links)
        self.net.apply_faults(self.faults)
        self._invalidate_routes()
        self.fault_events_applied += 1
        if self.tracer is not None:
            for v in new_nodes:
                self.tracer.record(
                    TraceEvent(self.cycle, "fault", SYSTEM_MSG_ID, src=v)
                )
            for (u, w) in new_links:
                self.tracer.record(
                    TraceEvent(self.cycle, "fault", SYSTEM_MSG_ID, src=u, dst=w)
                )
        node_set = set(new_nodes)
        link_set = set(new_links)
        victims = [
            m
            for m in self.messages.values()
            if not m.is_finished and self._route_hit(m, node_set, link_set)
        ]
        for m in victims:
            self._tear_down(m)
        if self.on_fault is not None:
            self.on_fault(event, new_nodes, new_links)
        for m in victims:
            self._redispatch(m)
        # Teardown force-released resources and dropped buffered flits
        # without per-key wake notifications, victims changed their
        # inject cycles, and the reconfiguration hook may have sent
        # fresh messages: rebuild the frontier conservatively.
        self._rebuild_frontier()
        return victims

    @staticmethod
    def _route_hit(m: Message, nodes: Set[Node], links: Set[Link]) -> bool:
        """Does the part of ``m``'s route that is still in use (owned
        or yet to be crossed by some flit) touch a new fault?"""
        for hop in m.hops[m.tail_pos + 1 :]:
            if (
                hop.src in nodes
                or hop.dst in nodes
                or (hop.src, hop.dst) in links
            ):
                return True
        return False

    def _tear_down(self, m: Message) -> None:
        """Abort-and-drain: discard buffered flits and force-release
        every resource the message owns (its flits evaporate; wormhole
        hardware would sink them via the fault-adjacent routers)."""
        for pos in m.flit_pos:
            if 0 <= pos < m.num_hops - 1:
                self.net.drop_buffer_flit(m.hops[pos])
        self.net.release_message(m.msg_id)

    def _redispatch(self, m: Message) -> None:
        """Retry a torn-out message on a post-reconfiguration route, or
        abort it with an explicit reason (never silently)."""
        if m.source in self.quarantined or m.dest in self.quarantined:
            return self._abort(m, ABORT_QUARANTINED)
        if self.faults.node_is_faulty(m.dest) or self.faults.node_is_faulty(
            m.source
        ):
            return self._abort(m, ABORT_ENDPOINT_FAILED)
        entered = m.head_pos >= 0
        if entered and (m.attempts - 1) >= self.max_retries:
            return self._abort(m, ABORT_RETRY_BUDGET)
        hops = self.build_hops(m.source, m.dest)
        if hops is None:
            return self._abort(m, ABORT_UNREACHABLE)
        if entered:
            # The message was mid-flight: charge a retry and back off
            # exponentially before re-entering the network.
            delay = self.retry_backoff * (2 ** (m.attempts - 1))
            if self.tracer is not None:
                self.tracer.record(
                    TraceEvent(self.cycle, "abort", m.msg_id,
                               src=m.source, dst=m.dest, reason="retry")
                )
            m.reset_for_retry(hops, self.cycle + delay)
            self.retry_events += 1
            if self.tracer is not None:
                self.tracer.record(
                    TraceEvent(m.inject_cycle, "reinject", m.msg_id,
                               src=m.source, dst=m.dest)
                )
        else:
            # Still queued at the source: re-route silently (the NIC
            # just swaps the route before first injection).
            m.hops = hops
            m.inject_cycle = max(m.inject_cycle, self.cycle)
            if self.tracer is not None:
                self.tracer.record(
                    TraceEvent(self.cycle, "reinject", m.msg_id,
                               src=m.source, dst=m.dest,
                               reason="rerouted-before-injection")
                )

    def _abort(self, m: Message, reason: str) -> None:
        m.abort_cycle = self.cycle
        m.abort_reason = reason
        self._finished_count += 1
        self.abort_counts[reason] = self.abort_counts.get(reason, 0) + 1
        if self.tracer is not None:
            self.tracer.record(
                TraceEvent(self.cycle, "abort", m.msg_id,
                           src=m.source, dst=m.dest, reason=reason)
            )

    # ------------------------------------------------------------------
    # Frontier bookkeeping
    # ------------------------------------------------------------------
    def _rebuild_frontier(self) -> None:
        """Conservative full rebuild after a live-fault event: every
        unfinished message goes back to pending (future injection) or
        runnable; park/wait state is discarded (messages re-park after
        one blocked visit).  Also recounts the finished tally."""
        self._finished_count = sum(
            1 for m in self.messages.values() if m.is_finished
        )
        if self.engine == "scan":
            return
        self._parked.clear()
        self._waiters.clear()
        self._runnable.clear()
        pending: List[Tuple[int, int]] = []
        cycle = self.cycle
        for m in self.messages.values():
            if m.is_finished:
                continue
            if m.inject_cycle <= cycle:
                self._runnable.add(m.msg_id)
            else:
                pending.append((m.inject_cycle, m.msg_id))
        heapq.heapify(pending)
        self._pending = pending

    def _wake_key(self, key: ResourceKey) -> None:
        """A resource was released or had a buffered flit popped:
        unpark every message waiting on it.  If the current cycle's
        arbitration has not yet passed the woken message's slot, it is
        inserted into the live agenda (matching the scan engine's
        snapshot visit order); otherwise it runs from the next cycle.
        Spurious wake-ups are harmless — a visit that cannot move any
        flit has no side effects."""
        waiters = self._waiters
        if not waiters:
            return
        lst = waiters.pop(key, None)
        if lst is None:
            return
        parked = self._parked
        agenda = self._agenda
        for mid in lst:
            if parked.pop(mid, None) is None:
                continue  # stale entry: already woken via another key
            m = self.messages[mid]
            if m.is_finished:
                continue
            self._runnable.add(mid)
            self.wake_events += 1
            if agenda is not None and mid not in self._visited:
                sk = (m.inject_cycle, mid)
                if sk > self._agenda_cur_key:
                    insort(agenda, sk)

    def _park_keys(self, m: Message) -> Optional[List[ResourceKey]]:
        """Resource keys a zero-move message should wait on, or None
        if it must stay runnable (its blocker is transient, i.e. only
        this cycle's bandwidth).

        The head is parked on its next hop's resource when that is
        held by another message (woken by release) or its downstream
        buffer is full (woken by a buffer pop — the buffer may hold
        straggling tail flits of a previous owner).  Body flits with a
        gap ahead can additionally be stuck behind such straggler-full
        buffers mid-route, so those keys are collected too.  All other
        blockers resolve by themselves next cycle, so the message
        stays runnable; uncertain cases also stay runnable (safe,
        merely a wasted visit)."""
        fp = m.flit_pos
        last = m.num_hops - 1
        nxt = fp[0] + 1
        if nxt > last:
            return None  # head ejected: trailing drain, stay runnable
        keys = m.hop_keys
        net = self.net
        head_key = keys[nxt]
        holder = net.owner_key(head_key)
        if holder == m.msg_id:
            return None  # defensive: should have moved
        if holder is None and (
            nxt == last or net.buffer_has_space_key(head_key)
        ):
            return None  # only blocked by this cycle's bandwidth
        wait = [head_key]
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
            bkey = keys[b]
            if net.buffer_has_space_key(bkey):
                return None  # defensive: should have moved
            wait.append(bkey)
        return wait

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------
    def _active_messages(self) -> List[Message]:
        """Messages eligible to move this cycle, oldest first (scan
        engine)."""
        out = [
            m
            for m in self.messages.values()
            if not m.is_finished and m.inject_cycle <= self.cycle
        ]
        out.sort(key=lambda m: (m.inject_cycle, m.msg_id))
        return out

    def _advance_message(self, m: Message) -> int:
        """Move every flit of ``m`` that can move this cycle (head
        first, then body flits in order — each over a distinct hop, so
        per-message ordering is conflict-free).  Returns the number of
        flits that moved.  Shared by both engines."""
        net = self.net
        fp = m.flit_pos
        keys = m.hop_keys
        hops = m.hops
        last = m.num_hops - 1
        mid = m.msg_id
        num_flits = m.num_flits
        tracer = self.tracer
        channel_free = net.channel_free_key
        owner_of = net.owner_key
        has_space = net.buffer_has_space_key
        moved = 0
        for f in range(num_flits):
            pos = fp[f]
            nxt = pos + 1
            if nxt > last:
                continue  # flit already ejected at the destination
            if f > 0 and fp[f - 1] < nxt:
                if pos < 0:
                    break  # this and all later flits still queued
                continue  # cannot pass the preceding flit
            key = keys[nxt]
            if not channel_free(key):
                continue  # resource bandwidth spent this cycle
            if f == 0:
                if nxt != last and not has_space(key):
                    # Head can always eject at the final hop.
                    continue
                holder = owner_of(key)
                if holder is None:
                    net.try_acquire_key(key, mid)
                    if tracer is not None:
                        hop = hops[nxt]
                        tracer.record(
                            TraceEvent(self.cycle, "acquire", mid,
                                       src=hop.src, dst=hop.dst, vc=hop.vc)
                        )
                elif holder != mid:
                    continue  # held by another message
            else:
                if owner_of(key) != mid:
                    continue  # released under us? cannot happen
                if nxt != last and not has_space(key):
                    continue
            # Move: leave the old buffer (if we were in one), enter
            # the new.
            net.mark_used_key(key)
            if 0 <= pos < last:
                pkey = keys[pos]
                net.buffer_pop_key(pkey)
                self._wake_key(pkey)
            if nxt != last:
                net.buffer_push_key(key)
            else:
                m.delivered_flits += 1
            fp[f] = nxt
            moved += 1
            if tracer is not None:
                hop = hops[nxt]
                tracer.record(
                    TraceEvent(self.cycle, "flit", mid, flit=f,
                               src=hop.src, dst=hop.dst, vc=hop.vc)
                )
            # Tail crossed hop `nxt`: release it.
            if f == num_flits - 1:
                net.release_key(key, mid)
                self._wake_key(key)
                if tracer is not None:
                    hop = hops[nxt]
                    tracer.record(
                        TraceEvent(self.cycle, "release", mid,
                                   src=hop.src, dst=hop.dst, vc=hop.vc)
                    )
        return moved

    def step(self) -> int:
        """Advance one cycle; returns the number of flits that moved.

        Due live-fault events are applied first, so a fault at cycle
        ``c`` affects cycle ``c``'s movement.
        """
        if self.engine == "frontier":
            return self._step_frontier()
        return self._step_scan()

    def _step_scan(self) -> int:
        """Reference oracle: visit every active message each cycle."""
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

    def _step_frontier(self) -> int:
        """Event-driven engine: visit only runnable messages."""
        self._process_due_events()
        self.net.new_cycle()
        cycle = self.cycle
        messages = self.messages
        pending = self._pending
        runnable = self._runnable
        # Admit newly injectable messages (and retries whose backoff
        # expired) into the runnable set.
        while pending and pending[0][0] <= cycle:
            _, mid = heapq.heappop(pending)
            m = messages[mid]
            if m.is_finished:
                continue
            if m.inject_cycle <= cycle:
                runnable.add(mid)
            else:  # defensive: injection was re-delayed
                heapq.heappush(pending, (m.inject_cycle, mid))
        # Oldest-first arbitration agenda over the runnable set; wakes
        # from releases/pops may insert behind the current position.
        agenda = sorted((messages[mid].inject_cycle, mid) for mid in runnable)
        self._agenda = agenda
        self._visited = visited = set()
        parked = self._parked
        waiters = self._waiters
        moved = 0
        i = 0
        while i < len(agenda):
            sk = agenda[i]
            i += 1
            mid = sk[1]
            if mid in visited:
                continue
            visited.add(mid)
            self._agenda_cur_key = sk
            m = messages[mid]
            if m.is_finished:  # finished out-of-band
                runnable.discard(mid)
                continue
            n = self._advance_message(m)
            moved += n
            if m.delivered_flits == m.num_flits and m.deliver_cycle is None:
                m.deliver_cycle = cycle + 1
                self._finished_count += 1
                runnable.discard(mid)
                if self.tracer is not None:
                    self.tracer.record(
                        TraceEvent(cycle, "deliver", mid,
                                   src=m.source, dst=m.dest)
                    )
            elif n == 0:
                keys = self._park_keys(m)
                if keys is not None:
                    runnable.discard(mid)
                    parked[mid] = keys
                    self.park_events += 1
                    for k in keys:
                        lst = waiters.get(k)
                        if lst is None:
                            waiters[k] = [mid]
                        else:
                            lst.append(mid)
        self._agenda = None
        self.cycle += 1
        # Parity with the scan engine's idle check: runnable | parked
        # is exactly the set of unfinished messages with
        # inject_cycle < self.cycle (pending ones are strictly later).
        if moved == 0 and (runnable or parked):
            self._check_deadlock()
        else:
            self._idle_cycles = 0
        return moved

    def _check_deadlock(self) -> None:
        """Count an idle cycle; run the wait-graph detector once the
        idle streak reaches the check interval."""
        self._idle_cycles += 1
        self.stall_cycles += 1
        if self._idle_cycles >= self._deadlock_check_every:
            graph = build_wait_graph(self.messages.values(), self.net)
            cycle = find_deadlock_cycle(graph)
            if cycle is not None:
                raise DeadlockError(
                    cycle,
                    snapshot_stalls(
                        self.cycle, self.messages.values(), self.net
                    ),
                )

    def _drained(self) -> bool:
        """Every message terminal (delivered or aborted-with-reason)
        and every scheduled fault event applied.  O(1): finished
        messages are counted as they finish."""
        if self.schedule is not None and self._schedule_pos < len(self.schedule):
            return False
        return self._finished_count >= len(self.messages)

    def run(self, max_cycles: int = 100000) -> SimStats:
        """Run until every message is delivered or explicitly aborted
        and the fault schedule (if any) is exhausted.

        Raises the typed :class:`DeadlockError` if a wait-for cycle
        forms, and :class:`SimulationTimeout` (with stalled-message
        diagnostics attached) on non-deadlock timeout.
        """
        try:
            while self.cycle < max_cycles:
                if self._drained():
                    break
                self.step()
            if not self._drained():
                raise SimulationTimeout(
                    max_cycles,
                    snapshot_stalls(
                        self.cycle, self.messages.values(), self.net
                    ),
                )
        finally:
            # Publish telemetry deltas even when the run ends in a
            # DeadlockError/SimulationTimeout — those are exactly the
            # runs whose counters matter most.
            self._publish_telemetry()
        return self.stats()

    def _publish_telemetry(self) -> None:
        """Publish counter *deltas* since the last publish to the
        ambient registry.

        The hot loop never touches the registry — it bumps plain ints
        — so this is the only place the simulator pays a lock.  Deltas
        (not totals) keep repeated ``run()`` calls on one simulator
        additive, and zero-deltas still create the counters so the
        exported schema is stable across workloads.
        """
        reg = get_registry()
        eng = self.engine
        totals = {
            "sim_cycles_total": self.cycle,
            "sim_stall_cycles_total": self.stall_cycles,
            "sim_park_events_total": self.park_events,
            "sim_wake_events_total": self.wake_events,
            "sim_retries_total": self.retry_events,
            "sim_messages_finished_total": self._finished_count,
        }
        pub = self._published
        for name, total in sorted(totals.items()):
            reg.inc(name, max(0, total - pub.get(name, 0)), engine=eng)
            pub[name] = total
        for reason in sorted(
            set(self.abort_counts)
            | {ABORT_ENDPOINT_FAILED, ABORT_UNREACHABLE,
               ABORT_RETRY_BUDGET, ABORT_QUARANTINED}
        ):
            total = self.abort_counts.get(reason, 0)
            key = f"abort:{reason}"
            reg.inc(
                "sim_aborts_total",
                max(0, total - pub.get(key, 0)),
                engine=eng,
                reason=reason,
            )
            pub[key] = total

    def stats(self) -> SimStats:
        """Aggregate statistics over all delivered messages."""
        return SimStats.from_messages(self.cycle, list(self.messages.values()))
