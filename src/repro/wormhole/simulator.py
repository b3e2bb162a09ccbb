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

Step loop
---------
Only messages that could move are visited.  Messages waiting for a
future injection cycle sit in a heap; messages whose head is blocked
on a (link, VC) resource held by another message — or on a full
downstream buffer — are *parked* on those resources and only re-enter
the per-cycle agenda when the blocking resource is released or its
buffer is popped.  Visits of blocked messages have no side effects (a
head acquires a resource only when it also moves), so parking a
message that could not have moved is observationally identical to
visiting it; same-cycle wake-ups are inserted into the agenda *after*
the current arbitration position only, which reproduces the visit
order of a loop over every active message exactly.  Live-fault events
conservatively rebuild the whole frontier.

Flit kernel
-----------
A visit moves a message's flits by *buffer runs*, not one flit at a
time.  The message keeps the in-network part of ``flit_pos`` as a
run-length list (:attr:`Message.runs`): ``[c, L]`` is L consecutive
hops whose buffers each hold c of its flits, and ``c = 0`` is a gap, a
buffer other worms' straggling tail flits have filled.  (Simulated
traffic never leaves one: a head enters a buffer only when it has
room, and the stragglers there only drain, so the buffer keeps room
for the worm's next flit.  A ``flit_pos`` placed by hand can hold
gaps, and the kernel moves them exactly as the per-flit rule does.)
In one cycle
only the front flit of a buffer can move, and it moves iff the buffer
ahead has room (or it ejects at the last hop; the head also needs the
link's bandwidth and ownership).  A buffer whose front flit moved has
room for the one behind, so once one buffer of a run moves every
buffer behind it in that run moves too: a run costs two counter
updates, two bandwidth stamps and one strided ``flit_pos`` slice,
whatever its length.  Wake-ups, releases and trace events are exactly
those of the per-flit rule (``tests/sim_oracle.py`` keeps that kernel
and the full-scan loop as the reference; ``tests/test_sim_parity.py``
and ``tests/test_sim_oracle_parity.py`` pin the two against each
other).

Routes
------
:meth:`WormholeSimulator.build_hops` memoizes materialized routes per
``(src, dst)`` pair within a *routing epoch*; the memo is invalidated
whenever the fault state or the k-round ordering changes (live-fault
events, :meth:`WormholeSimulator.set_orderings`).  The rng is only
consulted on misses; for any fixed configuration the simulation is
deterministic.
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
from .network import VirtualNetwork
from .packets import Hop, Message
from .stats import SimStats
from .trace import SYSTEM_MSG_ID, TraceEvent, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .chaos import FaultEvent, FaultSchedule

__all__ = ["WormholeSimulator"]

#: Abort reasons attached to messages torn out by live faults.
ABORT_ENDPOINT_FAILED = "endpoint-failed"
ABORT_UNREACHABLE = "unreachable-after-fault"
ABORT_RETRY_BUDGET = "retry-budget-exhausted"
ABORT_QUARANTINED = "quarantined"

_MISSING = object()  # route-memo sentinel (None is a memoized miss)

#: A materialized route: its VC-annotated hops and their resource ids.
Route = Tuple[List[Hop], List[int]]


def _push(runs: List[List[int]], c: int, span: int) -> None:
    """Append ``span`` buffers holding ``c`` flits each to a run list,
    merging with its last run when the counts agree."""
    if span:
        if runs and runs[-1][0] == c:
            runs[-1][1] += span
        else:
            runs.append([c, span])


def _flit_runs(fp: List[int], first: int) -> List[List[int]]:
    """The run list of a message whose flits from ``first`` on sit at
    hops ``fp`` (-1: still queued): see :attr:`Message.runs`."""
    runs: List[List[int]] = []
    n = len(fp)
    f = first
    prev = -1
    while f < n and fp[f] >= 0:
        pos = fp[f]
        start = f
        while f < n and fp[f] == pos:
            f += 1
        if prev >= 0:
            _push(runs, 0, prev - pos - 1)
        _push(runs, f - start, 1)
        prev = pos
    return runs


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
    ):
        self.faults = faults
        self.mesh = faults.mesh
        self.orderings = orderings
        self.policy = policy
        self._vc_of_round = vc_of_round or (lambda t: t)
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
        # --- route memo -----------------------------------------------
        self._routes: Dict[Tuple[Node, Node], Optional[Route]] = {}
        self.routing_epoch = 0
        # Lamb1's phases 1-2 for the current epoch, built on its first
        # route miss (routes need no lamb set, so no WVC).
        self._reach_index: Optional[ReachIndex] = None
        # --- frontier state -------------------------------------------
        # Messages waiting for a future inject_cycle, as a min-heap of
        # (inject_cycle, msg_id).
        self._pending: List[Tuple[int, int]] = []
        # Messages visited next cycle (potentially able to move), as
        # (inject_cycle, msg_id) keys kept sorted across cycles: the
        # next arbitration agenda.
        self._runnable: List[Tuple[int, int]] = []
        # msg_id -> resource ids it is parked on; woken when any of
        # them is released or has a flit popped from its buffer.
        self._parked: Dict[int, List[int]] = {}
        # resource id -> msg_ids parked on it (may hold stale entries;
        # filtered against _parked on wake).
        self._waiters: Dict[int, List[int]] = {}
        # O(1) drain check: count of delivered-or-aborted messages.
        self._finished_count = 0
        # Current cycle's arbitration agenda (sorted (inject, id)
        # keys); None outside :meth:`step`.
        self._agenda: Optional[List[Tuple[int, int]]] = None
        self._agenda_cur_key: Tuple[int, int] = (-1, -1)
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
        route = self._route(src, dst)
        return None if route is None else route[0]

    def _route(self, src: Node, dst: Node) -> Optional[Route]:
        """:meth:`build_hops` plus the hops' resource ids, admitted by
        the network in one pass."""
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

    def _invalidate_routes(self) -> None:
        """New routing epoch: faults grew or the ordering changed.  The
        next route miss rebuilds the index from the cumulative fault
        set."""
        self.routing_epoch += 1
        self._routes.clear()
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
            route = self._route(src, dst)
            if route is None:
                raise ValueError(f"{dst} is not k-round reachable from {src}")
            hops, hop_ids = route
        else:
            hop_ids = self.net.admit_route(hops)
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
            hop_ids=hop_ids,
        )
        self._next_id += 1
        if not hops:  # src == dst: delivered without entering the network
            msg.delivered_flits = msg.num_flits
            msg.deliver_cycle = when
            self._finished_count += 1
        else:
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
        # without per-resource wake notifications, victims changed their
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
                self.net.buffer_pop(m.hops[pos])
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
        route = self._route(m.source, m.dest)
        if route is None:
            return self._abort(m, ABORT_UNREACHABLE)
        hops, hop_ids = route
        if entered:
            # The message was mid-flight: charge a retry and back off
            # exponentially before re-entering the network.
            delay = self.retry_backoff * (2 ** (m.attempts - 1))
            if self.tracer is not None:
                self.tracer.record(
                    TraceEvent(self.cycle, "abort", m.msg_id,
                               src=m.source, dst=m.dest, reason="retry")
                )
            m.reset_for_retry(hops, hop_ids, self.cycle + delay)
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
            m.hop_ids = hop_ids
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
        self._parked.clear()
        self._waiters.clear()
        runnable: List[Tuple[int, int]] = []
        pending: List[Tuple[int, int]] = []
        cycle = self.cycle
        for m in self.messages.values():
            if m.is_finished:
                continue
            if m.inject_cycle <= cycle:
                runnable.append((m.inject_cycle, m.msg_id))
            else:
                pending.append((m.inject_cycle, m.msg_id))
        runnable.sort()
        heapq.heapify(pending)
        self._runnable = runnable
        self._pending = pending

    def _wake_key(self, rid: int) -> None:
        """Resource ``rid`` was released or had a buffered flit popped
        and has waiters: unpark every message waiting on it.  If the
        current cycle's arbitration has not yet passed the woken
        message's slot, it is inserted into the live agenda (matching
        a full scan's snapshot visit order); otherwise it runs from the
        next cycle.  Spurious wake-ups are harmless — a visit that
        cannot move any flit has no side effects."""
        lst = self._waiters.pop(rid)
        parked = self._parked
        agenda = self._agenda
        for mid in lst:
            if parked.pop(mid, None) is None:
                continue  # stale entry: already woken via another resource
            m = self.messages[mid]
            if m.deliver_cycle is not None or m.abort_reason is not None:
                continue  # finished
            self.wake_events += 1
            sk = (m.inject_cycle, mid)
            if agenda is not None and sk > self._agenda_cur_key:
                insort(agenda, sk)
            else:
                insort(self._runnable, sk)

    def _park_keys(self, m: Message) -> Optional[List[int]]:
        """Resource ids a zero-move message should wait on, or None if
        it must stay runnable (its blocker is transient, i.e. only this
        cycle's bandwidth).

        The head is parked on its next hop's resource when that is
        held by another message (woken by release) or its downstream
        buffer is full (woken by a buffer pop — the buffer may hold
        straggling tail flits of a previous owner).  The front flit of
        every other buffer the worm holds, and the source queue's
        front flit behind the worm, wait on the buffer ahead, which a
        zero move shows full (of the worm's own flits or of
        stragglers past a gap), so those resources are collected too,
        in flit order.  All other blockers resolve by themselves next
        cycle, so the message stays runnable; uncertain cases also
        stay runnable (safe, merely a wasted visit).

        The walk goes by buffer runs (:attr:`Message.runs`, current
        after the zero-move visit), not by flit; ``tests/sim_oracle.py``
        keeps the per-flit walk it must match."""
        fp = m.flit_pos
        ids = m.hop_ids
        last = len(ids) - 1
        nxt = fp[0] + 1
        if nxt > last:
            return None  # head ejected: trailing drain, stay runnable
        occupancy = self.net.occupancy
        cap = self.net.buffer_flits
        head = ids[nxt]
        holder = self.net.owners[head]
        if holder == m.msg_id:
            return None  # defensive: should have moved
        if holder is None and (nxt == last or occupancy[head] < cap):
            return None  # only blocked by this cycle's bandwidth
        wait = [head]
        # Run ``[c, span]`` spans hops p down to p - span + 1; the front
        # flit of its buffer at hop q waits on hop q + 1 (the head's
        # buffer, the first run's front, is done above).
        p = top = nxt - 1
        flits = 0
        for c, span in m.runs:
            if c:
                ahead = ids[p - span + 2 : p + (p < top) + 1]
                if ahead:
                    if min(map(occupancy.__getitem__, ahead)) < cap:
                        return None  # defensive: should have moved
                    ahead.reverse()
                    wait += ahead
                flits += c * span
            p -= span
        if 0 < flits < m.num_flits:
            # The source queue's front flit waits on hop 0.
            if not last or occupancy[ids[0]] < cap:
                return None  # defensive: should have moved
            wait.append(ids[0])
        return wait

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------
    def _advance_message(self, m: Message) -> int:
        """Move every flit of ``m`` that can move this cycle, buffer run
        by buffer run from the head backwards, and return how many
        moved.

        For each run ``[c, L]`` (see the module docstring) the kernel
        finds the first buffer whose front flit can move — buffer 0 if
        the buffer ahead of the run moved or has room, else the first
        buffer behind one with room (none if ``c`` fills the buffers)
        — and moves the front flit of it and of every buffer behind it
        in the run.  The run list is rebuilt from ``flit_pos`` whenever
        that list was replaced, so it is derived state only."""
        fp = m.flit_pos
        if m.runs_of is not fp:
            m.runs = _flit_runs(fp, m.delivered_flits)
            m.runs_of = fp
        g = m.delivered_flits  # the front flit of the current buffer
        tail = m.num_flits - 1
        net = self.net
        occupancy = net.occupancy
        used_at = net.used_at
        stamp = net.stamp
        cap = net.buffer_flits
        ids = m.hop_ids
        last = len(ids) - 1
        # The front flit (in the head's buffer, or first in the source
        # queue) crosses hop ``p + 1``.  A body flit there crosses a
        # hop its message owns; the head also needs the hop's bandwidth
        # and its ownership, acquired only if it moves.
        p = fp[g]
        rid = ids[p + 1]
        room = p + 1 == last or occupancy[rid] < cap
        if room and not g:
            holder = net.owners[rid]
            if used_at[rid] == stamp or (holder is not None
                                         and holder != m.msg_id):
                room = False
            elif holder is None:
                net.owners[rid] = m.msg_id
                if self.tracer is not None:
                    hop = m.hops[p + 1]
                    self.tracer.record(TraceEvent(
                        self.cycle, "acquire", m.msg_id,
                        src=hop.src, dst=hop.dst, vc=hop.vc))
        waiters = self._waiters
        traced = self.tracer is not None
        runs = m.runs
        if room and len(runs) == 1 and runs[0][0] == 1:
            # A streaming worm, one flit per buffer: every flit moves,
            # and the queue (if any) refills hop 0 behind the tail.
            run = runs[0]
            span = run[1]
            back = p - span + 1
            end = g + span
            if not back or end > tail:
                dst = p + 1
                fp[g:end] = range(dst, back, -1)
                used_at[ids[dst]] = stamp
                used_at[ids[back + 1]] = stamp
                grow = dst != last
                if grow:
                    occupancy[ids[dst]] += 1
                else:
                    m.delivered_flits += 1
                lo = ids[back]
                if occupancy[lo] <= 0:
                    raise RuntimeError(
                        f"buffer underflow on {net.resource_key(lo)}"
                    )
                occupancy[lo] -= 1
                if (traced or end > tail
                        or (waiters
                            and not waiters.keys().isdisjoint(ids[back:dst]))):
                    self._crossed(m, g, dst, back, 1)
                if end <= tail:  # the queue's front flit refills hop 0
                    fp[end] = 0
                    used_at[lo] = stamp
                    occupancy[lo] += 1
                    if traced or end == tail:
                        self._crossed(m, end, 0, -1, 1)
                    run[1] += grow
                    return span + 1
                if span - 1 + grow:  # the tail left the back buffer
                    run[1] = span - 1 + grow
                else:
                    runs.clear()
                return span
        moved = 0
        new: List[List[int]] = []
        pend = -1  # count of the previous run's back buffer, unpushed
        for c, span in runs:
            back = p - span + 1
            if not c:
                k = span  # a gap holds none of our flits
            elif room:
                k = 0
            elif c < cap:
                # Buffer k moves iff buffer k - 1 (unmoved) has room.
                k = 1
                while k < span and occupancy[ids[p - k + 1]] >= cap:
                    k += 1
            else:
                k = span
            if k < span:
                # The front flits of buffers k .. span - 1 cross one hop.
                dst = p - k + 1
                f = g + k * c
                fp[f : g + span * c : c] = range(dst, back, -1)
                moved += span - k
                used_at[ids[dst]] = stamp
                if dst == last:
                    m.delivered_flits += 1
                else:
                    occupancy[ids[dst]] += 1
                used_at[ids[back + 1]] = stamp
                lo = ids[back]
                if occupancy[lo] <= 0:
                    raise RuntimeError(
                        f"buffer underflow on {net.resource_key(lo)}"
                    )
                occupancy[lo] -= 1
                if (traced or f + (span - 1 - k) * c == tail
                        or (waiters
                            and not waiters.keys().isdisjoint(ids[back:dst]))):
                    self._crossed(m, f, dst, back, c)
                if pend >= 0:
                    _push(new, pend + (not k), 1)
                elif not k and dst != last:
                    new.append([1, 1])  # the head's new buffer
                if k:
                    _push(new, c, k - 1)
                    _push(new, c + 1, 1)
                    _push(new, c, span - 1 - k)
                else:
                    _push(new, c, span - 1)
                pend = c - 1
                room = True
            else:
                if pend >= 0:
                    _push(new, pend, 1)
                _push(new, c, span - 1)
                pend = c
                room = occupancy[ids[back]] < cap
            g += c * span
            p = back - 1
        # The source queue's front flit enters hop 0: behind the last
        # run, or past a gap of straggler-filled buffers.
        if g <= tail:
            if runs and p != -1:
                room = occupancy[ids[0]] < cap
            if room:
                fp[g] = 0
                moved += 1
                used_at[ids[0]] = stamp
                if last:
                    occupancy[ids[0]] += 1
                else:
                    m.delivered_flits += 1
                if traced or g == tail:
                    self._crossed(m, g, 0, -1, 1)
                if p == -1 and runs:
                    pend += 1
                elif last:
                    if pend >= 0:
                        _push(new, pend, 1)
                        _push(new, 0, p)
                    pend = 1
        if pend >= 0:
            _push(new, pend, 1)
        while new and not new[-1][0]:
            new.pop()
        if new and not new[0][0]:
            del new[0]
        m.runs = new
        return moved

    def _crossed(self, m: Message, f: int, dst: int, back: int,
                 c: int) -> None:
        """The rest of the front flits ``f, f + c, ...`` of the buffers
        at hops ``dst - 1`` down to ``back`` crossing one hop forward
        (counters and stamps are done): the wake-ups of every popped
        buffer with waiters, the trace events in flit order and the
        tail's release."""
        ids = m.hop_ids
        waiters = self._waiters
        if back >= 0 and waiters:
            for q in range(dst - 1, back - 1, -1):
                if ids[q] in waiters:
                    self._wake_key(ids[q])
        tracer = self.tracer
        mid = m.msg_id
        if tracer is not None:
            for h in range(dst, back, -1):
                hop = m.hops[h]
                tracer.record(TraceEvent(self.cycle, "flit", mid,
                                         flit=f + (dst - h) * c, src=hop.src,
                                         dst=hop.dst, vc=hop.vc))
        if f + (dst - back - 1) * c == m.num_flits - 1:
            # The tail crossed hop ``back + 1``: release it.
            net = self.net
            rid = ids[back + 1]
            if net.owners[rid] != mid:
                raise RuntimeError(
                    f"message {mid} does not own {net.resource_key(rid)}"
                )
            net.owners[rid] = None
            if rid in waiters:
                self._wake_key(rid)
            if tracer is not None:
                hop = m.hops[back + 1]
                tracer.record(TraceEvent(self.cycle, "release", mid,
                                         src=hop.src, dst=hop.dst,
                                         vc=hop.vc))

    def step(self) -> int:
        """Advance one cycle; returns the number of flits that moved.

        Due live-fault events are applied first, so a fault at cycle
        ``c`` affects cycle ``c``'s movement.  Only runnable messages
        are visited.
        """
        self._process_due_events()
        self.net.new_cycle()
        cycle = self.cycle
        messages = self.messages
        pending = self._pending
        runnable = self._runnable
        # Admit newly injectable messages (and retries whose backoff
        # expired) into the runnable list.
        while pending and pending[0][0] <= cycle:
            _, mid = heapq.heappop(pending)
            m = messages[mid]
            if m.deliver_cycle is not None or m.abort_reason is not None:
                continue  # finished
            if m.inject_cycle <= cycle:
                insort(runnable, (m.inject_cycle, mid))
            else:  # defensive: injection was re-delayed
                heapq.heappush(pending, (m.inject_cycle, mid))
        # The oldest-first arbitration agenda is the runnable list,
        # sorted by (inject cycle, id); wakes from releases/pops may
        # insert behind the current position.  Messages that stay
        # runnable are appended, in order, to the next cycle's list.
        agenda = runnable
        self._agenda = agenda
        self._runnable = runnable = []
        parked = self._parked
        waiters = self._waiters
        moved = 0
        i = 0
        while i < len(agenda):
            sk = agenda[i]
            i += 1
            mid = sk[1]
            self._agenda_cur_key = sk
            m = messages[mid]
            if m.deliver_cycle is not None or m.abort_reason is not None:
                continue  # finished out-of-band
            n = self._advance_message(m)
            moved += n
            if m.delivered_flits == m.num_flits and m.deliver_cycle is None:
                m.deliver_cycle = cycle + 1
                self._finished_count += 1
                if self.tracer is not None:
                    self.tracer.record(
                        TraceEvent(cycle, "deliver", mid,
                                   src=m.source, dst=m.dest)
                    )
                continue
            if n == 0:
                keys = self._park_keys(m)
                if keys is not None:
                    parked[mid] = keys
                    self.park_events += 1
                    for k in keys:
                        lst = waiters.get(k)
                        if lst is None:
                            waiters[k] = [mid]
                        else:
                            lst.append(mid)
                    continue
            runnable.append(sk)
        self._agenda = None
        self.cycle += 1
        # A full scan's idle check: runnable | parked is exactly the
        # set of unfinished messages with inject_cycle < self.cycle
        # (pending ones are strictly later).
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
            reg.inc(name, max(0, total - pub.get(name, 0)))
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
                reason=reason,
            )
            pub[key] = total

    def stats(self) -> SimStats:
        """Aggregate statistics over all delivered messages."""
        return SimStats.from_messages(self.cycle, list(self.messages.values()))
