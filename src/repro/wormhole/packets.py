"""Messages and their wormhole state.

A message is a sequence of *flits* (flow control units, Section 1)
that follow the same path in a pipelined manner.  The path is a
k-round dimension-ordered route through the intermediates
:func:`repro.routing.find_k_round_routes` picks; each hop is annotated
with the virtual channel of its round (round ``t`` uses VC ``t``),
which is exactly the paper's deadlock-avoidance discipline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from ..mesh.geometry import Node

__all__ = ["Hop", "Message"]


@dataclass(frozen=True)
class Hop:
    """One physical-link traversal of a route.

    Attributes
    ----------
    src, dst:
        Link endpoints.
    vc:
        Virtual channel used on this hop (= the routing round).
    """

    src: Node
    dst: Node
    vc: int

    @classmethod
    def chain(cls, path: Sequence[Node], vc: int) -> List["Hop"]:
        """The hops between consecutive nodes of ``path``, all on
        ``vc``: ``Hop(u, v, vc)`` for each step, with the frozen
        ``__init__``'s three attribute writes made directly."""
        new = object.__new__
        put = object.__setattr__
        hops: List[Hop] = []
        for u, v in zip(path, path[1:]):
            hop = new(cls)
            put(hop, "src", u)
            put(hop, "dst", v)
            put(hop, "vc", vc)
            hops.append(hop)
        return hops


class _QueuedRoute:
    """``Message.hops`` / ``Message.hop_ids`` of a message whose route
    its simulator has queued (:meth:`Message.route_later`): the first
    read routes the simulator's queue, which sets both on the instance.

    A non-data descriptor, so an instance attribute shadows it: a
    routed message's fields are plain attribute reads, and the
    descriptor runs only for a message still waiting for its route."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, msg: Optional["Message"], owner: Any = None) -> Any:
        if msg is None:
            return self
        route = msg.__dict__.get("_route_queue")
        if route is None:
            raise AttributeError(self.name)
        route()
        return msg.__dict__[self.name]


@dataclass
class Message:
    """A wormhole message in flight.

    The flit occupancy is tracked as ``flit_pos[f]``: the index of the
    last hop flit ``f`` has crossed (-1 = still queued at the source).
    ``flit_pos`` is non-increasing in ``f`` and adjacent flits are at
    most ``buffer_flits`` hops apart (wormhole back-pressure).
    """

    msg_id: int
    source: Node
    dest: Node
    num_flits: int
    hops: List[Hop]
    inject_cycle: int
    flit_pos: List[int] = field(default_factory=list)
    delivered_flits: int = 0
    deliver_cycle: Optional[int] = None
    # --- live-fault (chaos) lifecycle --------------------------------
    attempts: int = 1  # 1 = never retried
    abort_cycle: Optional[int] = None
    abort_reason: Optional[str] = None
    first_inject_cycle: int = -1  # original injection (pre-retry)
    # Resource ids of ``hops`` in the simulator's network, one per hop
    # (:meth:`repro.wormhole.VirtualNetwork.admit_route`): the indices
    # the flit kernel reads the network's flat state lists with.  The
    # simulator sets them with every route it assigns.
    hop_ids: List[int] = field(default_factory=list, repr=False,
                               compare=False)
    # Run-length view of the in-network part of ``flit_pos`` kept by
    # the simulator's kernel: ``[c, L]`` entries from the head's
    # buffer backwards, each L consecutive hops whose buffers hold c
    # of this message's flits (c = 0: a gap).  ``runs_of`` is the
    # ``flit_pos`` list they describe; replacing ``flit_pos`` makes the
    # kernel rebuild them.
    runs: List[List[int]] = field(default_factory=list, init=False,
                                  repr=False, compare=False)
    runs_of: Optional[List[int]] = field(default=None, init=False,
                                         repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_flits < 1:
            raise ValueError("a message needs at least one flit")
        if not self.flit_pos:
            self.flit_pos = [-1] * self.num_flits
        if self.first_inject_cycle < 0:
            self.first_inject_cycle = self.inject_cycle

    @property
    def num_hops(self) -> int:
        return len(self.hops)

    @property
    def head_pos(self) -> int:
        return self.flit_pos[0]

    @property
    def tail_pos(self) -> int:
        return self.flit_pos[-1]

    @property
    def is_delivered(self) -> bool:
        return self.deliver_cycle is not None

    @property
    def is_aborted(self) -> bool:
        """Permanently given up on (endpoint died, unreachable after a
        live fault, or the retry budget ran out)."""
        return self.abort_reason is not None

    @property
    def is_finished(self) -> bool:
        """Terminal either way: delivered or explicitly aborted."""
        return self.is_delivered or self.is_aborted

    @property
    def was_retried(self) -> bool:
        return self.attempts > 1

    def route_later(self, route_queue: Callable[[], None]) -> None:
        """Leave ``hops`` and ``hop_ids`` unset until ``route_queue()``
        (the simulator's batch of queued routes) sets them; a read of
        either before then runs it."""
        del self.hops, self.hop_ids
        self._route_queue = route_queue

    def routed(self, hops: List[Hop], hop_ids: List[int]) -> None:
        """Set the route :meth:`route_later` left unset."""
        self.hops = hops
        self.hop_ids = hop_ids
        del self._route_queue

    def reset_for_retry(
        self, hops: List[Hop], hop_ids: List[int], inject_cycle: int
    ) -> None:
        """Re-arm the message on a fresh route (and its resource ids)
        after a live-fault abort (all flits back at the source, nothing
        delivered)."""
        self.hops = hops
        self.hop_ids = hop_ids
        self.inject_cycle = int(inject_cycle)
        self.flit_pos = [-1] * self.num_flits
        self.delivered_flits = 0
        self.attempts += 1

    @property
    def latency(self) -> Optional[int]:
        """Injection-to-tail-delivery latency in cycles."""
        if self.deliver_cycle is None:
            return None
        return self.deliver_cycle - self.inject_cycle

    @property
    def total_latency(self) -> Optional[int]:
        """First-injection-to-delivery latency, including time lost to
        live-fault aborts, backoff and retries."""
        if self.deliver_cycle is None:
            return None
        return self.deliver_cycle - self.first_inject_cycle

    def next_hop_index(self) -> Optional[int]:
        """Index of the hop the head wants next, or None if the head
        has crossed every hop (zero-hop messages deliver instantly)."""
        nxt = self.head_pos + 1
        return nxt if nxt < self.num_hops else None

    def path_nodes(self) -> List[Node]:
        """The full node path (source first)."""
        out = [self.source]
        out.extend(h.dst for h in self.hops)
        return out


# Declared after the dataclass, so that the generated ``__init__`` takes
# both fields as before and stores them on the instance.
Message.hops = _QueuedRoute("hops")  # type: ignore[assignment]
Message.hop_ids = _QueuedRoute("hop_ids")  # type: ignore[assignment]
