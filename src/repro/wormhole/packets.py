"""Messages and their wormhole state.

A message is a sequence of *flits* (flow control units, Section 1)
that follow the same path in a pipelined manner.  The path is a
k-round dimension-ordered route materialized by
:func:`repro.routing.find_k_round_route`; each hop is annotated with
the virtual channel of its round (round ``t`` uses VC ``t``), which is
exactly the paper's deadlock-avoidance discipline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

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
