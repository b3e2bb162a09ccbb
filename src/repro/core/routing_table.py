"""Routing-table generation: the deliverable of a reconfiguration.

After the lamb set is chosen, the machine needs concrete routes.  For
k-round dimension-ordered routing a route is fully determined by its
``k - 1`` intermediate nodes (Definition 2.3), so the reconfiguration
artifact is a table mapping (source, destination) survivor pairs to
intermediate lists.  Routes that succeed with *fewer* rounds store
fewer intermediates (the head simply continues on the later rounds'
virtual channels without turning, so shorter routes are strictly
better); the table records the minimal number of rounds actually
needed, which the paper's intermediate matrices ``R^(r)`` expose
(Section 6.2).

For large meshes an all-pairs table is O(N^2); this module therefore
also offers on-demand route resolution, which routes from the lamb
pipeline's own :class:`~repro.routing.reachindex.ReachIndex` at a cost
independent of N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..mesh.faults import FaultSet
from ..mesh.geometry import Mesh, Node
from ..routing.ordering import KRoundOrdering
# ``find_k_round_route`` stays bound here: the benchmark's tracer
# (``perfbench/tracer.py``) wraps this module's binding.
from ..routing.reachindex import (  # noqa: F401
    find_k_round_route,
    find_k_round_routes,
)
from .lamb import LambResult

__all__ = ["RouteEntry", "RoutingTable", "build_routing_table", "route_entry"]


@dataclass(frozen=True)
class RouteEntry:
    """One source->destination route: the chosen intermediates and the
    number of rounds actually used (<= k)."""

    source: Node
    dest: Node
    intermediates: Tuple[Node, ...]
    rounds_used: int
    hops: int
    turns: int


def route_entry(
    orderings: KRoundOrdering,
    source: Node,
    dest: Node,
    intermediates: Tuple[Node, ...],
) -> RouteEntry:
    """The entry of the route through ``intermediates``, in closed form.

    Round ``t`` runs from stop ``t`` to stop ``t + 1`` (``source``, the
    intermediates, ``dest``) and moves along each dimension of its
    ordering in turn: one straight segment per coordinate that
    differs.  ``hops`` is the sum of the rounds' L1 lengths;
    ``rounds_used`` is the last round that moves (at least 1); a turn
    is a segment whose (dimension, direction) differs from the one
    before it, across round boundaries too, since the message is
    pipelined through every round (Section 1).  No node path is walked.
    """
    stops = (source,) + intermediates + (dest,)
    hops = turns = rounds_used = 0
    heading: Optional[Tuple[int, bool]] = None
    for t, pi in enumerate(orderings):
        a, b = stops[t], stops[t + 1]
        for j in pi:
            delta = b[j] - a[j]
            if delta:
                hops += abs(delta)
                if heading is not None and heading != (j, delta > 0):
                    turns += 1
                heading = (j, delta > 0)
                rounds_used = t + 1
    return RouteEntry(
        source=source,
        dest=dest,
        intermediates=intermediates,
        rounds_used=max(rounds_used, 1),
        hops=hops,
        turns=turns,
    )


class RoutingTable:
    """Survivor-to-survivor routes for a reconfigured machine.

    Built lazily or exhaustively (:func:`build_routing_table`).  Lambs
    and faulty nodes are rejected as endpoints — lambs may appear as
    intermediates, which is precisely their job.
    """

    def __init__(
        self,
        result: LambResult,
        policy: str = "shortest",
        seed: int = 0,
    ) -> None:
        self.result = result
        self.faults: FaultSet = result.faults
        self.mesh: Mesh = result.mesh
        self.orderings: KRoundOrdering = result.orderings
        self.policy = policy
        self._rng = np.random.default_rng(seed)
        self._entries: Dict[Tuple[Node, Node], RouteEntry] = {}

    # ------------------------------------------------------------------
    def lookup(self, source: Sequence[int], dest: Sequence[int]) -> RouteEntry:
        """The route entry for a survivor pair (computed on demand)."""
        try:
            # A caller passing int tuples hits with no conversion.
            return self._entries[(source, dest)]
        except (KeyError, TypeError):  # a miss, or unhashable sequences
            pass
        source = tuple(int(x) for x in source)
        dest = tuple(int(x) for x in dest)
        for end, name in ((source, "source"), (dest, "destination")):
            if not self.result.is_survivor(end):
                raise ValueError(f"{name} {end} is not a survivor node")
        (entry,) = self.resolve([(source, dest)])
        if entry is None:
            raise RuntimeError(
                f"{dest} unreachable from {source}: the lamb set is invalid"
            )
        return entry

    def resolve(
        self, pairs: Sequence[Tuple[Sequence[int], Sequence[int]]]
    ) -> List[Optional[RouteEntry]]:
        """The route entry of every pair of ``pairs``, in order; the
        pairs the table lacks are routed in one
        :func:`~repro.routing.reachindex.find_k_round_routes` batch and
        cached.

        Missing pairs go to the batch in order of first appearance, so
        routes and rng draws are those of one :meth:`lookup` per pair.
        A pair left without a route reads ``None``: one with a
        non-survivor or malformed endpoint (it draws nothing;
        :meth:`lookup` raises its error) or an unreachable one.
        """
        entries = self._entries
        found: List[Optional[RouteEntry]]
        try:
            # Int-tuple pairs, the common case, are read in one pass.
            found = [entries.get(pair) for pair in pairs]  # type: ignore
        except TypeError:  # unhashable sequences
            found = [None] * len(pairs)
        missing: Dict[int, Tuple[Node, Node]] = {}
        for q, entry in enumerate(found):
            if entry is None:
                source, dest = pairs[q]
                try:
                    missing[q] = (
                        tuple(int(x) for x in source),
                        tuple(int(x) for x in dest),
                    )
                except (TypeError, ValueError):
                    pass
        if not missing:
            return found
        survivor = self.result.is_survivor
        todo = [
            key for key in dict.fromkeys(missing.values())
            if key not in entries and survivor(key[0]) and survivor(key[1])
        ]
        if todo:
            routes = find_k_round_routes(
                self.result.reach_index, todo, self.policy, self._rng
            )
            for key, mids in zip(todo, routes):
                if mids is not None:
                    entries[key] = route_entry(self.orderings, *key, mids)
        for q, key in missing.items():
            found[q] = entries.get(key)
        return found

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[RouteEntry]:
        return list(self._entries.values())

    def round_usage_histogram(self) -> Dict[int, int]:
        """How many cached routes needed 1, 2, ... rounds — the
        quantity behind the paper's observation that most pairs remain
        one-round reachable under sparse faults."""
        hist: Dict[int, int] = {}
        for e in self._entries.values():
            hist[e.rounds_used] = hist.get(e.rounds_used, 0) + 1
        return hist

    def max_turns(self) -> int:
        return max((e.turns for e in self._entries.values()), default=0)


def build_routing_table(
    result: LambResult,
    pairs: Optional[Sequence[Tuple[Sequence[int], Sequence[int]]]] = None,
    policy: str = "shortest",
    seed: int = 0,
) -> RoutingTable:
    """Populate a routing table.

    ``pairs=None`` builds the full all-pairs table over survivors
    (O(|survivors|^2) — small meshes); otherwise only the given pairs
    are resolved.  The routes come from one :meth:`RoutingTable.resolve`
    batch; a non-survivor or unreachable pair raises as
    :meth:`RoutingTable.lookup` does.
    """
    table = RoutingTable(result, policy=policy, seed=seed)
    if pairs is None:
        survivors = result.survivors()
        pairs = [(v, w) for v in survivors for w in survivors if v != w]
    pairs = list(pairs)
    table.resolve(pairs)
    for (v, w) in pairs:  # raises for a pair left without a route
        table.lookup(v, w)
    return table
