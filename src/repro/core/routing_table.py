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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..mesh.faults import FaultSet
from ..mesh.geometry import Mesh, Node
from ..routing.ordering import KRoundOrdering
from ..routing.reachindex import ReachIndex, find_k_round_route
from .lamb import LambResult, build_reach_index

__all__ = ["RouteEntry", "RoutingTable", "build_routing_table"]


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
        self._index: Optional[ReachIndex] = result.reach_index
        self._rng = np.random.default_rng(seed)
        self._entries: Dict[Tuple[Node, Node], RouteEntry] = {}

    @property
    def index(self) -> ReachIndex:
        """The :class:`ReachIndex` routes are resolved from: the
        result's own, or — for a lean result restored from a record —
        one built from its faults and orderings on first use."""
        if self._index is None:
            self._index = build_reach_index(self.faults, self.orderings)
        return self._index

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
        key = (source, dest)
        if key in self._entries:
            return self._entries[key]
        for end, name in ((source, "source"), (dest, "destination")):
            if not self.result.is_survivor(end):
                raise ValueError(f"{name} {end} is not a survivor node")
        entry = self._compute(source, dest)
        if entry is None:
            raise RuntimeError(
                f"{dest} unreachable from {source}: the lamb set is invalid"
            )
        self._entries[key] = entry
        return entry

    def _compute(self, source: Node, dest: Node) -> Optional[RouteEntry]:
        from ..routing.turns import count_turns_multiround

        paths = find_k_round_route(
            self.index, source, dest, policy=self.policy, rng=self._rng
        )
        if paths is None:
            return None
        # Trim trailing no-op rounds: rounds_used is the last round
        # whose path actually moves.
        rounds_used = 0
        for t, p in enumerate(paths):
            if len(p) > 1:
                rounds_used = t + 1
        rounds_used = max(rounds_used, 1)
        intermediates = tuple(p[-1] for p in paths[:-1])
        hops = sum(len(p) - 1 for p in paths)
        turns = count_turns_multiround(paths)
        return RouteEntry(
            source=source,
            dest=dest,
            intermediates=intermediates,
            rounds_used=rounds_used,
            hops=hops,
            turns=turns,
        )

    # ------------------------------------------------------------------
    def preload(self, entries: Iterable[RouteEntry]) -> None:
        """Seed the cache with precomputed entries (deserialization,
        warm hand-off between control-plane epochs).

        Every entry's endpoints must be survivors of this table's
        reconfiguration — entries from a different epoch are rejected
        rather than silently serving routes through dead hardware.
        """
        for e in entries:
            for end, name in ((e.source, "source"), (e.dest, "destination")):
                if not self.result.is_survivor(end):
                    raise ValueError(
                        f"preloaded route {e.source}->{e.dest}: "
                        f"{name} {end} is not a survivor node"
                    )
            self._entries[(e.source, e.dest)] = e

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
    are resolved.
    """
    table = RoutingTable(result, policy=policy, seed=seed)
    if pairs is None:
        survivors = result.survivors()
        for v in survivors:
            for w in survivors:
                if v != w:
                    table.lookup(v, w)
    else:
        for (v, w) in pairs:
            table.lookup(v, w)
    return table
