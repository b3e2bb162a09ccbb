"""Generic minimal-cycle search over dependency graphs.

The CDG deadlock prover (:mod:`repro.analysis.static.cdg`) reduces its
soundness question to "is this dependency graph acyclic, and if not,
what is a *minimal* cycle I can show the user?", asked of the
channel-dependency graph (nodes are ``(src, dst, vc)`` channels).

The search is generic over the node type.  Kahn's algorithm peels
the acyclic fringe (every node that can be topologically removed is
provably on no cycle), then a BFS from each surviving node of the
cyclic core — capped at :data:`MINIMIZE_SOURCES_CAP`
deterministically-chosen sources — finds the globally shortest cycle
through any of them.  The result is a *certificate*: replaying the
returned node sequence through the graph's edges witnesses the cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Tuple, TypeVar

__all__ = ["MINIMIZE_SOURCES_CAP", "find_minimal_cycle"]

N = TypeVar("N", bound=Hashable)

#: BFS fan-out cap for minimal-cycle search on huge cyclic graphs.
MINIMIZE_SOURCES_CAP = 256


def find_minimal_cycle(
    graph: Dict[N, Tuple[N, ...]],
) -> Optional[List[N]]:
    """A minimal cycle of ``graph``, or ``None`` if it is acyclic.

    ``graph`` maps each node to its successor tuple; successors that
    never appear as keys are sinks (no outgoing edges) and can never
    lie on a cycle, so they are ignored.  Kahn-peels the acyclic
    fringe first; on the cyclic core a BFS from each surviving node
    (capped at :data:`MINIMIZE_SOURCES_CAP` sources, deterministically
    chosen by key insertion order) finds the globally shortest cycle
    through any of them.
    """
    indeg: Dict[N, int] = {c: 0 for c in graph}
    for succs in graph.values():
        for c2 in succs:
            if c2 in indeg:
                indeg[c2] += 1
    queue = deque(c for c, n in indeg.items() if n == 0)
    alive = dict(indeg)
    while queue:
        c = queue.popleft()
        for c2 in graph.get(c, ()):
            if c2 in alive:
                alive[c2] -= 1
                if alive[c2] == 0:
                    queue.append(c2)
    core = [c for c, n in alive.items() if n > 0]
    if not core:
        return None
    core_set = frozenset(core)

    best: Optional[List[N]] = None
    for start in core[:MINIMIZE_SOURCES_CAP]:
        # Shortest path start -> ... -> start within the cyclic core.
        parent: Dict[N, N] = {}
        dq = deque([start])
        seen = {start}
        found: Optional[N] = None
        while dq and found is None:
            c = dq.popleft()
            if best is not None and _depth(parent, c, start) + 1 >= len(best):
                continue  # cannot beat the incumbent
            for c2 in graph.get(c, ()):
                if c2 == start:
                    found = c
                    break
                if c2 in core_set and c2 not in seen:
                    seen.add(c2)
                    parent[c2] = c
                    dq.append(c2)
        if found is None:
            continue
        cyc: List[N] = [found]
        while cyc[-1] != start:
            cyc.append(parent[cyc[-1]])
        cyc.reverse()
        if best is None or len(cyc) < len(best):
            best = cyc
            if len(best) == 1:  # self-loop: cannot do better
                break
    return best


def _depth(parent: Dict[N, N], c: N, start: N) -> int:
    n = 0
    while c != start:
        c = parent[c]
        n += 1
    return n
