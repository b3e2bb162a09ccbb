"""Dinic's maximum-flow algorithm.

Solves weighted vertex cover *optimally* on bipartite graphs (the
paper's reference [10] reduction) whenever the weights are fractional
or too large for scipy's int32 capacities, and is the parity oracle
for the compiled solver :mod:`repro.graphs.bipartite_vc` uses
otherwise.  Dinic runs in O(V^2 E) in general and O(E sqrt(V)) on
unit-capacity bipartite networks.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Set

__all__ = ["MaxFlow", "INF"]

INF = float("inf")


class MaxFlow:
    """A flow network on vertices ``0 .. n-1`` with Dinic max-flow.

    Examples
    --------
    >>> g = MaxFlow(4)
    >>> _ = g.add_edge(0, 1, 3); _ = g.add_edge(0, 2, 2)
    >>> _ = g.add_edge(1, 3, 2); _ = g.add_edge(2, 3, 3)
    >>> g.max_flow(0, 3)
    4.0
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need at least one vertex")
        self.n = n
        # Edge arrays: to[i], cap[i]; edge i^1 is the reverse of edge i.
        self._to: List[int] = []
        self._cap: List[float] = []
        self._adj: List[List[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, capacity: float) -> int:
        """Add a directed edge; returns its id (for flow queries)."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("vertex out of range")
        if capacity < 0:
            raise ValueError("capacity must be nonnegative")
        eid = len(self._to)
        self._to.append(v)
        self._cap.append(capacity)
        self._adj[u].append(eid)
        self._to.append(u)
        self._cap.append(0.0)
        self._adj[v].append(eid + 1)
        return eid

    def edge_flow(self, eid: int) -> float:
        """Flow currently routed through edge ``eid``."""
        return self._cap[eid ^ 1]

    # ------------------------------------------------------------------
    def _bfs_levels(self, s: int, t: int) -> Optional[List[int]]:
        level = [-1] * self.n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in self._adj[u]:
                v = self._to[eid]
                if self._cap[eid] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level if level[t] >= 0 else None

    def _dfs_block(
        self, u: int, t: int, pushed: float, level: List[int], it: List[int]
    ) -> float:
        if u == t:
            return pushed
        while it[u] < len(self._adj[u]):
            eid = self._adj[u][it[u]]
            v = self._to[eid]
            if self._cap[eid] > 0 and level[v] == level[u] + 1:
                got = self._dfs_block(
                    v, t, min(pushed, self._cap[eid]), level, it
                )
                if got > 0:
                    self._cap[eid] -= got
                    self._cap[eid ^ 1] += got
                    return got
            it[u] += 1
        return 0.0

    def max_flow(self, s: int, t: int) -> float:
        """Compute the maximum s-t flow (mutates residual capacities)."""
        if s == t:
            raise ValueError("source equals sink")
        total = 0.0
        while True:
            level = self._bfs_levels(s, t)
            if level is None:
                return total
            it = [0] * self.n
            while True:
                pushed = self._dfs_block(s, t, INF, level, it)
                if pushed <= 0:
                    break
                total += pushed

    def min_cut_side(self, s: int) -> Set[int]:
        """Vertices reachable from ``s`` in the residual graph.

        Call after :meth:`max_flow`; the edges from this set to its
        complement form a minimum cut.
        """
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in self._adj[u]:
                v = self._to[eid]
                if self._cap[eid] > 0 and v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen
