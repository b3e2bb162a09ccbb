"""The whole-mesh flood route materializer, kept as the reference
``repro.routing.find_k_round_route`` must match path for path.

It floods the forward reach sets of ``v`` and the backward sets of
``w`` over dense :class:`~repro.routing.multiround.FaultGrids`, then
picks each intermediate from the grid of feasible nodes with the same
policies and the same rng draws as the fast path.  Every route costs
O(k N), so use it on test-sized meshes only.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.mesh.geometry import Node
from repro.routing.dor import dor_path
from repro.routing.multiround import (
    FaultGrids,
    reach_set_one_round,
    reverse_reach_set_one_round,
)
from repro.routing.ordering import KRoundOrdering


def find_k_round_route(
    grids: FaultGrids,
    orderings: KRoundOrdering,
    v: Sequence[int],
    w: Sequence[int],
    policy: str = "shortest",
    rng: Optional[np.random.Generator] = None,
) -> Optional[List[List[Node]]]:
    """Materialize a concrete k-round route from ``v`` to ``w``.

    Returns one node path per round (round ``t``'s path starts where
    round ``t-1``'s ended), or ``None`` if ``w`` is not
    ``(k, F, pi_vec)``-reachable from ``v``.

    ``policy`` selects the intermediate nodes (the congestion heuristic
    discussed after Definition 2.3):

    - ``"shortest"``: minimize the total route length (sum of per-round
      L1 hops), breaking ties uniformly at random (needs ``rng``) —
      the paper's suggested heuristic;
    - ``"first"``: lexicographically smallest intermediates
      (deterministic);
    - ``"random"``: uniform choice among feasible intermediates.
    """
    if policy not in ("shortest", "first", "random"):
        raise ValueError(f"unknown policy {policy!r}")
    mesh = grids.mesh
    v = tuple(int(x) for x in v)
    w = tuple(int(x) for x in w)
    k = orderings.k
    # Forward sets F_t = nodes reachable from v in t rounds.
    start = np.zeros(mesh.widths, dtype=bool)
    if not grids.good[v] or not grids.good[w]:
        return None
    start[v] = True
    fwd: List[np.ndarray] = [start]
    for t in range(1, k + 1):
        fwd.append(reach_set_one_round(grids, orderings[t - 1], fwd[t - 1]))
    if not fwd[k][w]:
        return None
    # Backward sets B_t = nodes that can reach w in the remaining rounds.
    target = np.zeros(mesh.widths, dtype=bool)
    target[w] = True
    bwd: List[np.ndarray] = [target]
    for t in range(k - 1, -1, -1):
        bwd.append(reverse_reach_set_one_round(grids, orderings[t], bwd[-1]))
    bwd.reverse()

    if rng is None:
        rng = np.random.default_rng(0)

    def choose(candidates: np.ndarray, prev: Node, goal: Node) -> Node:
        coords = np.argwhere(candidates)
        if policy == "first":
            order = np.lexsort(coords.T[::-1])
            return tuple(int(x) for x in coords[order[0]])
        if policy == "random":
            return tuple(int(x) for x in coords[rng.integers(len(coords))])
        # "shortest": the goal itself, when feasible, is always a
        # minimum-cost intermediate (triangle equality) and collapses
        # the remaining rounds to no-ops — prefer it outright.
        if candidates[goal]:
            return goal
        prev_arr = np.asarray(prev)
        goal_arr = np.asarray(goal)
        cost = np.abs(coords - prev_arr).sum(axis=1) + np.abs(
            coords - goal_arr
        ).sum(axis=1)
        best = np.flatnonzero(cost == cost.min())
        pick = best[rng.integers(len(best))]
        return tuple(int(x) for x in coords[pick])

    paths: List[List[Node]] = []
    cur = v
    for t in range(k):
        if t == k - 1:
            nxt = w
        else:
            # Feasible intermediates after round t+1: one round from cur,
            # and able to finish within the remaining rounds.
            here = np.zeros(mesh.widths, dtype=bool)
            here[cur] = True
            feasible = reach_set_one_round(grids, orderings[t], here) & bwd[t + 1]
            if not feasible.any():  # pragma: no cover - fwd/bwd guarantee nonempty
                return None
            nxt = choose(feasible, cur, w)
        paths.append(dor_path(mesh, orderings[t], cur, nxt))
        cur = nxt
    return paths
