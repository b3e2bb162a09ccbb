"""k-round route materialization from Lamb1's own rectangles.

Find-Reachability (Section 6.2) already describes every k-round route.
By Lemma 5.1, a node ``v`` in the round-1 SES ``S_a`` reaches all of a
DES ``D_j`` in one round exactly when ``R_1[a, j]`` holds, and every
node of an SES ``S_i`` finishes at ``w`` (in DES ``D_b``) exactly when
``R_2[i, b]`` holds.  So the feasible round-1 intermediates of a
2-round route are the disjoint rectangles ``D_j ∩ S_i`` with
``R_1[a, j] ∧ I_1[j, i] ∧ R_2[i, b]``; for ``k >= 3`` the last factor
becomes a backward suffix vector ``R_2 I_2 ... R_k[:, b]``.

:class:`ReachIndex` holds Lamb1's phase-1/2 output (every round's SES
and DES partitions, ``R_t``, ``I_t`` and the partial products
``R^(r)``); :func:`find_k_round_route` picks intermediates from its
rectangles in closed form.  Nothing here is mesh-sized: the cost of a
route is polynomial in the partition sizes (hence in f, Theorem 6.8)
plus the length of the returned path.  The whole-mesh flood it
replaces is kept as the test oracle (``tests/route_oracle.py``).

Build an index with :func:`repro.core.lamb.build_reach_index`, or take
the one :func:`repro.core.find_lamb_set` attaches to its result.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from ..mesh.geometry import Mesh, Node
from ..mesh.regions import Rect
from .dor import dor_path
from .ordering import KRoundOrdering

__all__ = ["ReachIndex", "ReachMatrices", "find_k_round_route"]

#: Valid ``policy=`` values of :func:`find_k_round_route`.
POLICIES = ("shortest", "first", "random")


class ReachMatrices(Protocol):
    """Find-Reachability's matrices, as
    :class:`repro.core.reachability.ReachabilityData` carries them."""

    round_matrices: List[np.ndarray]
    intersection_matrices: List[np.ndarray]
    partial: List[np.ndarray]


def corner_array(corners: Iterable[Tuple[int, ...]], d: int) -> np.ndarray:
    """Corner tuples as an ``(m, d)`` int64 array; ``np.fromiter`` over
    the flattened tuples skips ``np.asarray``'s per-tuple inspection."""
    return np.fromiter(chain.from_iterable(corners), np.int64).reshape(-1, d)


class ReachIndex:
    """Lamb1's phase-1/2 output, indexed for route materialization.

    Attributes
    ----------
    mesh, orderings:
        The machine and its k-round discipline.
    ses, des:
        ``ses[t]`` / ``des[t]`` are round ``t``'s SES / DES partitions
        (rounds with the same ordering share one list).
    reach:
        The Find-Reachability matrices: ``R_t``, ``I_t`` and the
        partial products ``R^(r)``.
    timings:
        Wall-clock seconds of the ``partition`` and ``reachability``
        phases that built the index.

    Corner arrays and candidate boxes are built on first use, so a
    lamb run that materializes no route pays nothing for them.
    """

    __slots__ = (
        "mesh", "orderings", "ses", "des", "reach", "timings",
        "_corners", "_boxes",
    )

    def __init__(
        self,
        mesh: Mesh,
        orderings: KRoundOrdering,
        ses: Sequence[Sequence[Rect]],
        des: Sequence[Sequence[Rect]],
        reach: ReachMatrices,
        timings: Optional[Dict[str, float]] = None,
    ) -> None:
        self.mesh = mesh
        self.orderings = orderings
        self.ses = list(ses)
        self.des = list(des)
        self.reach = reach
        self.timings: Dict[str, float] = dict(timings or {})
        # Keyed by partition identity, so rounds sharing a partition
        # share its arrays; ``ses``/``des`` keep the partitions alive,
        # so an id is never reused while cached.
        self._corners: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._boxes: Dict[int, Tuple[np.ndarray, ...]] = {}

    def corners(self, rects: Sequence[Rect]) -> Tuple[np.ndarray, np.ndarray]:
        """``(m, d)`` lo and hi corner arrays of one of the index's
        partitions."""
        key = id(rects)
        if key not in self._corners:
            d = self.mesh.d
            self._corners[key] = (
                corner_array((r.lo for r in rects), d),
                corner_array((r.hi for r in rects), d),
            )
        return self._corners[key]

    def locate(self, rects: Sequence[Rect], node: Node) -> Optional[int]:
        """Index of the rectangle of ``rects`` holding ``node``, or
        ``None`` (a faulty node lies in no SES or DES)."""
        lo, hi = self.corners(rects)
        x = np.asarray(node, dtype=np.int64)
        hit = np.flatnonzero(((lo <= x) & (x <= hi)).all(axis=1))
        return int(hit[0]) if hit.size else None

    def boxes(self, t: int) -> Tuple[np.ndarray, ...]:
        """Round ``t``'s candidate boxes ``D_{t,j} ∩ S_{t+1,i}``: the
        nonzeros ``(j, i)`` of ``I_t`` and their intersections'
        ``(lo, hi)`` corners."""
        if t not in self._boxes:
            j, i = np.nonzero(self.reach.intersection_matrices[t])
            d_lo, d_hi = self.corners(self.des[t])
            s_lo, s_hi = self.corners(self.ses[t + 1])
            self._boxes[t] = (
                j, i,
                np.maximum(d_lo[j], s_lo[i]),
                np.minimum(d_hi[j], s_hi[i]),
            )
        return self._boxes[t]


def _volumes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    sizes: np.ndarray = np.prod(hi - lo + 1, axis=1)
    return sizes


def _select(lo: np.ndarray, hi: np.ndarray, r: int) -> Tuple[int, Node]:
    """The ``r``-th node (0-based, C order) of a union of disjoint
    boxes, and the index of the box holding it.

    One coordinate at a time: the number of nodes whose coordinate
    ``c`` lies below ``x`` is piecewise linear in ``x`` (each box adds
    slope ``inner`` — its size over the later coordinates — between
    ``lo`` and ``hi + 1``), so one sort of the breakpoints and a
    ``searchsorted`` give coordinate ``c``; the boxes that hold it
    carry the remaining rank into coordinate ``c + 1``.  No node is
    enumerated.
    """
    idx = np.arange(lo.shape[0])
    node: List[int] = []
    rank = r
    for c in range(lo.shape[1]):
        blo, bhi = lo[idx], hi[idx]
        inner = _volumes(blo[:, c + 1:], bhi[:, c + 1:])
        pos = np.concatenate((blo[:, c], bhi[:, c] + 1))
        order = np.argsort(pos, kind="stable")
        pos = pos[order]
        slope = np.cumsum(np.concatenate((inner, -inner))[order])
        below = np.concatenate(([0], np.cumsum(slope[:-1] * np.diff(pos))))
        s = int(np.searchsorted(below, rank, "right")) - 1
        x = int(pos[s]) + (rank - int(below[s])) // int(slope[s])
        rank -= int(below[s]) + (x - int(pos[s])) * int(slope[s])
        idx = idx[(blo[:, c] <= x) & (x <= bhi[:, c])]
        node.append(x)
    return int(idx[0]), tuple(node)


def _choose(
    lo: np.ndarray,
    hi: np.ndarray,
    prev: Node,
    goal: Node,
    policy: str,
    rng: np.random.Generator,
) -> Tuple[int, Node]:
    """One intermediate from the disjoint candidate boxes, and the box
    it lies in.

    Every pick equals the whole-mesh flood's over the same candidate
    set, rng draw for rng draw: ``first`` is the lexicographic minimum;
    ``random`` is the ``rng.integers(count)``-th candidate in C order;
    ``shortest`` (with the goal infeasible, which the caller tests
    first) is the ``rng.integers(ties)``-th minimizer of ``|x -
    prev|_1 + |x - goal|_1`` in C order.
    """
    if policy == "first":
        b = int(np.lexsort(lo.T[::-1])[0])
        return b, tuple(int(x) for x in lo[b])
    if policy == "random":
        r = rng.integers(int(_volumes(lo, hi).sum()))
        return _select(lo, hi, int(r))
    g = np.asarray(goal, dtype=np.int64)
    # The cost is separable, and per dimension |x - p| + |x - g| is
    # flat on [min(p, g), max(p, g)]: each box's minimizers are that
    # interval clipped to the box.
    p = np.asarray(prev, dtype=np.int64)
    tie_lo = np.clip(np.minimum(p, g), lo, hi)
    tie_hi = np.clip(np.maximum(p, g), lo, hi)
    cost = (np.abs(tie_lo - p) + np.abs(tie_lo - g)).sum(axis=1)
    best = np.flatnonzero(cost == cost.min())
    tie_lo, tie_hi = tie_lo[best], tie_hi[best]
    r = rng.integers(int(_volumes(tie_lo, tie_hi).sum()))
    b, node = _select(tie_lo, tie_hi, int(r))
    return int(best[b]), node


def _feasible_goal(
    index: ReachIndex, t: int, row: int, suffix: np.ndarray, w: Node
) -> Optional[int]:
    """``w``'s round-``t + 1`` SES when ``w`` itself is a feasible
    round-``t`` intermediate from SES ``row``, else ``None`` — two
    corner tests instead of a pass over every candidate box."""
    i = index.locate(index.ses[t + 1], w)
    j = index.locate(index.des[t], w)
    if i is None or j is None:
        return None
    return i if suffix[i] and index.reach.round_matrices[t][row, j] else None


def find_k_round_route(
    index: ReachIndex,
    v: Sequence[int],
    w: Sequence[int],
    policy: str = "shortest",
    rng: Optional[np.random.Generator] = None,
) -> Optional[List[List[Node]]]:
    """Materialize a concrete k-round route from ``v`` to ``w``.

    Returns one node path per round of ``index.orderings`` (round
    ``t``'s path starts where round ``t-1``'s ended), or ``None`` if
    ``w`` is not ``(k, F, pi_vec)``-reachable from ``v`` (in particular
    when either endpoint is faulty).

    ``policy`` selects the intermediate nodes (the congestion heuristic
    discussed after Definition 2.3):

    - ``"shortest"``: minimize the total route length (sum of per-round
      L1 hops), breaking ties uniformly at random (needs ``rng``) —
      the paper's suggested heuristic;
    - ``"first"``: lexicographically smallest intermediates
      (deterministic);
    - ``"random"``: uniform choice among feasible intermediates.

    Reachability is one lookup in ``R^(k)``; round ``t``'s candidates
    are the boxes ``D_{t,j} ∩ S_{t+1,i}`` with ``R_t[a, j]`` (``a`` the
    current node's SES), ``I_t[j, i]`` and the backward suffix vector
    at ``i``.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    src: Node = tuple(int(x) for x in v)
    dst: Node = tuple(int(x) for x in w)
    k = index.orderings.k
    reach = index.reach
    row = index.locate(index.ses[0], src)
    b = index.locate(index.des[k - 1], dst)
    if row is None or b is None or not reach.partial[k - 1][row, b]:
        return None
    # suffix[t][i]: every node of S_{t,i} finishes at w in rounds t..k-1.
    suffix: List[np.ndarray] = [np.zeros(0, dtype=bool)] * k
    if k > 1:
        suffix[k - 1] = reach.round_matrices[k - 1][:, b]
        for t in range(k - 2, 0, -1):
            mid = reach.intersection_matrices[t][:, suffix[t + 1]].any(axis=1)
            suffix[t] = reach.round_matrices[t][:, mid].any(axis=1)
    if rng is None:
        rng = np.random.default_rng(0)
    paths: List[List[Node]] = []
    cur = src
    for t in range(k):
        goal = (
            _feasible_goal(index, t, row, suffix[t + 1], dst)
            if policy == "shortest" and t < k - 1
            else None
        )
        if t == k - 1:
            nxt = dst
        elif goal is not None:
            # The goal itself, when feasible, is always a minimum-cost
            # intermediate (triangle equality) and collapses the
            # remaining rounds to no-ops: take it outright, no draw.
            nxt, row = dst, goal
        else:
            j, i, lo, hi = index.boxes(t)
            keep = np.flatnonzero(
                reach.round_matrices[t][row, j] & suffix[t + 1][i]
            )
            box, nxt = _choose(lo[keep], hi[keep], cur, dst, policy, rng)
            row = int(i[keep[box]])
        paths.append(dor_path(index.mesh, index.orderings[t], cur, nxt))
        cur = nxt
    return paths
