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
``R^(r)``).  :func:`find_k_round_routes` picks the intermediates of a
whole batch of pairs from its rectangles in array form (by Definition
2.3 they fix the routes): one column-wise corner test per partition
locates every endpoint, one gather from ``R^(k)`` decides every
pair's reachability, and the goal test, the suffix vectors, the
candidate-box masks and ``shortest``'s costs cover all pairs at once;
one sweep over the candidate boxes then turns every pair's rank draw
into a node.  Pairs go through in chunks that bound the (pairs x
boxes) arrays, so memory stays bounded at fig26-scale indexes.
:func:`find_k_round_route` is its one-pair call plus the rounds'
:func:`~repro.routing.dor.dor_path` walks.

Nothing here is mesh-sized: the cost of a route is polynomial in the
partition sizes (hence in f, Theorem 6.8) plus the length of a
returned path.  The whole-mesh flood these replace is kept as the
test oracle (``tests/route_oracle.py``); routes and rng draws equal
its own, pair by pair.

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

__all__ = [
    "ReachIndex",
    "ReachMatrices",
    "find_k_round_route",
    "find_k_round_routes",
]

#: Valid ``policy=`` values of :func:`find_k_round_routes`.
POLICIES = ("shortest", "first", "random")


class ReachMatrices(Protocol):
    """Find-Reachability's matrices, as
    :class:`repro.core.reachability.ReachabilityData` carries them."""

    round_matrices: List[np.ndarray]
    intersection_matrices: List[np.ndarray]
    partial: List[np.ndarray]


def corner_array(corners: Iterable[Sequence[int]], d: int) -> np.ndarray:
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

    Corner arrays (and their column form) and candidate boxes are
    built on first use, so a lamb run that materializes no route pays
    nothing for them.
    """

    __slots__ = (
        "mesh", "orderings", "ses", "des", "reach", "timings",
        "_corners", "_columns", "_boxes",
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
        self._columns: Dict[int, Tuple[np.ndarray, ...]] = {}
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

    def locate(self, rects: Sequence[Rect], points: np.ndarray) -> np.ndarray:
        """Index of the rectangle of ``rects`` holding each row of the
        ``(n, d)`` array ``points``, or -1 (a faulty node lies in no
        SES or DES).

        One column-wise corner test covers every point: per coordinate,
        a contiguous row of all lo (hi) corners against the points.  A
        last, unbounded sentinel column catches the points no rectangle
        holds, so ``argmax`` alone finds each point's rectangle."""
        key = id(rects)
        if key not in self._columns:
            lo, hi = self.corners(rects)
            end = np.iinfo(np.int64).max
            self._columns[key] = (
                np.hstack((lo.T, np.full((lo.shape[1], 1), -end))),
                np.hstack((hi.T, np.full((hi.shape[1], 1), end))),
                np.append(np.arange(len(lo)), -1),
            )
        lo, hi, ids = self._columns[key]
        x = points[:, :1]
        hit = (lo[0] <= x) & (x <= hi[0])
        for c in range(1, len(lo)):
            x = points[:, c:c + 1]
            hit &= lo[c] <= x
            hit &= x <= hi[c]
        found: np.ndarray = ids[hit.argmax(axis=1)]
        return found

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
    """Node counts of ``(m, d)`` boxes (1 for ``d = 0``): a product of
    columns, cheaper than ``prod(axis=1)`` on short rows."""
    size = hi - lo + 1
    volume: np.ndarray = np.ones(len(size), dtype=np.int64)
    for c in range(size.shape[1]):
        volume *= size[:, c]
    return volume


def _any_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product as one float32 BLAS product, exact for
    any inner dimension below 2**24 (as in Find-Reachability)."""
    out: np.ndarray = (a.astype(np.float32) @ b.astype(np.float32)) > 0.5
    return out


def _select(
    pair: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    count: np.ndarray,
    rank: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """For every pair ``q``, the ``rank[q]``-th node (0-based, C order)
    of the union of its disjoint boxes, which hold ``count[q]`` nodes,
    and which box holds it.

    Box ``e`` belongs to pair ``pair[e]``; ``pair`` is sorted and names
    every pair at least once.  Returns the holding box of each pair (an
    index into the box arrays) and the ``(pairs, d)`` nodes.

    One coordinate at a time, for all pairs at once: the number of a
    pair's nodes whose coordinate ``c`` lies below ``x`` is piecewise
    linear in ``x`` (each box adds slope ``inner`` — its size over the
    later coordinates — between ``lo`` and ``hi + 1``), so one sort of
    every pair's breakpoints and a ``searchsorted`` give coordinate
    ``c``; the boxes that hold it carry the remaining rank into
    coordinate ``c + 1``, where they are disjoint runs.  No node is
    enumerated.
    """
    m, d = len(rank), lo.shape[1]
    node = np.empty((m, d), dtype=np.int64)
    box = np.arange(len(pair))
    # Ranks run on across pairs: pair q's start after the nodes of the
    # pairs before it.
    for c in range(d - 1):
        target = rank + (np.cumsum(count) - count)
        step = _volumes(lo[:, c + 1:], hi[:, c + 1:])
        pos = np.concatenate((lo[:, c], hi[:, c] + 1))
        order = np.lexsort((pos, np.concatenate((pair, pair))))
        pos = pos[order]
        slope = np.concatenate((step, -step))[order].cumsum()
        below = np.zeros_like(pos)
        np.cumsum(slope[:-1] * (pos[1:] - pos[:-1]), out=below[1:])
        s = np.searchsorted(below, target, "right") - 1
        # ``count`` becomes each pair's nodes in the slab at ``x``.
        at, off, count = pos[s], target - below[s], slope[s]
        x = at + off // count
        rank = off - (x - at) * count
        node[:, c] = x
        x = x[pair]
        held = (lo[:, c] <= x) & (x <= hi[:, c])
        pair, box = pair[held], box[held]
        lo, hi = lo.compress(held, axis=0), hi.compress(held, axis=0)
    # The boxes left hold disjoint runs of the last coordinate: the node
    # lies in the run where their running length first passes the rank.
    target = rank + (np.cumsum(count) - count)
    order = np.lexsort((lo[:, -1], pair))
    last = hi[:, -1].take(order)
    ends = (last + 1 - lo[:, -1].take(order)).cumsum()
    i = np.searchsorted(ends, target, "right")
    node[:, -1] = last[i] + 1 - ends[i] + target
    return box[order[i]], node


def _choose(
    index: ReachIndex,
    t: int,
    keep: np.ndarray,
    prev: np.ndarray,
    goal: np.ndarray,
    policy: str,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """One round-``t`` intermediate per pair from the candidate boxes
    ``keep`` marks (``(pairs, boxes)``, every row nonempty), and the
    box it lies in.

    Every pick equals the whole-mesh flood's over the same candidate
    set, rng draw for rng draw: ``first`` is the lexicographic minimum;
    ``random`` is the ``rng.integers(count)``-th candidate in C order;
    ``shortest`` (with the goal infeasible, which the caller tests
    first) is the ``rng.integers(ties)``-th minimizer of ``|x -
    prev|_1 + |x - goal|_1`` in C order.
    """
    _, _, lo, hi = index.boxes(t)
    if policy == "first":
        # Disjoint boxes have distinct lo corners, and a box's
        # lexicographic minimum is its lo corner.
        rank = np.empty(len(lo), dtype=np.int64)
        rank[np.lexsort(lo.T[::-1])] = np.arange(len(lo))
        box = np.where(keep, rank, len(lo)).argmin(axis=1)
        return box, lo[box]
    pair, box = np.nonzero(keep)
    lo, hi = lo.take(box, axis=0), hi.take(box, axis=0)
    starts = np.searchsorted(pair, np.arange(len(keep)))
    if policy == "shortest":
        # Per dimension, |x - p| + |x - g| is |p - g| on [a, z] =
        # [min(p, g), max(p, g)] and grows by 2 per step outside it: a
        # box's least cost is |p - g|_1 plus twice its L1 gap to the
        # box [a, z], and its minimizers are [a, z] clipped to it.
        a = np.minimum(prev, goal).take(pair, axis=0)
        z = np.maximum(prev, goal).take(pair, axis=0)
        gap = (np.maximum(lo - z, 0) + np.maximum(a - hi, 0)).sum(axis=1)
        best = gap == np.minimum.reduceat(gap, starts)[pair]
        lo, hi = np.minimum(np.maximum(a, lo), hi), np.maximum(
            np.minimum(z, hi), lo
        )
        volume = _volumes(lo, hi) * best
        pair, box = pair[best], box[best]
        lo, hi = lo.compress(best, axis=0), hi.compress(best, axis=0)
    else:
        volume = _volumes(lo, hi)
    count = np.add.reduceat(volume, starts)
    # ``Generator.integers`` with an array of bounds draws element by
    # element, as one scalar call per pair in pair order would; a lone
    # pair takes the (cheaper) scalar call.
    rank = (
        rng.integers(count) if len(count) > 1
        else np.array([rng.integers(count[0])])
    )
    pick, node = _select(pair, lo, hi, count, rank)
    return box[pick], node


def _suffixes(reach: ReachMatrices, b: np.ndarray) -> List[np.ndarray]:
    """The backward suffix vectors of the pairs whose ``w`` lies in DES
    ``b`` of the last round: ``suffix[t][q, i]`` holds when every node
    of ``S_{t,i}`` finishes at pair ``q``'s ``w`` in rounds ``t..k-1``
    (``t >= 1``; ``suffix[0]`` is unused)."""
    k = len(reach.round_matrices)
    suffix = [reach.round_matrices[k - 1].T[b]] * k
    for t in range(k - 2, 0, -1):
        mid = _any_product(suffix[t + 1], reach.intersection_matrices[t].T)
        suffix[t] = _any_product(mid, reach.round_matrices[t].T)
    return suffix


#: Cap on a chunk's (pairs x boxes) cells: bounds a batch's peak
#: memory at fig26-scale indexes (tens of thousands of boxes).
_CHUNK_CELLS = 1 << 16


def _route_chunk(
    index: ReachIndex,
    src: np.ndarray,
    dst: np.ndarray,
    policy: str,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """The positions of a chunk's reachable pairs and their
    ``(k - 1, pairs, d)`` intermediates."""
    k = index.orderings.k
    reach = index.reach
    row = index.locate(index.ses[0], src)
    b = index.locate(index.des[k - 1], dst)
    # An index of -1 (no part) wraps around; the tests on it mask that.
    live = np.flatnonzero(
        (row >= 0) & (b >= 0) & reach.partial[k - 1][row, b]
    )
    mids = np.empty((k - 1, len(live), index.mesh.d), dtype=np.int64)
    if not live.size:
        return live, mids
    if live.size < len(src):
        src, dst, row, b = src[live], dst[live], row[live], b[live]
    suffix: List[np.ndarray] = []
    todo = np.arange(len(live))  # the pairs not yet at w
    cur = src
    for t in range(k - 1):
        r_t = reach.round_matrices[t]
        if policy == "shortest":
            # The goal itself, when feasible, is always a minimum-cost
            # intermediate (triangle equality) and collapses the
            # remaining rounds to no-ops: take it outright, no draw.
            # w can always finish at itself, so by Lemma 5.1 it is
            # feasible exactly when the current SES reaches w's DES (w
            # is good, so it lies in a DES of every round).
            gj = b if index.des[t] is index.des[k - 1] else (
                index.locate(index.des[t], dst)
            )
            todo = todo[~r_t[row[todo], gj[todo]]]
        mids[t] = dst
        if todo.size:
            if not suffix:
                suffix = _suffixes(reach, b)
            j, i, _, _ = index.boxes(t)
            keep = r_t.take(row[todo], axis=0).take(j, axis=1)
            keep &= suffix[t + 1].take(todo, axis=0).take(i, axis=1)
            box, mids[t, todo] = _choose(
                index, t, keep, cur[todo], dst[todo], policy, rng
            )
            row[todo] = i[box]
        cur = mids[t]
    return live, mids


def find_k_round_routes(
    index: ReachIndex,
    pairs: Iterable[Tuple[Sequence[int], Sequence[int]]],
    policy: str = "shortest",
    rng: Optional[np.random.Generator] = None,
) -> List[Optional[Tuple[Node, ...]]]:
    """The intermediates of a k-round route for each ``(v, w)`` of
    ``pairs``, in order: ``k - 1`` nodes (round ``t`` ends at the
    ``t``-th, the last round at ``w``), or ``None`` where ``w`` is not
    ``(k, F, pi_vec)``-reachable from ``v`` (in particular when either
    endpoint is faulty).  By Definition 2.3 they fix the route.

    ``policy`` selects the intermediate nodes (the congestion heuristic
    discussed after Definition 2.3):

    - ``"shortest"``: minimize the total route length (sum of per-round
      L1 hops), breaking ties uniformly at random (needs ``rng``) —
      the paper's suggested heuristic;
    - ``"first"``: lexicographically smallest intermediates
      (deterministic);
    - ``"random"``: uniform choice among feasible intermediates.

    Routes and draws are those of one call per pair in order: ``rng``
    is drawn from pair by pair, and an unreachable pair draws nothing.
    Reachability is one gather from ``R^(k)``; round ``t``'s candidates
    are the boxes ``D_{t,j} ∩ S_{t+1,i}`` with ``R_t[a, j]`` (``a`` the
    current node's SES), ``I_t[j, i]`` and the backward suffix vector
    at ``i``.  Pairs go through in chunks of bounded size; when a pair
    draws in more than one round (``k > 2``), a chunk is one pair, so
    the draws keep their per-pair order.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    d, k = index.mesh.d, index.orderings.k
    ends = corner_array(chain.from_iterable(pairs), d).reshape(-1, 2, d)
    routes: List[Optional[Tuple[Node, ...]]] = [None] * len(ends)
    if not index.ses[0]:  # every node is faulty
        return routes
    step = 1
    if len(ends) > 1 and (k < 3 or policy == "first"):
        widest = max(
            [len(p) for p in chain(index.ses, index.des)]
            + [len(index.boxes(t)[0]) for t in range(k - 1)]
        )
        step = max(1, _CHUNK_CELLS // widest)
    for start in range(0, len(ends), step):
        chunk = ends[start:start + step]
        live, mids = _route_chunk(index, chunk[:, 0], chunk[:, 1], policy, rng)
        for q, route in zip(
            live.tolist(), mids.transpose(1, 0, 2).tolist()
        ):
            routes[start + q] = tuple(map(tuple, route))
    return routes


def find_k_round_route(
    index: ReachIndex,
    v: Sequence[int],
    w: Sequence[int],
    policy: str = "shortest",
    rng: Optional[np.random.Generator] = None,
) -> Optional[List[List[Node]]]:
    """Materialize a concrete k-round route from ``v`` to ``w``: the
    one-pair :func:`find_k_round_routes` plus each round's
    :func:`~repro.routing.dor.dor_path`.

    Returns one node path per round of ``index.orderings`` (round
    ``t``'s path starts where round ``t-1``'s ended), or ``None`` if
    ``w`` is not ``(k, F, pi_vec)``-reachable from ``v``.
    """
    src: Node = tuple(map(int, v))
    dst: Node = tuple(map(int, w))
    (mids,) = find_k_round_routes(index, [(src, dst)], policy, rng)
    if mids is None:
        return None
    stops = (src,) + mids + (dst,)
    return [
        dor_path(index.mesh, pi, a, b)
        for pi, a, b in zip(index.orderings, stops, stops[1:])
    ]
