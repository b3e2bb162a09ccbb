"""Find-SES-Partition and Find-DES-Partition (Section 6.1, Fig. 11).

Partitions the good nodes of a faulty mesh into at most
``(2d - 1) f + 1`` rectangular source-equivalent (SES) or
destination-equivalent (DES) sets, in time polynomial in ``d`` and
``f`` and *independent of the mesh size*.

The implementation works in "pi-space": coordinates are permuted so
that the routing order becomes ascending, the recursion peels off the
last-routed dimension (exactly as in the paper, which presents the
ascending case), and the resulting rectangles are mapped back to
natural coordinates.  Directed link faults are handled as half-integer
cuts: a cut *within* a slab contributes that slab to the recursion set
``H``; a cut *between* two slabs splits the maximal intervals of step
2(c) without forcing either slab into ``H`` (this preserves both
Lemma 6.1 — the final segment of a route out of ``S' . c`` is
identical for all sources in the set — and Lemma 6.3 — the interval
sets remain internally fault-free).

The faults are sorted once by reversed pi-coordinates, which makes every
slab of every recursion level a contiguous run of that order.  A level
groups its run by one coordinate in a single pass and builds the
maximal intervals of step 2(c) from the sorted blocked positions and
cuts in O(|blocked| + |cuts|), never scanning a line position by
position.  The total work is O(d f log f + d |Sigma|), with no term in
the mesh widths (the partition share of Theorem 6.8's bound).  The
partition is returned as a :class:`~repro.mesh.regions.Rects`: its
corners are validated in one ``Rect.batch`` call and stay two
``(|Sigma|, d)`` arrays, as Section 6.1's O(d)-space rectangles; no
``Rect`` object is built unless a caller indexes the partition.

Every rectangle produced is fault-free, so its minimal corner is a
valid representative; ``rep(S) = S.lo`` reproduces the paper's
``rep(S) = (0, ..., 0, l_j, c_{j+1}, ..., c_d)`` convention.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..mesh.faults import FaultSet
from ..mesh.geometry import Node
from ..mesh.regions import Rect, Rects
from .ordering_utils import flip_link_faults
from ..routing.ordering import Ordering

__all__ = [
    "find_ses_partition",
    "find_des_partition",
    "partition_representatives",
]


def _sorted_faults(faults: FaultSet, pi: Ordering) -> List[List[int]]:
    """The faults in pi-space, deduplicated and sorted by reversed
    coordinates, as ``d + 1`` columns ``c_{d-1}, ..., c_0, t``.

    ``t = -1`` marks a node fault.  A directed link fault becomes a
    cut between ``lower`` and ``lower + 1`` along position ``t``, stored
    with ``c_t = lower`` (direction is irrelevant for partitioning: we
    split conservatively on any cut).  Sorting by reversed coordinates
    makes every slab of every recursion level a contiguous run.
    """
    d = faults.mesh.d
    rev = list(reversed(pi.perm))
    pos = {dim: t for t, dim in enumerate(pi.perm)}
    rows = np.full((faults.num_node_faults, d + 1), -1, dtype=np.int64)
    rows[:, :d] = faults.node_fault_array()[:, rev]
    cuts = set()
    for (u, w) in faults.link_faults:
        j = next(i for i in range(d) if u[i] != w[i])
        lower = list(u)
        lower[j] = min(u[j], w[j])
        cuts.add(tuple(lower[k] for k in rev) + (pos[j],))
    if cuts:
        rows = np.vstack([rows, np.asarray(sorted(cuts), dtype=np.int64)])
    return rows[np.lexsort(rows.T[::-1])].T.tolist()


def _pi_space_rects(
    widths: Sequence[int], cols: List[List[int]]
) -> Tuple[List[List[int]], List[List[int]]]:
    """The Fig. 11 recursion over ``_sorted_faults`` columns; returns the
    rectangles' pi-space lower and upper corners as ``d`` columns each,
    rectangles in the paper's order."""
    d = len(widths)
    lo: List[List[int]] = [[] for _ in range(d)]
    hi: List[List[int]] = [[] for _ in range(d)]
    tops = [w - 1 for w in widths]
    _level(cols, tops, lo, hi, 0, len(cols[d]), d - 1, ())
    return lo, hi


def _level(
    cols: List[List[int]],
    tops: List[int],
    lo: List[List[int]],
    hi: List[List[int]],
    i: int,
    j: int,
    m: int,
    suffix: Tuple[int, ...],
) -> None:
    """Level ``m`` of the recursion, appending its rectangles (after
    those of the slabs it recurses into) to the ``lo``/``hi`` columns.

    Faults ``i..j-1`` share coordinates ``m+1..`` (``suffix``) and are
    sorted by coordinate ``m``.  Those with ``t > m`` are cuts that a
    higher level already applied; they are skipped here.  A module-level
    function rather than a closure: a nested function that calls itself
    holds itself through its closure cell, leaving a reference cycle
    for the collector on every partition.
    """
    x = cols[len(tops) - 1 - m]
    kinds = cols[len(tops)]
    starts: List[int] = []
    ends: List[int] = []
    start = 0
    k = i
    while k < j:
        # Group slab c; its smallest t decides what it is at level m.
        c = x[k]
        low = kinds[k]
        g = k + 1
        while g < j and x[g] == c:
            low = min(low, kinds[g])
            g += 1
        if low < m:
            # Steps 2(a)-(b): slab c holds a node fault or an
            # intra-slab cut, so it recurses.
            if m:
                _level(cols, tops, lo, hi, k, g, m - 1, (c,) + suffix)
            if start < c:
                starts.append(start)
                ends.append(c - 1)
            start = c + 1
        elif low == m:
            starts.append(start)
            ends.append(c)
            start = c + 1
        k = g
    if start <= tops[m]:
        starts.append(start)
        ends.append(tops[m])
    # Steps 2(c)-(d): fault-free slab runs, split at inter-slab cuts,
    # spanning every position before m.
    n = len(starts)
    for t in range(m):
        lo[t] += [0] * n
        hi[t] += [tops[t]] * n
    lo[m] += starts
    hi[m] += ends
    for t, c in enumerate(suffix, m + 1):
        lo[t] += [c] * n
        hi[t] += [c] * n


def find_ses_partition(faults: FaultSet, pi: Ordering) -> Rects:
    """An SES partition for ``(F, pi)`` of size at most
    ``(2d - 1) f + 1`` (Theorem 6.4), as one :class:`Rects`.

    Every returned rectangle is fault-free and the rectangles partition
    the good nodes.
    """
    if pi.d != faults.mesh.d:
        raise ValueError("ordering dimensionality mismatch")
    mesh = faults.mesh
    widths = [mesh.widths[j] for j in pi.perm]
    lo, hi = _pi_space_rects(widths, _sorted_faults(faults, pi))
    # Natural dimension j is pi-space column pi.perm.index(j).
    order = sorted(range(mesh.d), key=pi.perm.__getitem__)
    return Rect.batch(
        mesh,
        np.asarray([lo[t] for t in order], dtype=np.int64).T,
        np.asarray([hi[t] for t in order], dtype=np.int64).T,
    )


def find_des_partition(faults: FaultSet, pi: Ordering) -> Rects:
    """A DES partition for ``(F, pi)``.

    Uses the duality of Lemma 6.2: a set is a DES for ``pi`` iff it is
    an SES for the reversed ordering *with all directed link faults
    flipped* (flipping matters only when link faults fail in a single
    direction).
    """
    flipped = flip_link_faults(faults)
    return find_ses_partition(flipped, pi.reversed())


def partition_representatives(rects: Sequence[Rect]) -> List[Node]:
    """One representative (the minimal corner) per rectangle.

    Valid because the Fig. 11 rectangles are fault-free, so any member
    — in particular ``S.lo`` — is a good node (Lemma 4.1 then lets a
    single member stand in for the whole set).
    """
    return [r.lo for r in rects]
