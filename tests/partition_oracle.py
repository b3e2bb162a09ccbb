"""The recursive Find-SES-Partition kernel that ``repro.core.partition``
replaced, kept as the reference its sort-once kernel must match
rectangle for rectangle, in order.

It scans every faulty slab and line position by position and filters
all faults once per faulty slab, so its cost grows with the mesh width;
use it on test-sized meshes only.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.core.ordering_utils import flip_link_faults
from repro.mesh.faults import FaultSet
from repro.mesh.geometry import Mesh
from repro.mesh.regions import Rect
from repro.routing.ordering import Ordering

# In pi-space, a node fault is a coordinate tuple; a link fault is
# (position, line_coords_without_position, lower_coordinate) meaning a
# cut between lower and lower+1 along that position (direction is
# irrelevant for partitioning: we split conservatively on any cut).
_PNode = Tuple[int, ...]
_PCut = Tuple[int, Tuple[int, ...], int]


def _to_pi_space(
    faults: FaultSet, pi: Ordering
) -> Tuple[List[int], List[_PNode], List[_PCut]]:
    mesh = faults.mesh
    perm = pi.perm
    widths = [mesh.widths[j] for j in perm]
    pnodes = [tuple(v[j] for j in perm) for v in faults.node_faults]
    pcuts: List[_PCut] = []
    seen: Set[_PCut] = set()
    inv = {dim: t for t, dim in enumerate(perm)}
    for (u, w) in faults.link_faults:
        j = next(i for i in range(mesh.d) if u[i] != w[i])
        t = inv[j]
        pu = tuple(u[dim] for dim in perm)
        lower = min(u[j], w[j])
        key = pu[:t] + pu[t + 1 :]
        cut = (t, key, lower)
        if cut not in seen:
            seen.add(cut)
            pcuts.append(cut)
    return widths, pnodes, pcuts


def _split_intervals(
    n: int, blocked: Set[int], cuts_between: Set[int]
) -> List[Tuple[int, int]]:
    """Maximal intervals of ``[0, n-1] - blocked`` that do not span any
    cut between ``c`` and ``c+1`` for ``c`` in ``cuts_between``."""
    out = []
    start = None
    for x in range(n):
        if x in blocked:
            if start is not None:
                out.append((start, x - 1))
                start = None
            continue
        if start is None:
            start = x
        if x in cuts_between and x + 1 < n:
            out.append((start, x))
            start = None
    if start is not None:
        out.append((start, n - 1))
    return out


def _find_partition_pi_space(
    widths: Sequence[int], pnodes: List[_PNode], pcuts: List[_PCut]
) -> List[Tuple[Tuple[int, int], ...]]:
    """Recursive Fig. 11 kernel; returns rects as interval tuples in
    pi-space."""
    d = len(widths)
    last = d - 1
    n_last = widths[last]
    if d == 1:
        blocked = {v[0] for v in pnodes}
        cuts = {lower for (t, _key, lower) in pcuts}
        return [((a, b),) for (a, b) in _split_intervals(n_last, blocked, cuts)]
    # Step 2(a): slabs (values of the last coordinate) containing a node
    # fault or an intra-slab link fault.
    H: Set[int] = {v[last] for v in pnodes}
    for (t, key, _lower) in pcuts:
        if t != last:
            # key omits position t; the last coordinate sits at index
            # last - 1 of key (since t < last).
            H.add(key[-1])
    out: List[Tuple[Tuple[int, int], ...]] = []
    # Step 2(b): recurse into each faulty slab.
    for c in sorted(H):
        sub_nodes = [v[:last] for v in pnodes if v[last] == c]
        sub_cuts = [
            (t, key[:-1], lower)
            for (t, key, lower) in pcuts
            if t != last and key[-1] == c
        ]
        for rect in _find_partition_pi_space(widths[:last], sub_nodes, sub_cuts):
            out.append(rect + ((c, c),))
    # Steps 2(c)-(d): fault-free slab runs, split at inter-slab cuts.
    last_cuts = {lower for (t, _key, lower) in pcuts if t == last}
    prefix = tuple((0, w - 1) for w in widths[:last])
    for (a, b) in _split_intervals(n_last, H, last_cuts):
        out.append(prefix + ((a, b),))
    return out


def _from_pi_space(
    mesh: Mesh, pi: Ordering, rects: List[Tuple[Tuple[int, int], ...]]
) -> List[Rect]:
    out = []
    for intervals in rects:
        lo = [0] * mesh.d
        hi = [0] * mesh.d
        for t, dim in enumerate(pi.perm):
            lo[dim], hi[dim] = intervals[t]
        out.append(Rect(mesh, lo, hi))
    return out


def oracle_ses_partition(faults: FaultSet, pi: Ordering) -> List[Rect]:
    """``find_ses_partition`` as computed by the recursive kernel."""
    widths, pnodes, pcuts = _to_pi_space(faults, pi)
    return _from_pi_space(
        faults.mesh, pi, _find_partition_pi_space(widths, pnodes, pcuts)
    )


def oracle_des_partition(faults: FaultSet, pi: Ordering) -> List[Rect]:
    """``find_des_partition`` (Lemma 6.2 duality) over the oracle."""
    return oracle_ses_partition(flip_link_faults(faults), pi.reversed())
