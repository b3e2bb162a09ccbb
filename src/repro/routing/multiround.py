"""k-round dimension-ordered reachability by whole-mesh flooding.

These are the exact, whole-mesh (O(N) per query) reference semantics
for Definition 2.5.2: grid-based frontier propagation computes the set
of nodes ``(k, F, pi)``-reachable from a source and the reverse sets.

Nothing on a production path calls these: the lamb algorithms and
route materialization (:func:`repro.routing.find_k_round_route`) work
on the SES/DES rectangles, whose cost is independent of N.  This
module is the brute-force checker they are validated against
(:mod:`repro.core.validate`, :mod:`repro.core.equivalence` and the
test oracles).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from ..mesh.faults import FaultSet
from ..mesh.geometry import Node
from .ordering import KRoundOrdering, Ordering

__all__ = [
    "FaultGrids",
    "reach_set_one_round",
    "reverse_reach_set_one_round",
    "reach_set_k_rounds",
    "multi_source_reach_sets",
    "k_round_reachable",
]


class FaultGrids:
    """Dense boolean grids describing a fault set.

    Attributes
    ----------
    good:
        ``widths``-shaped bool array, True at nonfaulty nodes.
    up_cut[j], down_cut[j]:
        Arrays with extent ``n_j - 1`` along axis ``j``;
        ``up_cut[j][..., i, ...]`` is True when the directed link from
        coordinate ``i`` to ``i + 1`` along dimension ``j`` is faulty
        (and symmetrically for ``down_cut``).  Links incident to faulty
        nodes are *not* marked here; the propagation kernel already
        refuses to enter faulty nodes.
    """

    __slots__ = ("mesh", "good", "up_cut", "down_cut")

    def __init__(self, faults: FaultSet) -> None:
        mesh = faults.mesh
        self.mesh = mesh
        good = np.ones(mesh.widths, dtype=bool)
        for v in faults.node_faults:
            good[v] = False
        self.good = good
        d = mesh.d
        self.up_cut: List[np.ndarray] = []
        self.down_cut: List[np.ndarray] = []
        for j in range(d):
            shape = list(mesh.widths)
            shape[j] -= 1
            self.up_cut.append(np.zeros(shape, dtype=bool))
            self.down_cut.append(np.zeros(shape, dtype=bool))
        for (u, w) in faults.link_faults:
            self._cut_link(u, w)

    def _cut_link(self, u: Node, w: Node) -> None:
        d = self.mesh.d
        j = next(i for i in range(d) if u[i] != w[i])
        if w[j] == u[j] + 1:
            self.up_cut[j][u] = True
        else:
            idx = list(w)
            self.down_cut[j][tuple(idx)] = True


def _scan(
    frontier: np.ndarray,
    good: np.ndarray,
    up_cut: np.ndarray,
    down_cut: np.ndarray,
    axis: int,
) -> np.ndarray:
    """Extend a frontier along one axis in both directions.

    Returns the set of nodes reachable by an axis-``axis`` segment
    (possibly of length zero) starting from a frontier node, passing
    only through good nodes and non-cut links.  The grids are either
    bool (one source set) or uint64 lane masks (:func:`_word_mask`)
    against a ``frontier`` with a trailing word axis carrying 64
    sources per word; ``&``, ``|`` and ``~`` act the same on both.
    """
    good = np.moveaxis(good, axis, 0)
    up_cut = np.moveaxis(up_cut, axis, 0)
    down_cut = np.moveaxis(down_cut, axis, 0)
    src = np.moveaxis(frontier, axis, 0)
    n = src.shape[0]
    up = src.copy()
    for i in range(1, n):
        up[i] |= up[i - 1] & good[i] & ~up_cut[i - 1]
    down = src.copy()
    for i in range(n - 2, -1, -1):
        down[i] |= down[i + 1] & good[i] & ~down_cut[i]
    return np.moveaxis(up | down, 0, axis)


def reach_set_one_round(
    grids: FaultGrids, pi: Ordering, start: np.ndarray
) -> np.ndarray:
    """All nodes one ``pi``-round reachable from any node in ``start``.

    ``start`` is a boolean grid that must only mark good nodes.
    """
    frontier = start & grids.good
    for j in pi:
        frontier = _scan(
            frontier, grids.good, grids.up_cut[j], grids.down_cut[j], j
        )
    return frontier


_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)


def _word_mask(grid: np.ndarray) -> np.ndarray:
    """uint64 lane mask of a bool grid (all-ones where True), with a
    trailing broadcast axis for the source-word lanes."""
    return np.where(grid, _FULL_WORD, np.uint64(0))[..., None]


def multi_source_reach_sets(
    grids: FaultGrids,
    rounds: Iterable[Ordering],
    sources: Sequence[Node],
) -> np.ndarray:
    """Reach sets of many sources at once, bit-parallel.

    Packs the sources into uint64 word lanes (64 per word) and runs
    each axis scan once per word batch instead of once per source: bit
    ``s % 64`` of word ``s // 64`` at node ``w`` marks source ``s``
    having reached ``w``.  ``rounds`` is any sequence of per-round
    orderings (a :class:`KRoundOrdering` iterates as one).

    Returns an ``(len(sources), N)`` bool matrix in ``Mesh.index_of``
    column order; row ``s`` is bit-identical to
    ``reach_set_k_rounds(grids, rounds, sources[s]).reshape(-1)``
    (the sequential oracle), with faulty sources yielding all-False
    rows.
    """
    mesh = grids.mesh
    n = len(sources)
    N = mesh.num_nodes
    if n == 0:
        return np.zeros((0, N), dtype=bool)
    n_words = (n + 63) // 64
    frontier = np.zeros(mesh.widths + (n_words,), dtype=np.uint64)
    for s, v in enumerate(sources):
        v = tuple(int(x) for x in v)
        if grids.good[v]:
            frontier[v + (s // 64,)] |= np.uint64(1) << np.uint64(s % 64)
    good_m = _word_mask(grids.good)
    up_m = [_word_mask(g) for g in grids.up_cut]
    down_m = [_word_mask(g) for g in grids.down_cut]
    for pi in rounds:
        for j in pi:
            frontier = _scan(frontier, good_m, up_m[j], down_m[j], j)
    flat = frontier.reshape(N, n_words)
    bits = np.unpackbits(
        flat.view(np.uint8), axis=1, count=n, bitorder="little"
    )
    return bits.astype(bool).T


def _flipped(grids: FaultGrids) -> FaultGrids:
    """Grids with every directed link reversed (shares node data)."""
    out = FaultGrids.__new__(FaultGrids)
    out.mesh = grids.mesh
    out.good = grids.good
    out.up_cut = grids.down_cut
    out.down_cut = grids.up_cut
    return out


def reverse_reach_set_one_round(
    grids: FaultGrids, pi: Ordering, target: np.ndarray
) -> np.ndarray:
    """All nodes ``u`` that can one-``pi``-round reach some node in
    ``target``.

    Uses the reversal identity: ``u`` can ``pi``-reach ``w`` iff ``w``
    can reach ``u`` under the reversed ordering with all directed links
    flipped.
    """
    return reach_set_one_round(_flipped(grids), pi.reversed(), target)


def reach_set_k_rounds(
    grids: FaultGrids, orderings: KRoundOrdering, source: Sequence[int]
) -> np.ndarray:
    """The set of nodes ``(k, F, pi_vec)``-reachable from ``source``."""
    mesh = grids.mesh
    start = np.zeros(mesh.widths, dtype=bool)
    start[tuple(source)] = True
    frontier = start
    for pi in orderings:
        frontier = reach_set_one_round(grids, pi, frontier)
    return frontier


def k_round_reachable(
    grids: FaultGrids,
    orderings: KRoundOrdering,
    v: Sequence[int],
    w: Sequence[int],
) -> bool:
    """Exact Definition 2.5.2 test (O(k N) time)."""
    return bool(reach_set_k_rounds(grids, orderings, v)[tuple(w)])
