"""Optimal weighted vertex cover on bipartite graphs via max-flow.

This is the solver behind ``Reduce-WVC(Bipartite)`` (Fig. 13, step 2).
By LP duality / the weighted König theorem, the minimum weight of a
vertex cover of a bipartite graph equals the maximum flow in the
network  ``source -> left(w) -> right(inf) -> sink(w)``, and a minimum
cut directly yields an optimal cover (the paper's reference [10]
reduction; solvable in O(b^3) for b vertices).

Two solvers, chosen by the data alone:

- integral weights whose sum fits int32 (every Lamb1 instance without
  fractional Section 7 *values*): one
  :func:`scipy.sparse.csgraph.maximum_flow` (Dinic, compiled);
- anything else: the pure-Python :class:`~repro.graphs.maxflow.MaxFlow`
  Dinic, which is also the parity oracle for the compiled path.

Both return the *same* cover, not merely one of equal weight: the
cover is read off the set of vertices reachable from the source in
the residual graph, and that set is identical for every maximum flow.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .maxflow import INF, MaxFlow

__all__ = ["compact_edges", "min_weight_vertex_cover_bipartite", "zero_pairs"]

Weights = Union[np.ndarray, Sequence[float]]
EdgesLike = Union[np.ndarray, Iterable[Tuple[int, int]]]
Cover = Tuple[Set[int], Set[int], float]

#: scipy's ``maximum_flow`` stores capacities as int32.
_INT32_LIMIT = 2**31


def zero_pairs(matrix: np.ndarray) -> np.ndarray:
    """The ``(z, 2)`` row/column indices of the zero entries of a 2-D
    boolean matrix, in row-major order: ``np.argwhere(~matrix)``.

    It reads them through the flat index (``np.flatnonzero`` plus one
    ``divmod`` by the column count), which skips numpy's slow 2-D
    ``nonzero`` path; an empty matrix returns no pairs without dividing.

    >>> zero_pairs(np.array([[True, False], [False, True]])).tolist()
    [[0, 1], [1, 0]]
    """
    p, q = matrix.shape
    if p == 0 or q == 0:
        return np.empty((0, 2), dtype=np.intp)
    rows, cols = np.divmod(np.flatnonzero(~matrix), q)
    return np.stack((rows, cols), axis=1)


def compact_edges(pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relabel the endpoints of ``(m, 2)`` nonnegative index pairs
    densely.

    Returns ``(rows, cols, edges)``: the sorted distinct first and
    second coordinates, and the pairs rewritten as positions into
    them.  Applied to :func:`zero_pairs` of ``R`` this is the
    bipartite graph of ``Reduce-WVC(Bipartite)`` (Fig. 13, step 1): a
    vertex per row and per column holding a zero, an edge per zero.

    The pairs are bounded matrix indices, so each coordinate is
    relabelled through a mark table as long as its largest index
    rather than sorted: ``flatnonzero`` of the table is the labels,
    and its running count less one is each label's position.  The
    pairs need not be sorted or distinct; a negative index raises
    ``ValueError``.

    >>> rows, cols, edges = compact_edges(np.array([[4, 7], [9, 7]]))
    >>> rows.tolist(), cols.tolist(), edges.tolist()
    ([4, 9], [7], [[0, 0], [1, 0]])
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size and pairs.min() < 0:
        raise ValueError("compact_edges expects nonnegative indices")
    labels, positions = [], []
    for coord in pairs.T:
        mark = np.zeros(int(coord.max()) + 1 if coord.size else 0, dtype=bool)
        mark[coord] = True
        labels.append(np.flatnonzero(mark))
        positions.append((np.cumsum(mark) - 1)[coord])
    return labels[0], labels[1], np.stack(positions, axis=1)


def _edge_array(edges: EdgesLike) -> np.ndarray:
    if isinstance(edges, np.ndarray):
        return edges.astype(np.int64, copy=False).reshape(-1, 2)
    return np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)


def min_weight_vertex_cover_bipartite(
    left_weights: Weights,
    right_weights: Weights,
    edges: EdgesLike,
) -> Cover:
    """Minimum-weight vertex cover of a bipartite graph.

    Parameters
    ----------
    left_weights, right_weights:
        Nonnegative vertex weights of the two sides (sequences or
        1-D arrays).
    edges:
        An ``(m, 2)`` integer array, or an iterable of pairs
        ``(i, j)``, meaning left vertex ``i`` — right vertex ``j``.

    Returns
    -------
    (cover_left, cover_right, weight):
        Index sets of the chosen cover vertices on each side and the
        total cover weight.  Vertices without an incident edge are
        never chosen.

    Examples
    --------
    >>> cl, cr, w = min_weight_vertex_cover_bipartite(
    ...     [1.0, 5.0], [5.0, 1.0], [(0, 0), (0, 1), (1, 1)])
    >>> sorted(cl), sorted(cr), w
    ([0], [1], 2.0)
    """
    lw = np.asarray(left_weights, dtype=np.float64).reshape(-1)
    rw = np.asarray(right_weights, dtype=np.float64).reshape(-1)
    p, q = len(lw), len(rw)
    e = _edge_array(edges)
    bad = (e[:, 0] < 0) | (e[:, 0] >= p) | (e[:, 1] < 0) | (e[:, 1] >= q)
    if bad.any():
        i, j = e[int(np.argmax(bad))]
        raise ValueError(f"edge ({i}, {j}) out of range")
    if (lw < 0).any() or (rw < 0).any():
        raise ValueError("weights must be nonnegative")
    if not len(e):
        return set(), set(), 0.0
    weights = np.concatenate([lw, rw])
    big = float(weights.sum()) + 1.0
    if np.all(weights == np.floor(weights)) and big < _INT32_LIMIT:
        return _cover_compiled(lw, rw, e, int(big))
    return _cover_dinic(lw, rw, e)


def _touched_cover(
    e: np.ndarray, out_left: np.ndarray, in_right: np.ndarray
) -> Tuple[Set[int], Set[int]]:
    """The cover from a residual-reachability mask: left vertices cut
    off from the source, right vertices reached from it — keeping only
    vertices that touch an edge (isolated ones can never be forced into
    the cover, but the cut may formally include unreachable ones)."""
    touched_left = np.zeros(len(out_left), dtype=bool)
    touched_right = np.zeros(len(in_right), dtype=bool)
    touched_left[e[:, 0]] = True
    touched_right[e[:, 1]] = True
    return (
        set(np.flatnonzero(touched_left & out_left).tolist()),
        set(np.flatnonzero(touched_right & in_right).tolist()),
    )


def _cover_compiled(
    lw: np.ndarray, rw: np.ndarray, e: np.ndarray, big: int
) -> Cover:
    """scipy's compiled Dinic on one CSR network; ``big`` exceeds every
    cut so it stands in for the infinite middle capacities."""
    p, q = len(lw), len(rw)
    source, sink = p + q, p + q + 1
    # CSR construction sums repeated entries; keep each edge once so a
    # capacity stays at ``big``.
    key = e[:, 0] * q + e[:, 1]
    if (np.diff(key) <= 0).any():
        key = np.unique(key)
        e = np.stack([key // q, key % q], axis=1)
    left = np.flatnonzero(lw > 0)
    right = np.flatnonzero(rw > 0)
    tail = np.concatenate(
        [np.full(len(left), source), e[:, 0], p + right]
    )
    head = np.concatenate([left, p + e[:, 1], np.full(len(right), sink)])
    cap = np.concatenate(
        [lw[left], np.full(len(e), big), rw[right]]
    ).astype(np.int32)
    n = p + q + 2
    net = sp.csr_matrix((cap, (tail, head)), shape=(n, n))
    res = maximum_flow(net, source, sink, method="dinic")
    # The flow matrix is antisymmetric, so ``net - flow`` also carries
    # the reverse residual edges (capacity = flow pushed forward).
    residual = net - res.flow
    residual.eliminate_zeros()
    seen = np.zeros(n, dtype=bool)
    seen[breadth_first_order(residual, source, directed=True,
                             return_predecessors=False)] = True
    cover_left, cover_right = _touched_cover(e, ~seen[:p], seen[p:p + q])
    return cover_left, cover_right, float(res.flow_value)


def _cover_dinic(lw: np.ndarray, rw: np.ndarray, e: np.ndarray) -> Cover:
    """The pure-Python :class:`MaxFlow` oracle (any real weights)."""
    p, q = len(lw), len(rw)
    source = p + q
    sink = p + q + 1
    net = MaxFlow(p + q + 2)
    for i, w in enumerate(lw.tolist()):
        net.add_edge(source, i, w)
    for j, w in enumerate(rw.tolist()):
        net.add_edge(p + j, sink, w)
    for i, j in e.tolist():
        net.add_edge(i, p + j, INF)
    weight = net.max_flow(source, sink)
    reachable = net.min_cut_side(source)
    seen = np.zeros(p + q + 2, dtype=bool)
    seen[list(reachable)] = True
    cover_left, cover_right = _touched_cover(e, ~seen[:p], seen[p:p + q])
    return cover_left, cover_right, weight
