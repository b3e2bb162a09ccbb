"""The lamb-set algorithms Lamb1 and Lamb2 (Section 6).

``find_lamb_set`` runs the three-phase pipeline of Fig. 14:

1. *Find-SES-Partition* / *Find-DES-Partition* per round ordering
   (:mod:`repro.core.partition`),
2. *Find-Reachability* (:mod:`repro.core.reachability`),
3. a reduction to weighted vertex cover —

   - ``method="bipartite"`` (**Lamb1**): WVC on a bipartite graph,
     solved *optimally* via max-flow; the resulting lamb set is within
     a factor 2 of the minimum (Lemma 6.6 / Theorem 6.7);
   - ``method="general"`` (**Lamb2**): WVC on a general graph over the
     nonempty intersections ``S_i ∩ D_j`` with the Bar-Yehuda–Even
     2-approximation (Theorem 6.9 with r = 2);
   - ``method="general-exact"``: same graph with exact branch-and-bound
     WVC — an *optimal* lamb set, exponential time, small instances
     only (Corollary 6.10).

Section 7 extensions are built in: per-node *values* (weights become
value sums) and *predetermined* lamb nodes (removed from every set and
re-added to the final lamb set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..graphs.bipartite_vc import (
    compact_edges,
    min_weight_vertex_cover_bipartite,
)
from ..graphs.wvc import wvc_exact, wvc_local_ratio
from ..obs import get_registry
from ..mesh.faults import FaultSet
from ..mesh.geometry import Mesh, Node
from ..mesh.regions import Rect
from ..routing.linefaults import LineFaultIndex
from ..routing.ordering import KRoundOrdering, Ordering
from .partition import find_des_partition, find_ses_partition
from .reachability import ReachabilityData, find_reachability

__all__ = ["LambResult", "find_lamb_set", "METHODS"]

METHODS = ("bipartite", "general", "general-exact")


@dataclass
class LambResult:
    """Everything produced by one run of the lamb pipeline.

    Attributes
    ----------
    lambs:
        The lamb set Λ as a frozen set of node tuples.
    chosen_ses, chosen_des:
        Indices of the SES's / DES's whose union forms Λ (bipartite
        method; empty for the general methods, which choose
        intersections instead).
    ses_partition, des_partition:
        The round-1 SES partition and round-k DES partition.
    reach:
        The :class:`ReachabilityData` (contains ``R^(k)`` and
        densities).
    cover_weight:
        Weight of the vertex cover that produced Λ.
    timings:
        Per-phase wall-clock seconds (``partition``, ``reachability``,
        ``wvc``, ``total``) — the quantity plotted in Fig. 26.
    """

    mesh: Mesh
    faults: FaultSet
    orderings: KRoundOrdering
    method: str
    lambs: FrozenSet[Node]
    chosen_ses: Tuple[int, ...]
    chosen_des: Tuple[int, ...]
    ses_partition: List[Rect]
    des_partition: List[Rect]
    reach: ReachabilityData
    cover_weight: float
    predetermined: FrozenSet[Node] = frozenset()
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """|Λ|, the number of lamb nodes."""
        return len(self.lambs)

    @property
    def num_ses(self) -> int:
        return len(self.ses_partition)

    @property
    def num_des(self) -> int:
        return len(self.des_partition)

    def is_lamb(self, node: Sequence[int]) -> bool:
        return tuple(node) in self.lambs

    def is_survivor(self, node: Sequence[int]) -> bool:
        """Good node that is neither faulty nor a lamb."""
        node = tuple(node)
        return (
            self.mesh.contains(node)
            and not self.faults.node_is_faulty(node)
            and node not in self.lambs
        )

    def survivors(self) -> List[Node]:
        """All survivor nodes (materializes the mesh; small meshes)."""
        return [v for v in self.mesh.nodes() if self.is_survivor(v)]

    def additional_damage(self) -> float:
        """|Λ| / f, the paper's 'additional damage' metric (Fig. 19)."""
        if self.faults.f == 0:
            return 0.0
        return self.size / self.faults.f


def _rect_weights(
    rects: Sequence[Rect], values: Mapping[Node, float]
) -> List[float]:
    """Vertex weights: set sizes adjusted by per-node values
    (Section 7: the weight of a vertex is the sum of the values of its
    nodes, defaulting to 1)."""
    weights = [float(r.size) for r in rects]
    if values:
        for node, val in values.items():
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"value of {node} must lie in [0, 1]")
            for i, r in enumerate(rects):
                if r.contains(node):
                    weights[i] -= 1.0 - val
                    break
    return weights


def find_lamb_set(
    faults: FaultSet,
    orderings: KRoundOrdering,
    method: str = "bipartite",
    values: Optional[Mapping[Node, float]] = None,
    predetermined: Iterable[Node] = (),
    index: Optional[LineFaultIndex] = None,
    wvc_max_vertices: int = 40,
) -> LambResult:
    """Find a ``(k, F, pi_vec)``-lamb set (Definition 2.6).

    Parameters
    ----------
    faults:
        The fault set (nodes and/or directed links).
    orderings:
        The k-round ordering; use
        ``repro.routing.repeated(xyz(), 2)`` for the paper's standard
        two rounds of XYZ.
    method:
        ``"bipartite"`` (Lamb1, 2-approximation, the default),
        ``"general"`` (Lamb2 with a 2-approximate WVC), or
        ``"general-exact"`` (optimal lamb set, exponential time).
    values:
        Optional map node -> value in [0, 1]; the algorithm prefers
        sacrificing low-value nodes (Section 7).
    predetermined:
        Nodes that must be lambs regardless (Section 7); they are
        excluded from every SES/DES weight and added to Λ at the end.
    index:
        A prebuilt :class:`LineFaultIndex` (rebuilt if omitted).
    wvc_max_vertices:
        Size guard for the exponential exact WVC solver used by
        ``method="general-exact"`` (ignored by the other methods).

    Returns
    -------
    LambResult

    Examples
    --------
    The worked example of Section 5 (12x12 mesh, three faults):

    >>> from repro.mesh import Mesh, FaultSet
    >>> from repro.routing import xy, repeated
    >>> mesh = Mesh((12, 12))
    >>> faults = FaultSet(mesh, [(9, 1), (11, 6), (10, 10)])
    >>> result = find_lamb_set(faults, repeated(xy(), 2))
    >>> sorted(result.lambs)
    [(10, 11), (11, 10)]
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    mesh = faults.mesh
    predetermined = frozenset(tuple(v) for v in predetermined)
    for v in predetermined:
        if faults.node_is_faulty(v):
            raise ValueError(f"predetermined lamb {v} is faulty")
    values = dict(values or {})
    for v in values:
        if faults.node_is_faulty(v):
            raise ValueError(f"valued node {v} is faulty")
    for v in predetermined:
        values[v] = 0.0

    reg = get_registry()
    with reg.span(
        "lamb.find_lamb_set", method=method, f=faults.f, k=orderings.k,
    ) as sp_total:
        # Phase 1 (Find-SES-Partition / Find-DES-Partition, Fig. 14):
        # the line-fault index plus the per-round partitions (shared
        # across identical round orderings).
        with reg.span("lamb.partition") as sp_partition:
            if index is None:
                index = LineFaultIndex(faults)
            ses_cache: Dict[Ordering, List[Rect]] = {}
            des_cache: Dict[Ordering, List[Rect]] = {}
            ses_partitions: List[List[Rect]] = []
            des_partitions: List[List[Rect]] = []
            for pi in orderings:
                if pi not in ses_cache:
                    ses_cache[pi] = find_ses_partition(faults, pi)
                    des_cache[pi] = find_des_partition(faults, pi)
                ses_partitions.append(ses_cache[pi])
                des_partitions.append(des_cache[pi])
            rep_cache: Dict[int, np.ndarray] = {}

            def reps(rects: List[Rect]) -> np.ndarray:
                key = id(rects)
                if key not in rep_cache:
                    if rects:
                        rep_cache[key] = np.asarray(
                            [r.lo for r in rects], dtype=np.int64
                        )
                    else:
                        rep_cache[key] = np.empty((0, mesh.d), dtype=np.int64)
                return rep_cache[key]

            ses_reps = [reps(p) for p in ses_partitions]
            des_reps = [reps(p) for p in des_partitions]

        # Phase 2 (Find-Reachability: the R^(k) boolean products).
        with reg.span("lamb.reachability") as sp_reach:
            reach = find_reachability(
                index, orderings, ses_partitions, des_partitions,
                ses_reps, des_reps,
            )

        # Phase 3 (Reduce-WVC + the max-flow / local-ratio cover).
        with reg.span("lamb.wvc", method=method) as sp_wvc:
            ses = ses_partitions[0]
            des = des_partitions[-1]
            Rk = reach.Rk
            zeros = np.argwhere(~Rk)
            lambs: Set[Node] = set()
            chosen_ses: Tuple[int, ...] = ()
            chosen_des: Tuple[int, ...] = ()
            cover_weight = 0.0
            if zeros.size:
                if method == "bipartite":
                    chosen_ses, chosen_des, cover_weight = _reduce_bipartite(
                        ses, des, zeros, values
                    )
                    for i in chosen_ses:
                        lambs.update(ses[i].nodes())
                    for j in chosen_des:
                        lambs.update(des[j].nodes())
                else:
                    lambs, cover_weight = _reduce_general(
                        ses, des, Rk, zeros, values,
                        exact=(method == "general-exact"),
                        wvc_max_vertices=wvc_max_vertices,
                    )
            lambs.update(predetermined)
    reg.inc("lamb_runs_total", method=method)
    reg.inc("lamb_nodes_total", len(lambs))

    return LambResult(
        mesh=mesh,
        faults=faults,
        orderings=orderings,
        method=method,
        lambs=frozenset(lambs),
        chosen_ses=chosen_ses,
        chosen_des=chosen_des,
        ses_partition=ses,
        des_partition=des,
        reach=reach,
        cover_weight=cover_weight,
        predetermined=predetermined,
        timings={
            "partition": sp_partition.seconds,
            "reachability": sp_reach.seconds,
            "wvc": sp_wvc.seconds,
            "total": sp_total.seconds,
        },
    )


def _reduce_bipartite(
    ses: Sequence[Rect],
    des: Sequence[Rect],
    zeros: np.ndarray,
    values: Mapping[Node, float],
) -> Tuple[Tuple[int, ...], Tuple[int, ...], float]:
    """Reduce-WVC(Bipartite), Fig. 13."""
    rel_s, rel_d, edges = compact_edges(zeros)
    left_w = _rect_weights([ses[i] for i in rel_s.tolist()], values)
    right_w = _rect_weights([des[j] for j in rel_d.tolist()], values)
    cover_l, cover_r, weight = min_weight_vertex_cover_bipartite(
        left_w, right_w, edges
    )
    return (
        tuple(rel_s[sorted(cover_l)].tolist()),
        tuple(rel_d[sorted(cover_r)].tolist()),
        weight,
    )


def _reduce_general(
    ses: Sequence[Rect],
    des: Sequence[Rect],
    Rk: np.ndarray,
    zeros: np.ndarray,
    values: Mapping[Node, float],
    exact: bool,
    wvc_max_vertices: int = 40,
) -> Tuple[Set[Node], float]:
    """Reduce-WVC(General), Fig. 16.

    Vertices are the nonempty intersections ``S_i ∩ D_j`` restricted to
    those with at least one incident edge; ``u_{i,j} ~ u_{i',j'}`` iff
    ``R^(k)(i, j') = 0`` or ``R^(k)(i', j) = 0``.
    """
    zero_rows = set(np.unique(zeros[:, 0]).tolist())
    zero_cols = set(np.unique(zeros[:, 1]).tolist())
    # Candidate vertices: an intersection vertex u_{i,j} has an edge
    # only if row i or column j contains a zero (pair it with some
    # vertex in the zero's column/row).
    vertices: List[Tuple[int, int, Rect]] = []
    for i, S in enumerate(ses):
        for j, D in enumerate(des):
            if i not in zero_rows and j not in zero_cols:
                continue
            if S.intersection_size(D) == 0:
                continue
            vertices.append((i, j, S.intersection(D)))
    n = len(vertices)
    edges: List[Tuple[int, int]] = []
    for a in range(n):
        i, j, _ = vertices[a]
        for b in range(a + 1, n):
            i2, j2, _ = vertices[b]
            if not Rk[i, j2] or not Rk[i2, j]:
                edges.append((a, b))
    weights = _rect_weights([r for _, _, r in vertices], values)
    if exact:
        cover = wvc_exact(n, weights, edges, max_vertices=wvc_max_vertices)
    else:
        cover = wvc_local_ratio(n, weights, edges)
    lambs: Set[Node] = set()
    weight = 0.0
    for a in cover:
        _, _, rect = vertices[a]
        lambs.update(rect.nodes())
        weight += weights[a]
    return lambs, weight
