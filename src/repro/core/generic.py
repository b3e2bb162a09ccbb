"""Generic-topology lamb finding (Section 7).

The rectangular partition machinery is mesh-specific, but the lamb
*method* only needs a set of nodes and a "simple reachability" relation
``R(v, w, F)``.  This module implements the general recipe the paper
sketches: treat every node as its own SES and DES (exactly the
construction behind Theorem 9.3), reduce to vertex cover, and solve.
Cost is O(N^2)-ish, so it targets small instances — tori, hypercubes
with exotic orderings, or arbitrary graphs.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..graphs.bipartite_vc import (
    compact_edges,
    min_weight_vertex_cover_bipartite,
    zero_pairs,
)
from ..graphs.wvc import wvc_exact, wvc_local_ratio
from ..mesh.faults import FaultSet
from ..mesh.torus import Torus
from ..routing.dor import torus_one_round_reachable
from ..routing.ordering import KRoundOrdering

__all__ = [
    "k_round_matrix_from_relation",
    "generic_lamb_set",
    "torus_reach_matrix",
    "torus_lamb_set",
]

NodeT = Hashable


def k_round_matrix_from_relation(
    nodes: Sequence[NodeT],
    round_relations: Sequence[Callable[[NodeT, NodeT], bool]],
) -> np.ndarray:
    """Build ``R^(k)`` over explicit nodes from per-round scalar
    one-round reachability predicates (Definition 2.5.2 unrolled via
    boolean matrix products)."""
    n = len(nodes)
    acc: Optional[np.ndarray] = None
    cache: Dict[int, np.ndarray] = {}
    for rel in round_relations:
        key = id(rel)
        if key not in cache:
            R = np.zeros((n, n), dtype=bool)
            for i, v in enumerate(nodes):
                for j, w in enumerate(nodes):
                    R[i, j] = rel(v, w)
            cache[key] = R
        R = cache[key]
        if acc is None:
            acc = R
        else:
            acc = (acc.astype(np.float32) @ R.astype(np.float32)) > 0.5
    assert acc is not None
    return acc


def generic_lamb_set(
    nodes: Sequence[NodeT],
    Rk: np.ndarray,
    method: str = "bipartite",
    weights: Optional[Sequence[float]] = None,
) -> Set[NodeT]:
    """Find a lamb set over explicit good nodes given ``R^(k)``.

    ``Rk[i, j]`` says node ``i`` can k-round-reach node ``j``.  With
    ``method="bipartite"`` this is Lamb1 with singleton SES/DES sets
    (2-approximate); ``"general-exact"`` solves the Theorem 9.3 vertex
    cover exactly (optimal lamb set, exponential time);
    ``"general"`` uses the 2-approximate WVC.
    """
    n = len(nodes)
    if Rk.shape != (n, n):
        raise ValueError("Rk shape mismatch")
    if weights is None:
        weights = [1.0] * n
    zeros = zero_pairs(Rk)
    if zeros.size == 0:
        return set()
    if method == "bipartite":
        rel_s, rel_d, edges = compact_edges(zeros)
        w = np.asarray(weights, dtype=np.float64)
        cl, cr, _ = min_weight_vertex_cover_bipartite(
            w[rel_s], w[rel_d], edges
        )
        out = {nodes[i] for i in rel_s[sorted(cl)].tolist()}
        out |= {nodes[j] for j in rel_d[sorted(cr)].tolist()}
        return out
    # General graph: vertex per node; edge (u, u') iff one of the two
    # directions is unreachable (Theorem 9.3 construction).
    bad = ~Rk | ~Rk.T
    pairs = np.argwhere(np.triu(bad, k=1))
    edges = [(int(a), int(b)) for a, b in pairs]
    if method == "general-exact":
        cover = wvc_exact(n, list(weights), edges)
    elif method == "general":
        cover = wvc_local_ratio(n, list(weights), edges)
    else:
        raise ValueError(f"unknown method {method!r}")
    return {nodes[a] for a in cover}


def torus_reach_matrix(
    faults: FaultSet, orderings: KRoundOrdering
) -> Tuple[List, np.ndarray]:
    """``(good_nodes, R^(k))`` for a torus with minimal-direction
    dimension-ordered routing (small tori only: O(k N^2) route walks).
    """
    torus = faults.mesh
    if not isinstance(torus, Torus):
        raise TypeError("expected a Torus")
    good = faults.good_nodes()
    rel_by_pi: Dict = {}
    rels = []
    for pi in orderings:
        if pi not in rel_by_pi:
            rel_by_pi[pi] = (
                lambda v, w, pi=pi: torus_one_round_reachable(faults, pi, v, w)
            )
        rels.append(rel_by_pi[pi])
    return good, k_round_matrix_from_relation(good, rels)


def torus_lamb_set(
    faults: FaultSet, orderings: KRoundOrdering, method: str = "bipartite"
) -> Set:
    """Lamb set for a faulty torus (Section 7 extension)."""
    good, Rk = torus_reach_matrix(faults, orderings)
    return generic_lamb_set(good, Rk, method=method)
