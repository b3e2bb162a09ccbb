"""Flood computation of Find-Reachability's matrices (the paper's
footnote 7), kept as the reference ``repro.core.find_reachability``
must match bit for bit.

Instead of the line-table kernel and the R·I·R products, it floods a
reach grid from every SES representative, one ordering per round, and
reads the grid at the destination representatives.  It shares no code
with the table kernel, and costs O(p d N) per round, so use it on
test-sized meshes only.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.mesh.faults import FaultSet
from repro.routing.multiround import FaultGrids, reach_set_one_round
from repro.routing.ordering import KRoundOrdering


def _nodes(reps, d: int) -> np.ndarray:
    return np.asarray(reps, dtype=np.int64).reshape(-1, d)


def oracle_one_round_matrix(
    grids: FaultGrids, pi, sources: np.ndarray, dests: np.ndarray
) -> np.ndarray:
    """``R[i, l] = sources[i] can (F, pi)-reach dests[l]``, computed by
    flooding a one-round reach grid from every source."""
    mesh = grids.mesh
    S, D = _nodes(sources, mesh.d), _nodes(dests, mesh.d)
    out = np.zeros((S.shape[0], D.shape[0]), dtype=bool)
    if out.size == 0:
        return out
    dest_flat = mesh.indices_of(D)
    start = np.zeros(mesh.widths, dtype=bool)
    for i, row in enumerate(S):
        v = tuple(int(x) for x in row)
        if not grids.good[v]:
            raise ValueError(f"source representative {v} is faulty")
        start[v] = True
        out[i] = reach_set_one_round(grids, pi, start).reshape(-1)[dest_flat]
        start[v] = False
    return out


def oracle_reachability(
    faults: FaultSet,
    orderings: KRoundOrdering,
    ses_reps: Sequence[np.ndarray],
    des_reps: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """``(round_matrices, partial)`` as :func:`find_reachability`
    defines them: ``round_matrices[t]`` is round ``t``'s one-round
    matrix between its own representatives, and ``partial[t]`` is
    ``R^(t+1)`` from the round-1 SES representatives to the round
    ``t + 1`` DES representatives.  ``partial[-1]`` is ``R^(k)``."""
    mesh = faults.mesh
    grids = FaultGrids(faults)
    k = orderings.k
    round_matrices = [
        oracle_one_round_matrix(grids, orderings[t], ses_reps[t], des_reps[t])
        for t in range(k)
    ]
    S = _nodes(ses_reps[0], mesh.d)
    dest_flat = [mesh.indices_of(_nodes(des_reps[t], mesh.d)) for t in range(k)]
    partial = [np.zeros((S.shape[0], idx.size), dtype=bool) for idx in dest_flat]
    start = np.zeros(mesh.widths, dtype=bool)
    for i, row in enumerate(S):
        v = tuple(int(x) for x in row)
        start[v] = True
        frontier = start.copy()
        start[v] = False
        for t in range(k):
            frontier = reach_set_one_round(grids, orderings[t], frontier)
            partial[t][i] = frontier.reshape(-1)[dest_flat[t]]
    return round_matrices, partial
