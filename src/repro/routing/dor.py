"""One-round dimension-ordered routing (Definition 2.2).

Provides route materialization (the explicit node path), the segment
decomposition used by the fault machinery, and exact one-round
``(F, pi)``-reachability tests (Definition 2.5.1) for meshes and tori.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..mesh.faults import FaultSet
from ..mesh.geometry import Mesh, Node
from ..mesh.torus import Torus
from .linefaults import LineFaultIndex, LineKey
from .ordering import Ordering

__all__ = [
    "dor_path",
    "dor_segments",
    "one_round_reachable",
    "path_is_fault_free",
    "torus_dor_path",
    "torus_one_round_reachable",
]


def dor_segments(
    pi: Ordering, v: Sequence[int], w: Sequence[int]
) -> List[Tuple[int, LineKey, int, int]]:
    """Decompose the ``pi``-route from ``v`` to ``w`` into segments.

    Returns a list of ``(dim, line_key, a, b)`` tuples, one per
    dimension in routing order, where the route travels along ``dim``
    from coordinate ``a`` to ``b`` on the line identified by
    ``line_key`` (the other coordinates, in natural order).  Zero-length
    segments (``a == b``) are included so endpoint node faults are
    always detected.
    """
    cur = list(v)
    out = []
    for j in pi:
        key = tuple(cur[:j]) + tuple(cur[j + 1 :])
        out.append((j, key, cur[j], int(w[j])))
        cur[j] = int(w[j])
    return out


def dor_path(
    mesh: Mesh, pi: Ordering, v: Sequence[int], w: Sequence[int]
) -> List[Node]:
    """The explicit node sequence of the unique ``pi``-route.

    >>> from repro.mesh import Mesh
    >>> from repro.routing import xy
    >>> dor_path(Mesh((4, 4)), xy(), (0, 0), (2, 1))
    [(0, 0), (1, 0), (2, 0), (2, 1)]
    """
    v = tuple(int(x) for x in v)
    w = tuple(int(x) for x in w)
    if not mesh.contains(v) or not mesh.contains(w):
        raise ValueError("route endpoints must be mesh nodes")
    path = [v]
    for j in pi:
        cur = path[-1]
        a, b = cur[j], w[j]
        step = 1 if b > a else -1
        pre, post = cur[:j], cur[j + 1:]
        path += [pre + (x,) + post for x in range(a + step, b + step, step)]
    return path


def one_round_reachable(
    index: LineFaultIndex, pi: Ordering, v: Sequence[int], w: Sequence[int]
) -> bool:
    """Whether ``w`` is ``(F, pi)``-reachable from ``v`` on a mesh.

    Exact per Definition 2.5.1: the unique ``pi``-route must avoid all
    faulty nodes (including ``v`` and ``w`` themselves) and all faulty
    directed links.
    """
    for j, key, a, b in dor_segments(pi, v, w):
        if index.segment_blocked(j, key, a, b):
            return False
    return True


def path_is_fault_free(faults: FaultSet, path: Sequence[Node]) -> bool:
    """Whether an explicit path avoids all faulty nodes and links."""
    link_set = set(faults.link_faults)
    for node in path:
        if faults.node_is_faulty(node):
            return False
    for u, w in zip(path, path[1:]):
        if (u, w) in link_set:
            return False
    return True


# ----------------------------------------------------------------------
# Torus variants (Section 7 extension)
# ----------------------------------------------------------------------
def torus_dor_path(
    torus: Torus, pi: Ordering, v: Sequence[int], w: Sequence[int]
) -> List[Node]:
    """Deterministic dimension-ordered route on a torus.

    Each ring is traversed in its minimal direction (ties toward +1),
    the standard deterministic DOR convention on tori.
    """
    v = tuple(int(x) for x in v)
    w = tuple(int(x) for x in w)
    if not torus.contains(v) or not torus.contains(w):
        raise ValueError("route endpoints must be torus nodes")
    cur = list(v)
    path = [tuple(cur)]
    for j in pi:
        nj = torus.widths[j]
        step = torus.ring_step(j, cur[j], w[j])
        while cur[j] != w[j]:
            cur[j] = (cur[j] + step) % nj
            path.append(tuple(cur))
    return path


def torus_one_round_reachable(
    faults: FaultSet, pi: Ordering, v: Sequence[int], w: Sequence[int]
) -> bool:
    """Exact one-round reachability on a torus via explicit-path check.

    Suitable for the small tori used in tests and examples; the
    O(f)-space index kernel is mesh-only.
    """
    if not isinstance(faults.mesh, Torus):
        raise TypeError("torus_one_round_reachable requires a Torus fault set")
    path = torus_dor_path(faults.mesh, pi, v, w)
    return path_is_fault_free(faults, path)
