"""Fault sets (Definition 2.4) and fault-pattern generators.

A fault set ``F = (F_N, F_L)`` consists of node faults and *directed*
link faults.  A node fault implicitly disables every incident link; a
link fault ``<u, v>`` disables routing from ``u`` to ``v`` only (the
reverse direction remains usable unless it is also faulty).

Besides uniformly random node/link faults (the model used in the
paper's Section 8 simulations), this module provides the patterned
fault regions used by the fault-ring baselines (rectangular blocks and
the "solid fault" shapes — crosses, L's, T's — of Chalasani & Boppana).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from .geometry import Link, Mesh, Node

__all__ = [
    "FaultSet",
    "random_node_faults",
    "random_link_faults",
    "rectangular_block",
    "cross_block",
    "l_shaped_block",
    "t_shaped_block",
]


class FaultSet:
    """An immutable fault set ``F = (F_N, F_L)`` for a mesh.

    Parameters
    ----------
    mesh:
        The mesh the faults live in.
    node_faults:
        Iterable of faulty nodes.
    link_faults:
        Iterable of faulty *directed* links ``(u, v)``; ``u`` and ``v``
        must be adjacent.  Links incident to faulty nodes may be listed
        but are redundant (they are removed on construction, matching
        the paper's convention that such links "do not appear
        explicitly in F_L").
    """

    __slots__ = (
        "mesh",
        "node_faults",
        "link_faults",
        "_node_index_set",
        "_link_set",
    )

    def __init__(
        self,
        mesh: Mesh,
        node_faults: Iterable[Sequence[int]] = (),
        link_faults: Iterable[Tuple[Sequence[int], Sequence[int]]] = (),
    ):
        self.mesh = mesh
        nodes = []
        seen = set()
        for v in node_faults:
            v = tuple(int(x) for x in v)
            if not mesh.contains(v):
                raise ValueError(f"faulty node {v} not in {mesh}")
            if v not in seen:
                seen.add(v)
                nodes.append(v)
        self.node_faults: Tuple[Node, ...] = tuple(nodes)
        self._node_index_set: FrozenSet[int] = frozenset(
            mesh.index_of(v) for v in nodes
        )
        links = []
        link_seen = set()
        for u, v in link_faults:
            u = tuple(int(x) for x in u)
            v = tuple(int(x) for x in v)
            if not mesh.are_adjacent(u, v) and not (
                mesh.is_torus and v in set(mesh.neighbors(u))
            ):
                raise ValueError(f"<{u}, {v}> is not a link of {mesh}")
            if u in seen or v in seen:
                continue  # implied by a node fault; keep F_L minimal
            if (u, v) not in link_seen:
                link_seen.add((u, v))
                links.append((u, v))
        self.link_faults: Tuple[Link, ...] = tuple(links)
        self._link_set: FrozenSet[Link] = frozenset(links)

    # ------------------------------------------------------------------
    @property
    def f(self) -> int:
        """Total number of faults ``f = |F_N| + |F_L|``."""
        return len(self.node_faults) + len(self.link_faults)

    @property
    def num_node_faults(self) -> int:
        return len(self.node_faults)

    @property
    def num_link_faults(self) -> int:
        return len(self.link_faults)

    def is_empty(self) -> bool:
        return self.f == 0

    def node_is_faulty(self, node: Sequence[int]) -> bool:
        """Whether ``node`` belongs to ``F_N``."""
        return self.mesh.index_of(tuple(node)) in self._node_index_set

    def link_is_faulty(self, u: Sequence[int], v: Sequence[int]) -> bool:
        """Whether routing from ``u`` to ``v`` over the link is blocked.

        True if the directed link is in ``F_L`` or either endpoint is a
        faulty node.
        """
        u = tuple(u)
        v = tuple(v)
        if self.node_is_faulty(u) or self.node_is_faulty(v):
            return True
        return (u, v) in self._link_set

    def good_nodes(self) -> List[Node]:
        """All nonfaulty nodes (small meshes only)."""
        return [v for v in self.mesh.nodes() if not self.node_is_faulty(v)]

    def node_fault_array(self) -> np.ndarray:
        """Faulty nodes as an ``(|F_N|, d)`` int64 array."""
        if not self.node_faults:
            return np.empty((0, self.mesh.d), dtype=np.int64)
        return np.asarray(self.node_faults, dtype=np.int64)

    def node_fault_indices(self) -> FrozenSet[int]:
        """Linear indices of the faulty nodes."""
        return self._node_index_set

    # ------------------------------------------------------------------
    def with_nodes_as_faults(self, extra: Iterable[Sequence[int]]) -> "FaultSet":
        """A new fault set with additional node faults."""
        return FaultSet(
            self.mesh,
            list(self.node_faults) + [tuple(v) for v in extra],
            self.link_faults,
        )

    def with_links_as_faults(
        self, extra: Iterable[Tuple[Sequence[int], Sequence[int]]]
    ) -> "FaultSet":
        """A new fault set with additional *directed* link faults.

        The incremental counterpart of :meth:`with_nodes_as_faults`:
        chaos/reconfiguration epochs grow the fault state one event at
        a time instead of rebuilding it from scratch.  The result is
        ``==`` (and hashes identically) to a :class:`FaultSet` built in
        one shot from the union, because construction canonicalizes
        (dedup, drop links implied by node faults).
        """
        return FaultSet(
            self.mesh,
            self.node_faults,
            list(self.link_faults) + [(tuple(u), tuple(v)) for (u, v) in extra],
        )

    def with_faults(
        self,
        node_faults: Iterable[Sequence[int]] = (),
        link_faults: Iterable[Tuple[Sequence[int], Sequence[int]]] = (),
    ) -> "FaultSet":
        """Incremental union: a new fault set with both extra nodes and
        extra directed links (one constructor pass, so links implied by
        the *new* node faults are also canonicalized away)."""
        return FaultSet(
            self.mesh,
            list(self.node_faults) + [tuple(v) for v in node_faults],
            list(self.link_faults)
            + [(tuple(u), tuple(v)) for (u, v) in link_faults],
        )

    def links_as_node_faults(self) -> "FaultSet":
        """Convert every link fault to a node fault at its source end.

        The simple (but lossy) way to handle link faults discussed in
        Section 2.2.
        """
        extra = [u for (u, v) in self.link_faults]
        return FaultSet(self.mesh, list(self.node_faults) + extra, ())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultSet({self.mesh}, |F_N|={len(self.node_faults)}, "
            f"|F_L|={len(self.link_faults)})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FaultSet)
            and self.mesh == other.mesh
            and set(self.node_faults) == set(other.node_faults)
            and set(self.link_faults) == set(other.link_faults)
        )

    def __hash__(self) -> int:
        return hash(
            (self.mesh, frozenset(self.node_faults), frozenset(self.link_faults))
        )


# ----------------------------------------------------------------------
# Random fault generators (Section 8's fault model)
# ----------------------------------------------------------------------
def random_node_faults(
    mesh: Mesh, count: int, rng: np.random.Generator
) -> FaultSet:
    """``count`` distinct node faults chosen uniformly at random."""
    return FaultSet(mesh, mesh.random_nodes(count, rng))


def random_link_faults(
    mesh: Mesh,
    count: int,
    rng: np.random.Generator,
    bidirectional: bool = False,
) -> FaultSet:
    """Random link faults chosen uniformly without replacement.

    With ``bidirectional=False`` (the default) ``count`` distinct
    *directed* links are drawn, so ``|F_L| = count`` and ``f = count``.

    With ``bidirectional=True`` ``count`` distinct *physical* channels
    are drawn and each fails in both directions; every direction is a
    separate directed fault in ``F_L``, so ``|F_L| = 2 * count`` and
    ``f = 2 * count``.
    """
    if count < 0:
        raise ValueError(f"cannot draw a negative number of link faults: {count}")
    all_links: List[Link] = list(mesh.links())
    if bidirectional:
        undirected = sorted({tuple(sorted((u, v))) for u, v in all_links})
        if count > len(undirected):
            raise ValueError("not enough links")
        picks = rng.choice(len(undirected), size=count, replace=False)
        chosen: List[Link] = []
        for i in picks:
            u, v = undirected[int(i)]
            chosen.append((u, v))
            chosen.append((v, u))
        return FaultSet(mesh, (), chosen)
    if count > len(all_links):
        raise ValueError("not enough links")
    picks = rng.choice(len(all_links), size=count, replace=False)
    return FaultSet(mesh, (), [all_links[int(i)] for i in picks])


# ----------------------------------------------------------------------
# Patterned fault regions (baseline comparators)
# ----------------------------------------------------------------------
def rectangular_block(
    mesh: Mesh, corner: Sequence[int], shape: Sequence[int]
) -> List[Node]:
    """Nodes of an axis-aligned rectangular fault block.

    ``corner`` is the minimal corner, ``shape`` the per-dimension
    extents.  Used by the Boppana–Chalasani baseline, whose fault model
    requires rectangular fault regions.
    """
    corner = tuple(int(c) for c in corner)
    shape = tuple(int(s) for s in shape)
    if len(corner) != mesh.d or len(shape) != mesh.d:
        raise ValueError("corner/shape dimensionality mismatch")
    if any(s < 1 for s in shape):
        raise ValueError("shape extents must be >= 1")
    hi = tuple(c + s - 1 for c, s in zip(corner, shape))
    if not mesh.contains(corner) or not mesh.contains(hi):
        raise ValueError("block exceeds mesh bounds")
    import itertools

    return [
        tuple(v)
        for v in itertools.product(
            *(range(c, c + s) for c, s in zip(corner, shape))
        )
    ]


def cross_block(mesh: Mesh, center: Sequence[int], arm: int) -> List[Node]:
    """A 2D '+'-shaped (cross) solid fault centered at ``center``.

    One of the nonconvex "solid fault" shapes of Chalasani & Boppana.
    Only defined for 2D meshes.
    """
    if mesh.d != 2:
        raise ValueError("cross faults are 2D patterns")
    cx, cy = (int(c) for c in center)
    nodes = {(cx, cy)}
    for k in range(1, arm + 1):
        for v in ((cx - k, cy), (cx + k, cy), (cx, cy - k), (cx, cy + k)):
            if mesh.contains(v):
                nodes.add(v)
    return sorted(nodes)


def l_shaped_block(
    mesh: Mesh, corner: Sequence[int], leg1: int, leg2: int
) -> List[Node]:
    """A 2D 'L'-shaped solid fault with legs along +X and +Y."""
    if mesh.d != 2:
        raise ValueError("L faults are 2D patterns")
    cx, cy = (int(c) for c in corner)
    nodes = set()
    for k in range(leg1):
        if mesh.contains((cx + k, cy)):
            nodes.add((cx + k, cy))
    for k in range(leg2):
        if mesh.contains((cx, cy + k)):
            nodes.add((cx, cy + k))
    return sorted(nodes)


def t_shaped_block(
    mesh: Mesh, top_left: Sequence[int], width: int, stem: int
) -> List[Node]:
    """A 2D 'T'-shaped solid fault: a bar of ``width`` plus a stem."""
    if mesh.d != 2:
        raise ValueError("T faults are 2D patterns")
    cx, cy = (int(c) for c in top_left)
    nodes = set()
    for k in range(width):
        if mesh.contains((cx + k, cy)):
            nodes.add((cx + k, cy))
    mid = cx + width // 2
    for k in range(1, stem + 1):
        if mesh.contains((mid, cy + k)):
            nodes.add((mid, cy + k))
    return sorted(nodes)
