"""Mesh topology model.

This module defines :class:`Mesh`, the d-dimensional mesh
``M_d(n_1, ..., n_d)`` from Definition 2.1 of the paper, together with
coordinate arithmetic, link enumeration and index/coordinate
conversion helpers used throughout the library.

Nodes are represented as tuples of ``int`` in user-facing APIs and as
rows of ``numpy`` integer arrays in the vectorized kernels.  A *link*
is an ordered pair of adjacent nodes ``(u, v)``; the mesh has two
directed links per physical channel, which lets a link fail in only
one direction (footnote 1 of the paper).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

Node = Tuple[int, ...]
Link = Tuple[Node, Node]

__all__ = ["Mesh", "Node", "Link"]


class Mesh:
    """The d-dimensional mesh ``M_d(n_1, ..., n_d)``.

    Parameters
    ----------
    widths:
        Sequence of per-dimension widths ``n_1, ..., n_d``; every width
        must be at least 2 (Definition 2.1).

    Examples
    --------
    >>> m = Mesh((12, 12))
    >>> m.d, m.num_nodes
    (2, 144)
    >>> m.contains((11, 0))
    True
    >>> m.contains((12, 0))
    False
    """

    __slots__ = ("widths", "d", "num_nodes", "_strides")

    def __init__(self, widths: Sequence[int]):
        widths = tuple(int(n) for n in widths)
        if len(widths) < 1:
            raise ValueError("a mesh needs at least one dimension")
        if any(n < 2 for n in widths):
            raise ValueError(f"every width must be >= 2, got {widths}")
        self.widths: Tuple[int, ...] = widths
        self.d: int = len(widths)
        n = 1
        for w in widths:
            n *= w
        self.num_nodes: int = n
        # Row-major strides: index(v) = sum_i v_i * stride_i, with the
        # first coordinate varying slowest (C order over coordinates).
        strides = [1] * self.d
        for i in range(self.d - 2, -1, -1):
            strides[i] = strides[i + 1] * widths[i + 1]
        self._strides: Tuple[int, ...] = tuple(strides)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def square(cls, d: int, n: int) -> "Mesh":
        """The mesh ``M_d(n)`` with all widths equal to ``n``."""
        return cls((n,) * d)

    @classmethod
    def hypercube(cls, d: int) -> "Mesh":
        """The d-dimensional binary hypercube ``M_d(2)`` (Section 7)."""
        return cls((2,) * d)

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mesh{self.widths}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mesh) and self.widths == other.widths

    def __hash__(self) -> int:
        return hash(("Mesh", self.widths))

    @property
    def is_torus(self) -> bool:
        """Whether wrap-around links exist.  Overridden by Torus."""
        return False

    @property
    def bisection_width(self) -> int:
        """Node bisection width used in Section 8.

        For ``M_d(n)`` the paper takes the bisection width to be
        ``n**(d-1)``; for non-square meshes we generalize to the
        product of all widths except the largest (the size of the
        smallest axis-aligned cut).
        """
        widths = sorted(self.widths)
        out = 1
        for w in widths[:-1]:
            out *= w
        return out

    # ------------------------------------------------------------------
    # Membership, iteration
    # ------------------------------------------------------------------
    def contains(self, node: Sequence[int]) -> bool:
        """Whether ``node`` is a node of this mesh."""
        if len(node) != self.d:
            return False
        return all(0 <= v < n for v, n in zip(node, self.widths))

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes in index order.

        Intended for small meshes (tests, examples); large-mesh code
        paths never materialize the node set.
        """
        return itertools.product(*(range(n) for n in self.widths))

    def links(self) -> Iterator[Link]:
        """Iterate over all directed links ``<u, v>``."""
        for u in self.nodes():
            for v in self.neighbors(u):
                yield (u, v)

    def num_links(self) -> int:
        """Total number of directed links."""
        total = 0
        for j, nj in enumerate(self.widths):
            per_line = 2 * (nj - 1)
            total += per_line * (self.num_nodes // nj)
        return total

    def neighbors(self, node: Sequence[int]) -> Iterator[Node]:
        """Iterate over the mesh neighbors of ``node``."""
        node = tuple(node)
        if not self.contains(node):
            raise ValueError(f"{node} is not a node of {self}")
        for j in range(self.d):
            for delta in (-1, 1):
                w = node[j] + delta
                if 0 <= w < self.widths[j]:
                    yield node[:j] + (w,) + node[j + 1 :]

    def degree(self, node: Sequence[int]) -> int:
        """Number of neighbors of ``node``."""
        return sum(1 for _ in self.neighbors(node))

    # ------------------------------------------------------------------
    # Index <-> coordinate conversion
    # ------------------------------------------------------------------
    def index_of(self, node: Sequence[int]) -> int:
        """Row-major linear index of a node."""
        if not self.contains(tuple(node)):
            raise ValueError(f"{tuple(node)} is not a node of {self}")
        return sum(v * s for v, s in zip(node, self._strides))

    def node_at(self, index: int) -> Node:
        """Inverse of :meth:`index_of`."""
        if not 0 <= index < self.num_nodes:
            raise ValueError(f"index {index} out of range")
        out = []
        for s, n in zip(self._strides, self.widths):
            out.append((index // s) % n)
        return tuple(out)

    def indices_of(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`index_of` for an ``(m, d)`` array."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 2 or nodes.shape[1] != self.d:
            raise ValueError(f"expected an (m, {self.d}) array")
        return nodes @ np.asarray(self._strides, dtype=np.int64)

    def nodes_at(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`node_at`; returns an ``(m, d)`` array."""
        idx = np.asarray(indices, dtype=np.int64)
        out = np.empty((idx.shape[0], self.d), dtype=np.int64)
        for j, (s, n) in enumerate(zip(self._strides, self.widths)):
            out[:, j] = (idx // s) % n
        return out

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def l1_distance(self, u: Sequence[int], v: Sequence[int]) -> int:
        """L1 (Manhattan) distance between two nodes."""
        return sum(abs(a - b) for a, b in zip(u, v))

    def are_adjacent(self, u: Sequence[int], v: Sequence[int]) -> bool:
        """Whether ``<u, v>`` is a link of the mesh."""
        return (
            self.contains(tuple(u))
            and self.contains(tuple(v))
            and self.l1_distance(u, v) == 1
        )

    # ------------------------------------------------------------------
    # Random nodes
    # ------------------------------------------------------------------
    def random_nodes(
        self, count: int, rng: np.random.Generator, exclude: Iterable[Node] = ()
    ) -> List[Node]:
        """Sample ``count`` distinct nodes uniformly at random.

        ``exclude`` removes candidates before sampling (used, e.g., to
        sample sources/destinations that avoid faults and lambs).
        """
        if count < 0:
            raise ValueError(f"cannot sample a negative number of nodes: {count}")
        excluded = {self.index_of(v) for v in exclude}
        available = self.num_nodes - len(excluded)
        if count > available:
            raise ValueError(
                f"cannot sample {count} distinct nodes from {available} available"
            )
        if not excluded:
            idx = rng.choice(self.num_nodes, size=count, replace=False)
            return [self.node_at(int(i)) for i in idx]
        # Rejection-free: sample from the complement.
        pool = np.setdiff1d(
            np.arange(self.num_nodes, dtype=np.int64),
            np.fromiter(excluded, dtype=np.int64, count=len(excluded)),
            assume_unique=False,
        )
        idx = rng.choice(pool, size=count, replace=False)
        return [self.node_at(int(i)) for i in idx]
