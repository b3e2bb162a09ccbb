"""Rectangular node-set abbreviations (Section 6.1).

The partition algorithms represent SES's and DES's as *rectangles*:
per-coordinate intervals ``[lo_j, hi_j]`` where a full interval
``[0, n_j - 1]`` plays the role of the paper's ``*`` and a degenerate
interval the role of a constant ``c_j``.  A rectangle with ``m``
nodes is stored in O(d) space; the lamb algorithms never materialize
node sets until a lamb set has been chosen (keeping the running time
independent of the mesh size N).

Bounds are integers: ``Rect`` rejects float and bool bounds with
``TypeError`` rather than truncating them.  A partition is a
:class:`Rects`: ``Rect.batch`` validates its ``(m, d)`` integer bound
arrays with one vectorized check and keeps them as read-only int64
arrays, so Find-Reachability, Reduce-WVC and route materialization
read a partition's corners without building a ``Rect`` per set.  A
``Rect`` is built only when a caller indexes or iterates the sequence.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, List, Sequence, Tuple, Union, overload

import numpy as np

from .geometry import Mesh, Node

__all__ = [
    "Rect",
    "Rects",
    "as_rects",
    "corner_array",
    "rect_intersection_matrix",
    "rects_total_size",
    "rects_are_disjoint",
]


class Rect:
    """An axis-aligned rectangle of mesh nodes.

    Parameters
    ----------
    mesh:
        The enclosing mesh.
    lo, hi:
        Inclusive per-dimension bounds, ``lo[j] <= hi[j]``.
    """

    __slots__ = ("mesh", "lo", "hi")

    def __init__(self, mesh: Mesh, lo: Sequence[int], hi: Sequence[int]):
        for x in (*lo, *hi):
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise TypeError(f"rectangle bounds must be integers, got {x!r}")
        lo = tuple(int(x) for x in lo)
        hi = tuple(int(x) for x in hi)
        if len(lo) != mesh.d or len(hi) != mesh.d:
            raise ValueError("bounds dimensionality mismatch")
        for j, (a, b) in enumerate(zip(lo, hi)):
            if not (0 <= a <= b < mesh.widths[j]):
                raise ValueError(
                    f"invalid interval [{a}, {b}] in dimension {j} of {mesh}"
                )
        self.mesh = mesh
        self.lo: Tuple[int, ...] = lo
        self.hi: Tuple[int, ...] = hi

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, mesh: Mesh, spec: Sequence) -> "Rect":
        """Build from the paper's notation.

        Each coordinate of ``spec`` is ``'*'`` (full range), an ``int``
        (constant), or an ``(lo, hi)`` pair.

        >>> m = Mesh((12, 12))
        >>> r = Rect.from_spec(m, ['*', (2, 5)])
        >>> r.size
        48
        """
        lo, hi = [], []
        for j, s in enumerate(spec):
            if s == "*":
                lo.append(0)
                hi.append(mesh.widths[j] - 1)
            elif isinstance(s, (tuple, list)):
                lo.append(s[0])
                hi.append(s[1])
            else:
                lo.append(int(s))
                hi.append(int(s))
        return cls(mesh, lo, hi)

    @classmethod
    def batch(cls, mesh: Mesh, lo: np.ndarray, hi: np.ndarray) -> "Rects":
        """Rectangles from ``(m, d)`` integer arrays of bounds, one per row.

        Validates all bounds at once with the rules of the constructor
        (same ``TypeError`` / ``ValueError``) and returns them as one
        :class:`Rects`, which builds no ``Rect`` until it is indexed.

        >>> m = Mesh((12, 12))
        >>> rects = Rect.batch(m, np.array([[0, 2]]), np.array([[11, 5]]))
        >>> [r.spec() for r in rects]
        [('*', (2, 5))]
        """
        lo = np.asarray(lo)
        hi = np.asarray(hi)
        if lo.size == 0 and hi.size == 0:
            empty = np.empty((0, mesh.d), dtype=np.int64)
            return Rects._wrap(mesh, empty, empty)
        for a in (lo, hi):
            if a.dtype.kind not in "iu":
                raise TypeError(
                    f"rectangle bounds must be integers, got dtype {a.dtype}"
                )
            if a.ndim != 2 or a.shape != lo.shape or a.shape[1] != mesh.d:
                raise ValueError("bounds dimensionality mismatch")
        bad = (lo < 0) | (lo > hi) | (hi >= np.asarray(mesh.widths))
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(
                f"invalid interval [{lo[i, j]}, {hi[i, j]}] "
                f"in dimension {j} of {mesh}"
            )
        # Copies, so no caller keeps a writable alias of the corners.
        return Rects._wrap(
            mesh, np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
        )

    @classmethod
    def single(cls, mesh: Mesh, node: Sequence[int]) -> "Rect":
        """The singleton rectangle ``{node}``."""
        return cls(mesh, node, node)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of nodes in the rectangle."""
        out = 1
        for a, b in zip(self.lo, self.hi):
            out *= b - a + 1
        return out

    def contains(self, node: Sequence[int]) -> bool:
        return all(a <= v <= b for v, a, b in zip(node, self.lo, self.hi))

    def min_corner(self) -> Node:
        return self.lo

    def nodes(self) -> Iterator[Node]:
        """Iterate over the nodes (materialization; use sparingly)."""
        return itertools.product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))

    def intersects(self, other: "Rect") -> bool:
        """Whether the two rectangles share a node."""
        return all(
            max(a1, a2) <= min(b1, b2)
            for a1, b1, a2, b2 in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def intersection(self, other: "Rect") -> "Rect":
        """The intersection rectangle (raises if empty)."""
        lo = tuple(max(a1, a2) for a1, a2 in zip(self.lo, other.lo))
        hi = tuple(min(b1, b2) for b1, b2 in zip(self.hi, other.hi))
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("empty intersection")
        return Rect(self.mesh, lo, hi)

    def intersection_size(self, other: "Rect") -> int:
        """``|self ∩ other|`` (0 if disjoint), without materializing."""
        out = 1
        for a1, b1, a2, b2 in zip(self.lo, self.hi, other.lo, other.hi):
            w = min(b1, b2) - max(a1, a2) + 1
            if w <= 0:
                return 0
            out *= w
        return out

    def spec(self) -> Tuple:
        """Back to the paper's notation (for display)."""
        out: List = []
        for j, (a, b) in enumerate(zip(self.lo, self.hi)):
            if a == 0 and b == self.mesh.widths[j] - 1:
                out.append("*")
            elif a == b:
                out.append(a)
            else:
                out.append((a, b))
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Rect{self.spec()}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rect)
            and self.mesh == other.mesh
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.mesh, self.lo, self.hi))


class Rects(Sequence[Rect]):
    """An immutable sequence of rectangles of one mesh, stored as two
    read-only, C-contiguous int64 ``(m, d)`` corner arrays ``lo`` and
    ``hi`` (row ``i`` is rectangle ``i``).

    Build one with :meth:`Rect.batch` (validated) or :func:`as_rects`.
    It behaves like the list of its rectangles: ``len``, truthiness,
    integer and slice indexing, iteration, ``==`` against a
    ``list[Rect]`` and ``+`` (which returns a list).  Indexing and
    iteration build each ``Rect`` on demand; array consumers read
    ``lo``/``hi`` directly.  The arrays are read-only because callers
    cache and share them (a partition's corners are its
    Find-Reachability representatives).
    """

    __slots__ = ("mesh", "lo", "hi")

    mesh: Mesh
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def _wrap(cls, mesh: Mesh, lo: np.ndarray, hi: np.ndarray) -> "Rects":
        """Trusted bounds (already validated) as a ``Rects``; ``lo`` and
        ``hi`` must not be aliased by a writer."""
        out = object.__new__(cls)
        out.mesh = mesh
        out.lo = np.ascontiguousarray(lo, dtype=np.int64)
        out.hi = np.ascontiguousarray(hi, dtype=np.int64)
        out.lo.flags.writeable = False
        out.hi.flags.writeable = False
        return out

    def take(self, indices: Union[Sequence[int], np.ndarray]) -> "Rects":
        """The rectangles at ``indices``, in that order."""
        return Rects._wrap(self.mesh, self.lo[indices], self.hi[indices])

    def __len__(self) -> int:
        return len(self.lo)

    @overload
    def __getitem__(self, i: int) -> Rect: ...

    @overload
    def __getitem__(self, i: slice) -> "Rects": ...

    def __getitem__(self, i: Union[int, slice]) -> Union[Rect, "Rects"]:
        if isinstance(i, slice):
            return Rects._wrap(self.mesh, self.lo[i], self.hi[i])
        i = operator.index(i)
        return self._rect(tuple(self.lo[i].tolist()), tuple(self.hi[i].tolist()))

    def __iter__(self) -> Iterator[Rect]:
        rect = self._rect
        for a, b in zip(self.lo.tolist(), self.hi.tolist()):
            yield rect(tuple(a), tuple(b))

    def _rect(self, lo: Tuple[int, ...], hi: Tuple[int, ...]) -> Rect:
        r = object.__new__(Rect)
        r.mesh = self.mesh
        r.lo = lo
        r.hi = hi
        return r

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Rects):
            return (
                self.mesh == other.mesh
                and np.array_equal(self.lo, other.lo)
                and np.array_equal(self.hi, other.hi)
            )
        if isinstance(other, list):
            return len(other) == len(self) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __add__(self, other: Sequence[Rect]) -> List[Rect]:
        return [*self, *other]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Rects({list(self)!r})"


def as_rects(rects: Sequence[Rect]) -> Rects:
    """``rects`` as a :class:`Rects`: itself if it is one, else the
    list's corners (each ``Rect`` validated its own bounds).  A plain
    list must be nonempty, since its mesh comes from its first
    rectangle."""
    if isinstance(rects, Rects):
        return rects
    if not rects:
        raise ValueError("an empty list of rectangles has no mesh")
    mesh = rects[0].mesh
    return Rects._wrap(
        mesh,
        corner_array((r.lo for r in rects), mesh.d),
        corner_array((r.hi for r in rects), mesh.d),
    )


# ----------------------------------------------------------------------
# Vectorized helpers over collections of rectangles
# ----------------------------------------------------------------------
def corner_array(corners: Iterable[Sequence[int]], d: int) -> np.ndarray:
    """Corner tuples as an ``(m, d)`` int64 array; ``np.fromiter`` over
    the flattened tuples skips ``np.asarray``'s per-tuple inspection."""
    flat = itertools.chain.from_iterable(corners)
    return np.fromiter(flat, np.int64).reshape(-1, d)


def rect_intersection_matrix(
    rows: Sequence[Rect], cols: Sequence[Rect]
) -> np.ndarray:
    """Boolean matrix ``I[i, j] = (rows[i] ∩ cols[j] != ∅)``, from the
    corner arrays of two :class:`Rects` (a list goes through
    :func:`as_rects`).

    This is the intersection matrix ``I_t`` of Find-Reachability
    (Fig. 12, step 2).  Two rectangles meet iff their intervals meet in
    every dimension, and two intervals meet iff each starts no later
    than the other ends.  The rows of a partition share few distinct
    intervals per dimension (32-164 over ~1,100 rows on M3(32) at 1.5%
    faults), so each dimension compares only its distinct row
    intervals with every column interval, packs that ``classes x q``
    table into bytes and gathers one packed row per row.  The
    dimensions' rows are ANDed as bytes and unpacked once.  A class
    table never has more rows than ``I``, so the work is O(d p q / 8)
    plus the tables, with no term in the mesh widths.

    >>> m = Mesh((6, 6))
    >>> rect_intersection_matrix(
    ...     [Rect.from_spec(m, ['*', 0])],
    ...     [Rect.from_spec(m, [0, '*']), Rect.from_spec(m, [3, 4])])
    array([[ True, False]])
    """
    p, q = len(rows), len(cols)
    if not p or not q:
        return np.zeros((p, q), dtype=bool)
    rows, cols = as_rects(rows), as_rects(cols)
    mesh = rows.mesh
    # (d, count) bound vectors.  The column side, which every class is
    # compared against, is C-ordered in the narrowest dtype holding a
    # coordinate; the row side stays int64 for its class keys.
    dtype = np.min_scalar_type(max(mesh.widths))
    rlo, rhi = rows.lo.T, rows.hi.T
    clo = cols.lo.T.astype(dtype, order="C")
    chi = cols.hi.T.astype(dtype, order="C")
    out = np.full((p, (q + 7) // 8), 0xFF, dtype=np.uint8)
    for j, span in enumerate(mesh.widths):
        # Distinct row intervals of dimension j, keyed lo * span + hi.
        key, row_class = np.unique(rlo[j] * span + rhi[j], return_inverse=True)
        lo, hi = np.divmod(key, span)
        meets = np.less_equal.outer(lo.astype(dtype), chi[j])
        meets &= np.greater_equal.outer(hi.astype(dtype), clo[j])
        out &= np.packbits(meets, axis=1).take(row_class, axis=0)
    return np.unpackbits(out, axis=1, count=q).view(bool)


def rects_total_size(rects: Sequence[Rect]) -> int:
    """Sum of rectangle sizes."""
    return sum(r.size for r in rects)


def rects_are_disjoint(rects: Sequence[Rect]) -> bool:
    """Whether the rectangles are pairwise disjoint (O(m^2 d))."""
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            if rects[i].intersects(rects[j]):
                return False
    return True
