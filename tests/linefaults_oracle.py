"""The dict-of-lists line-fault index that ``repro.routing.linefaults``
replaced, kept as the reference its sort-once builder must match array
for array, dtype for dtype.

It files each fault into per-line Python float lists one at a time and
flattens them again on ``flat_lines``; use it on test-sized fault sets
only.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.mesh.faults import FaultSet
from repro.mesh.geometry import Mesh

__all__ = ["FlatLines", "LineFaultIndex", "LineKey"]

LineKey = Tuple[int, ...]

_INF = float("inf")


def _drop(coords: Tuple[int, ...], j: int) -> LineKey:
    return coords[:j] + coords[j + 1 :]


class FlatLines(NamedTuple):
    """One dimension's obstacle-carrying lines as flat integer arrays.

    ``keys`` is the ``(n, d - 1)`` array of line keys in ascending
    (lexicographic) order.  Line ``i``'s up-obstacles are
    ``up[up_off[i]:up_off[i + 1]]``, ascending, and likewise for
    ``down``.  Positions are doubled: a node fault at ``x`` is ``2x``
    and a cut at ``c + 0.5`` is ``2c + 1``.
    """

    keys: np.ndarray
    up: np.ndarray
    up_off: np.ndarray
    down: np.ndarray
    down_off: np.ndarray


def _flatten(arrays: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate per-line obstacle arrays, doubled, plus offsets."""
    off = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([a.size for a in arrays], out=off[1:])
    flat = np.concatenate(arrays) if arrays else np.empty(0)
    return (2 * flat).astype(np.int64), off


class LineFaultIndex:
    """Sorted per-line obstacle arrays for a fault set.

    Parameters
    ----------
    faults:
        The fault set to index.  The index is immutable; build a new
        one if the fault set changes.
    """

    __slots__ = ("faults", "mesh", "_up", "_down", "_flat")

    def __init__(self, faults: FaultSet) -> None:
        self.faults = faults
        self.mesh: Mesh = faults.mesh
        d = self.mesh.d
        up: List[Dict[LineKey, List[float]]] = [dict() for _ in range(d)]
        down: List[Dict[LineKey, List[float]]] = [dict() for _ in range(d)]
        for v in faults.node_faults:
            for j in range(d):
                key = _drop(v, j)
                up[j].setdefault(key, []).append(float(v[j]))
                down[j].setdefault(key, []).append(float(v[j]))
        for (u, w) in faults.link_faults:
            j = next(i for i in range(d) if u[i] != w[i])
            key = _drop(u, j)
            if w[j] == u[j] + 1:
                up[j].setdefault(key, []).append(u[j] + 0.5)
            elif w[j] == u[j] - 1:
                down[j].setdefault(key, []).append(w[j] + 0.5)
            else:  # pragma: no cover - torus wrap links are not indexed
                raise ValueError(
                    f"link <{u}, {w}> wraps around; LineFaultIndex supports meshes only"
                )
        self._up: List[Dict[LineKey, np.ndarray]] = [
            {k: np.asarray(sorted(vals)) for k, vals in up[j].items()}
            for j in range(d)
        ]
        self._down: List[Dict[LineKey, np.ndarray]] = [
            {k: np.asarray(sorted(vals)) for k, vals in down[j].items()}
            for j in range(d)
        ]
        self._flat: List[Optional[FlatLines]] = [None] * d

    # ------------------------------------------------------------------
    def flat_lines(self, j: int) -> FlatLines:
        """The dimension-``j`` faulty lines as :class:`FlatLines`,
        built on first use and then kept (the index is immutable)."""
        flat = self._flat[j]
        if flat is None:
            keys = sorted(set(self._up[j]) | set(self._down[j]))
            empty = np.empty(0)
            up, up_off = _flatten([self._up[j].get(k, empty) for k in keys])
            down, down_off = _flatten([self._down[j].get(k, empty) for k in keys])
            shape = (len(keys), self.mesh.d - 1)
            key_arr = np.asarray(keys, dtype=np.int64).reshape(shape)
            flat = FlatLines(key_arr, up, up_off, down, down_off)
            self._flat[j] = flat
        return flat

    def line_has_obstacle(self, j: int, key: LineKey) -> bool:
        """Whether the dimension-``j`` line ``key`` has any obstacle."""
        return key in self._up[j] or key in self._down[j]

    def num_faulty_lines(self, j: int) -> int:
        """Number of dimension-``j`` lines containing an obstacle."""
        return int(self.flat_lines(j).keys.shape[0])

    def faulty_lines(
        self, j: int
    ) -> Iterator[Tuple[LineKey, np.ndarray, np.ndarray]]:
        """Iterate ``(key, up_obstacles, down_obstacles)`` for every
        dimension-``j`` line containing at least one obstacle."""
        empty = np.empty(0)
        for key in map(tuple, self.flat_lines(j).keys.tolist()):
            yield key, self._up[j].get(key, empty), self._down[j].get(key, empty)

    # ------------------------------------------------------------------
    def segment_blocked(self, j: int, key: LineKey, a: int, b: int) -> bool:
        """Whether traveling along dimension ``j`` on line ``key`` from
        coordinate ``a`` to ``b`` (inclusive of both endpoints for node
        faults) hits an obstacle."""
        if b >= a:
            arr = self._up[j].get(key)
            if arr is None:
                return False
            i = bisect_left(arr, float(a))
            return i < len(arr) and arr[i] <= b
        arr = self._down[j].get(key)
        if arr is None:
            return False
        i = bisect_left(arr, float(b))
        return i < len(arr) and arr[i] <= a

    def blocking_bounds(self, j: int, key: LineKey, a: int) -> Tuple[float, float]:
        """Blocking half-ranges around a *good* position ``a``.

        Returns ``(lo, hi)`` such that a segment from ``a`` to ``w`` on
        this line is blocked iff ``w <= lo`` or ``w >= hi``.  ``lo`` is
        the largest down-obstacle ``<= a`` (``-inf`` if none) and ``hi``
        the smallest up-obstacle ``>= a`` (``+inf`` if none).
        """
        lo, hi = -_INF, _INF
        arr = self._down[j].get(key)
        if arr is not None:
            i = bisect_left(arr, float(a))
            # No node fault equals a (a is good); cuts are half-integers.
            if i > 0:
                lo = float(arr[i - 1])
        arr = self._up[j].get(key)
        if arr is not None:
            i = bisect_left(arr, float(a))
            if i < len(arr):
                hi = float(arr[i])
        return lo, hi
