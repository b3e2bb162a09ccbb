"""Per-line fault indexes.

A one-round dimension-ordered route decomposes into ``d`` axis-aligned
*segments*; segment ``t`` travels along dimension ``pi[t]`` on a fixed
*line* (a 1-D slice of the mesh).  A segment is usable iff no obstacle
lies in its closed coordinate interval, where an obstacle is either

- a faulty node on the line (coordinate ``x``), or
- a faulty directed link on the line, encoded as a half-integer *cut*:
  a fault on ``<.., c, ..> -> <.., c+1, ..>`` blocks upward motion
  through ``c + 0.5`` and a fault on the reverse link blocks downward
  motion through the same position.

Each dimension's obstacles are stored once, as :class:`FlatLines`: a
few integer arrays with positions doubled, so a node fault at ``x`` is
``2x`` and a cut at ``c + 0.5`` is ``2c + 1``.  They are built with one
sort per dimension: every obstacle gets its line's mixed-radix code,
one ``lexsort`` orders them by (code, doubled position), and the
per-line offsets are prefix counts at the line starts.  The vectorized
reachability kernel (see :mod:`repro.core.reachability`) reads the
arrays directly; the point queries (:meth:`LineFaultIndex.segment_blocked`,
:meth:`LineFaultIndex.blocking_bounds`) find a line by binary search
over the sorted line codes and an obstacle by ``bisect`` within the
line.  Only lines containing at least one obstacle are stored, so the
index costs O(d * f) space, independent of the mesh size.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..mesh.faults import FaultSet
from ..mesh.geometry import Mesh

__all__ = ["FlatLines", "LineFaultIndex", "LineKey"]

LineKey = Tuple[int, ...]

_INF = float("inf")


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


def _codes(
    coords: np.ndarray, dims: Sequence[int], widths: Sequence[int]
) -> np.ndarray:
    """Mixed-radix code of the ``dims`` columns of ``coords`` (all zero
    when ``dims`` is empty).  Codes ascend with the ``dims`` columns
    read lexicographically."""
    code = np.zeros(coords.shape[0], dtype=np.int64)
    for m in dims:
        code = code * widths[m] + coords[:, m]
    return code


def _link_steps(faults: FaultSet) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The link faults ``<u, w>`` as ``(u, dim, step)``: the tail
    ``(L, d)``, the dimension each link runs along and its ``+1`` /
    ``-1`` direction.  A torus wrap link is a ``ValueError``."""
    d = faults.mesh.d
    links = np.asarray(faults.link_faults, dtype=np.int64).reshape(-1, 2, d)
    u = links[:, 0]
    diff = links[:, 1] - u
    dim = np.argmax(diff != 0, axis=1)
    step = diff[np.arange(diff.shape[0]), dim]
    wraps = np.abs(step) != 1
    if wraps.any():
        u_bad, w_bad = faults.link_faults[int(np.argmax(wraps))]
        raise ValueError(
            f"link <{u_bad}, {w_bad}> wraps around; LineFaultIndex supports meshes only"
        )
    return u, dim, step


def _flat_lines(
    nodes: np.ndarray,
    u: np.ndarray,
    dim: np.ndarray,
    step: np.ndarray,
    j: int,
    widths: Sequence[int],
) -> Tuple[FlatLines, np.ndarray]:
    """Dimension ``j``'s :class:`FlatLines` plus its sorted line codes.

    Node faults are obstacles in both directions; an up link ``c ->
    c + 1`` and a down link ``c + 1 -> c`` both cut at ``2c + 1`` and
    sit on their tail's line.  One ``lexsort`` by (line code, doubled
    position) orders every obstacle; the up and down lists are the two
    masked subsequences, and each offset is the masked count before its
    line's first obstacle.
    """
    others = [m for m in range(len(widths)) if m != j]
    ups, downs = u[(dim == j) & (step > 0)], u[(dim == j) & (step < 0)]
    n, a = nodes.shape[0], ups.shape[0]
    coords = np.concatenate((nodes, ups, downs))
    pos = 2 * coords[:, j]
    pos[n : n + a] += 1  # c -> c + 1 cuts above its tail
    pos[n + a :] -= 1  # c + 1 -> c cuts below its tail
    code = _codes(coords, others, widths)
    order = np.lexsort((pos, code))
    code, pos = code[order], pos[order]
    in_up = order < n + a
    in_down = (order < n) | (order >= n + a)
    m = code.size
    starts = np.ones(m, dtype=bool)
    starts[1:] = code[1:] != code[:-1]
    first = np.flatnonzero(starts)
    bounds = np.append(first, m)
    up_cum = np.zeros(m + 1, dtype=np.int64)
    down_cum = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(in_up, out=up_cum[1:])
    np.cumsum(in_down, out=down_cum[1:])
    keys = coords[order[first]][:, others]
    flat = FlatLines(keys, pos[in_up], up_cum[bounds], pos[in_down], down_cum[bounds])
    return flat, code[first]


class LineFaultIndex:
    """Sorted per-line obstacle arrays for a fault set.

    Parameters
    ----------
    faults:
        The fault set to index.  The index is immutable; build a new
        one if the fault set changes.
    """

    __slots__ = ("faults", "mesh", "_lines", "_line_codes")

    def __init__(self, faults: FaultSet) -> None:
        self.faults = faults
        self.mesh: Mesh = faults.mesh
        widths = self.mesh.widths
        nodes = faults.node_fault_array()
        u, dim, step = _link_steps(faults)
        self._lines: List[FlatLines] = []
        self._line_codes: List[np.ndarray] = []
        for j in range(self.mesh.d):
            flat, codes = _flat_lines(nodes, u, dim, step, j, widths)
            self._lines.append(flat)
            self._line_codes.append(codes)

    # ------------------------------------------------------------------
    def flat_lines(self, j: int) -> FlatLines:
        """The dimension-``j`` faulty lines as :class:`FlatLines`."""
        return self._lines[j]

    def _line(self, j: int, key: LineKey) -> int:
        """Position of line ``key`` in ``flat_lines(j)``, or -1 if it
        carries no obstacle (or is not a line of the mesh)."""
        widths = self.mesh.widths
        others = [m for m in range(self.mesh.d) if m != j]
        if len(key) != len(others):
            return -1
        code = 0
        for m, x in zip(others, key):
            if not 0 <= x < widths[m]:
                return -1
            code = code * widths[m] + int(x)
        codes = self._line_codes[j]
        i = bisect_left(codes, code)
        return i if i < codes.size and codes[i] == code else -1

    def line_has_obstacle(self, j: int, key: LineKey) -> bool:
        """Whether the dimension-``j`` line ``key`` has any obstacle."""
        return self._line(j, key) >= 0

    def num_faulty_lines(self, j: int) -> int:
        """Number of dimension-``j`` lines containing an obstacle."""
        return int(self._lines[j].keys.shape[0])

    def faulty_lines(
        self, j: int
    ) -> Iterator[Tuple[LineKey, np.ndarray, np.ndarray]]:
        """Iterate ``(key, up_obstacles, down_obstacles)`` for every
        dimension-``j`` line containing at least one obstacle, in key
        order; obstacles are float positions (cuts at ``c + 0.5``)."""
        flat = self._lines[j]
        up_off, down_off = flat.up_off.tolist(), flat.down_off.tolist()
        for i, key in enumerate(map(tuple, flat.keys.tolist())):
            yield (
                key,
                flat.up[up_off[i] : up_off[i + 1]] / 2,
                flat.down[down_off[i] : down_off[i + 1]] / 2,
            )

    # ------------------------------------------------------------------
    def segment_blocked(self, j: int, key: LineKey, a: int, b: int) -> bool:
        """Whether traveling along dimension ``j`` on line ``key`` from
        coordinate ``a`` to ``b`` (inclusive of both endpoints for node
        faults) hits an obstacle."""
        i = self._line(j, key)
        if i < 0:
            return False
        flat = self._lines[j]
        if b >= a:
            arr, off, low, high = flat.up, flat.up_off, a, b
        else:
            arr, off, low, high = flat.down, flat.down_off, b, a
        end = int(off[i + 1])
        k = bisect_left(arr, 2 * low, int(off[i]), end)
        return k < end and bool(arr[k] <= 2 * high)

    def blocking_bounds(self, j: int, key: LineKey, a: int) -> Tuple[float, float]:
        """Blocking half-ranges around a *good* position ``a``.

        Returns ``(lo, hi)`` such that a segment from ``a`` to ``w`` on
        this line is blocked iff ``w <= lo`` or ``w >= hi``.  ``lo`` is
        the largest down-obstacle ``<= a`` (``-inf`` if none) and ``hi``
        the smallest up-obstacle ``>= a`` (``+inf`` if none).
        """
        lo, hi = -_INF, _INF
        i = self._line(j, key)
        if i < 0:
            return lo, hi
        flat = self._lines[j]
        start = int(flat.down_off[i])
        k = bisect_left(flat.down, 2 * a, start, int(flat.down_off[i + 1]))
        # No node fault equals a (a is good); cuts are half-integers.
        if k > start:
            lo = float(flat.down[k - 1]) / 2
        end = int(flat.up_off[i + 1])
        k = bisect_left(flat.up, 2 * a, int(flat.up_off[i]), end)
        if k < end:
            hi = float(flat.up[k]) / 2
        return lo, hi
