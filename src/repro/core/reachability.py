"""Representative-level reachability matrices (Section 6.2, Fig. 12).

Implements *Find-Reachability*: the per-round one-round reachability
matrices ``R_t`` between SES and DES representatives, the intersection
matrices ``I_t``, and the k-round boolean product
``R^(k) = R_1 I_1 R_2 ... I_{k-1} R_k`` (Lemma 5.1).

The one-round matrix is computed by a table-and-gather kernel rather
than p*q independent route walks: segment ``t`` of the ``pi``-route
from source ``v`` to destination ``w`` lies on the line determined by
``w``'s already-routed coordinates and ``v``'s not-yet-routed
coordinates.  Per dimension, each of the O(f) obstacle-carrying lines
becomes a pair of integer codes; one sort and a few ``searchsorted``
calls pair the lines with the representatives on one side and find
each pair's blocking window, which is scattered into a small table.
A row of the other side is blocked by whatever its (table row,
position) class is blocked by, so the table is compared once per
distinct class, and one row gather ORs the classes' rows, packed into
uint64 words, into the ``p x q`` result (see DESIGN.md).  There is no
Python loop over faulty lines, and total work is O(d p q) in numpy
inner loops, with no term in the mesh widths.  The intersection
matrices ``I_t`` come from
:func:`repro.mesh.regions.rect_intersection_matrix`, which compares
distinct intervals the same way.

Every matrix is dense bool, and every product is a
:func:`bool_matmul`, which picks its kernel by the density of its left
factor: the paper's bitwise-word trick (OR-gathers over uint64 words)
when at most 1/8 of its cells are set, a float32 BLAS product
thresholded at 0.5 otherwise.  Lamb1 needs only the zeros of
``R^(k)``, which is nearly saturated (Section 6.2).  So when
``R^(t)`` is sparse, Step 3 takes the plain right-first chain, two
gathers; otherwise it multiplies through a strided probe of each
``R_{t+1}`` first, certifies the columns whose probe already reaches
their ceiling, and finishes only the columns left open
(``_chain_step``): either by a residual product or, right-first, by
one AND of packed words per cell that the probe left 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..mesh.regions import Rect, rect_intersection_matrix
from ..obs import get_registry
from ..routing.linefaults import FlatLines, LineFaultIndex, _codes
from ..routing.ordering import KRoundOrdering, Ordering

__all__ = [
    "one_round_reachability_matrix",
    "bool_matmul",
    "density",
    "PackedBoolMatrix",
    "packed_bool_matmul",
    "ReachabilityData",
    "find_reachability",
]


def _int_reps(reps, d: int, name: str) -> np.ndarray:
    """``reps`` as an ``(m, d)`` int64 array; non-integer input is a
    ``TypeError`` rather than a silent truncation."""
    arr = np.asarray(reps)
    if arr.size and arr.dtype.kind not in ("i", "u"):
        raise TypeError(
            f"{name} must be integer node coordinates, got dtype {arr.dtype}"
        )
    return arr.astype(np.int64, copy=False).reshape(-1, d)


def _windows(
    lines: FlatLines, line: np.ndarray, pos: np.ndarray, reverse: bool, top: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Blocking windows ``(lo, hi)`` around doubled positions ``pos`` on
    the faulty lines ``line``; ``-1`` and ``top`` mean open.

    Forward (``pos`` is a source): ``lo`` is the largest down-obstacle
    below ``pos`` and ``hi`` the smallest up-obstacle at or above it.
    Reversed (``pos`` is a destination): ``lo`` is the largest
    up-obstacle at or below and ``hi`` the smallest down-obstacle at or
    above.  Either way the pair is blocked iff the other endpoint's
    doubled position is ``<= lo`` or ``>= hi``.  Each side is one
    ``searchsorted`` over all lines' obstacles, keyed by
    ``line * span + position``.
    """
    span = top + 1
    low, low_off, high, high_off = (
        (lines.up, lines.up_off, lines.down, lines.down_off)
        if reverse
        else (lines.down, lines.down_off, lines.up, lines.up_off)
    )

    def keyed(arr: np.ndarray, off: np.ndarray) -> np.ndarray:
        return np.repeat(np.arange(off.size - 1) * span, np.diff(off)) + arr

    probe = line * span + pos
    i = np.searchsorted(keyed(low, low_off), probe, "right" if reverse else "left")
    k = np.searchsorted(keyed(high, high_off), probe, "left")
    lo = np.where(i > low_off[line], np.concatenate(([-1], low))[i], -1)
    hi = np.where(k < high_off[line + 1], np.concatenate((high, [top]))[k], top)
    return lo, hi


def one_round_reachability_matrix(
    index: LineFaultIndex,
    pi: Ordering,
    sources: np.ndarray,
    dests: np.ndarray,
) -> np.ndarray:
    """Boolean matrix ``R[i, l] = sources[i] can (F, pi)-reach dests[l]``.

    ``sources`` and ``dests`` are ``(p, d)`` / ``(q, d)`` integer arrays
    of *good* nodes (a faulty one raises ``ValueError``); any other
    dtype raises ``TypeError``.

    Segment ``t`` of the route runs along ``j = pi[t]`` on the line
    keyed by the destination's already-routed coordinates and the
    source's not-yet-routed ones, so each faulty line is a pair of
    integer codes (source side, destination side).  Per dimension the
    kernel indexes by the side whose partner has fewer distinct codes:
    it pairs every line with that side's rows (one sort, two
    ``searchsorted``), finds each pair's blocking window (:func:`_windows`),
    and scatters the windows into a ``(U + 1, rows)`` table over the
    ``U`` distinct partner codes (the extra row is the open window for
    "no faulty line").  A partner row is blocked exactly where its
    class, the pair (table row, doubled coordinate ``2 x_j``), is: one
    ``np.unique`` finds the classes, the table is compared once per
    class, and one row gather ORs the classes' rows, packed into uint64
    words (:func:`_pack_words`), into the blocked words.  On M3(32)
    dimensions 0 and 2 of XYZ have a median of 32 classes over ~1,100
    partner rows.  The dimensions indexed by source accumulate the
    transpose, which :func:`_transpose_words` folds in before the one
    unpack to bool.  There is no loop over faulty lines, and no table
    has more rows than the result.
    """
    mesh = index.mesh
    d = mesh.d
    S = _int_reps(sources, d, "sources")
    D = _int_reps(dests, d, "dests")
    p, q = S.shape[0], D.shape[0]
    if p or q:
        faulty = np.fromiter(index.faults.node_fault_indices(), dtype=np.int64)
        hit = np.isin(mesh.indices_of(np.concatenate((S, D))), faulty)
        if hit.any():
            name = "source" if hit[:p].any() else "destination"
            raise ValueError(f"a {name} representative is faulty")
    if p == 0 or q == 0:
        return np.ones((p, q), dtype=bool)
    # Dimensions indexed by destination fill ``blocked``, one row of
    # packed destination bits per source; those indexed by source fill
    # its transpose, so every gather copies whole rows of words.
    blocked = np.zeros((p, (q + _WORD_BITS - 1) // _WORD_BITS), dtype=np.uint64)
    blocked_t = np.zeros((q, (p + _WORD_BITS - 1) // _WORD_BITS), dtype=np.uint64)
    widths = mesh.widths
    dtype = np.int16 if 2 * max(widths) < 2**15 else np.int32
    perm = pi.perm
    for t, j in enumerate(perm):
        lines = index.flat_lines(j)
        if lines.keys.shape[0] == 0:
            continue
        src_dims, dst_dims = perm[t + 1 :], perm[:t]
        keys = np.insert(lines.keys, j, 0, axis=1)  # back to d columns
        line_s, line_d = _codes(keys, src_dims, widths), _codes(keys, dst_dims, widths)
        sides = (
            (S, _codes(S, src_dims, widths), line_s),
            (D, _codes(D, dst_dims, widths), line_d),
        )
        uniq_s, uniq_d = np.unique(line_s), np.unique(line_d)
        by_source = uniq_d.size <= uniq_s.size
        (own, own_codes, own_line), (other, other_codes, other_line) = (
            sides if by_source else sides[::-1]
        )
        uniq, acc = (uniq_d, blocked_t) if by_source else (uniq_s, blocked)
        order = np.argsort(own_codes, kind="stable")
        sorted_codes = own_codes[order]
        start = np.searchsorted(sorted_codes, own_line, "left")
        count = np.searchsorted(sorted_codes, own_line, "right") - start
        if not count.any():
            continue
        line = np.repeat(np.arange(own_line.size), count)
        row = order[_ragged_ranges(start, count)]
        top = 2 * widths[j]
        lo, hi = _windows(lines, line, 2 * own[row, j], not by_source, top)
        U = uniq.size
        lo_table = np.full((U + 1, own.shape[0]), -1, dtype=dtype)
        hi_table = np.full((U + 1, own.shape[0]), top, dtype=dtype)
        table_row = np.searchsorted(uniq, other_line)[line]
        lo_table[table_row, row] = lo
        hi_table[table_row, row] = hi
        c = np.minimum(np.searchsorted(uniq, other_codes), U - 1)
        pick = np.where(uniq[c] == other_codes, c, U)
        # A partner row's blocked row depends only on its (table row,
        # doubled position) class: compare once per class, then gather.
        key, row_class = np.unique(
            pick * (top + 1) + 2 * other[:, j], return_inverse=True
        )
        pick, x = np.divmod(key, top + 1)
        x = x.astype(dtype)[:, None]
        cut = x <= lo_table.take(pick, axis=0)
        cut |= x >= hi_table.take(pick, axis=0)
        acc |= _pack_words(cut).take(row_class, axis=0)
    out = blocked.view(np.uint8)[:, : (q + 7) // 8]
    if blocked_t.any():
        out = out | _transpose_words(blocked_t)[:p]
    return np.unpackbits(~out, axis=1, count=q, bitorder="little").view(bool)


def density(matrix) -> float:
    """Fraction of nonzero entries of a dense bool matrix or a
    :class:`PackedBoolMatrix` (counted in place via popcount).

    Any other input raises ``TypeError``: a float, int or sparse matrix
    reaching this function is a bug upstream, and ``count_nonzero``
    would quietly report something that is not a boolean density.
    """
    size = matrix.shape[0] * matrix.shape[1]
    if size == 0:
        return 0.0
    if isinstance(matrix, PackedBoolMatrix):
        return matrix.count_nonzero() / size
    return float(np.count_nonzero(_dense_bool(matrix, "density"))) / size


def _dense_bool(matrix, name: str) -> np.ndarray:
    """``matrix`` as a dense bool array; sparse or non-bool input is a
    ``TypeError``."""
    if not sp.issparse(matrix):
        matrix = np.asarray(matrix)
        if matrix.dtype == np.bool_:
            return matrix
    raise TypeError(
        f"{name} expects dense boolean matrices, got "
        f"{type(matrix).__name__} of dtype {matrix.dtype}"
    )


#: :func:`bool_matmul` gathers when at most this fraction of its left
#: factor's cells are set.  Every factor of the 2D Fig. 26 chain is
#: below it (R_1 and I_1 at ~0.075 on M2(181)); M3(32)'s R_1 (~0.28) is
#: above it, and there a gather costs several times the BLAS product.
_SPARSE_LEFT = 1 / 8


def _is_sparse(matrix: np.ndarray) -> bool:
    """At most ``_SPARSE_LEFT`` of the cells of ``matrix`` are set."""
    return np.count_nonzero(matrix) <= _SPARSE_LEFT * matrix.size


def bool_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Boolean matrix product of two dense bool matrices.

    The kernel is chosen by the density of ``A`` (``_SPARSE_LEFT``):

    * sparse ``A``: row ``i`` of the product is the OR of the rows of
      ``B`` that row ``i`` of ``A`` selects — the paper's bitwise-word
      trick on uint64 words, at ``nnz(A) * ceil(q / 64)`` word-ORs
      (:func:`_gather_matmul`);
    * any other ``A``: one float32 BLAS product thresholded at 0.5.
      Each entry is a sum of 0/1 terms, which float32 holds exactly
      below 2**24 and which never rounds below 1 once a term is 1, so
      the threshold is exact at any inner dimension.

    Both are exact, so the choice never changes the result.  Sparse or
    non-bool operands raise ``TypeError``.
    """
    A = _dense_bool(A, "bool_matmul")
    B = _dense_bool(B, "bool_matmul")
    if A.shape[1] != B.shape[0]:
        raise ValueError("inner dimensions differ")
    if A.shape[0] == 0 or B.shape[1] == 0 or A.shape[1] == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=bool)
    if _is_sparse(A):
        return _gather_matmul(A, B)
    return (A.astype(np.float32) @ B.astype(np.float32)) > 0.5


def _gather_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B`` as one ``bitwise_or.reduceat`` over the packed rows
    of ``B`` that ``A``'s nonzeros select.

    The nonzeros come in row-major order from the flat index
    (``flatnonzero``, which skips numpy's slow 2-D ``nonzero``), so
    each row of ``A`` is one contiguous segment, bounded by one
    ``searchsorted`` of the row starts.  The gathered words are laid
    out word-major, ``(words, nnz)``, so the reduction runs along
    contiguous memory within each segment.
    """
    p, n = A.shape
    flat = np.flatnonzero(A)
    bounds = np.searchsorted(flat, np.arange(p + 1) * n)
    rows = np.flatnonzero(bounds[1:] > bounds[:-1])
    words = _pack_words(B).T
    out = np.zeros((p, words.shape[0]), dtype=np.uint64)
    if flat.size:
        out[rows] = np.bitwise_or.reduceat(
            words.take(flat % n, axis=1), bounds[rows], axis=1
        ).T
    return np.unpackbits(
        out.view(np.uint8), axis=1, count=B.shape[1], bitorder="little"
    ).view(bool)


#: Step 3's probe multiplies through every ``_PROBE_STRIDE``-th row of
#: ``R_{t+1}``.  On M3(32) at 1.5% faults a 1/8 probe leaves a median
#: 12% of the columns of ``R^(k)`` open.  Rows are no use as the
#: certificate: a few DES columns are reached by only 1-10 SES, so
#: after the same probe almost no row of ``R^(k)`` is final.
_PROBE_STRIDE = 8


def _chain_step(
    acc: np.ndarray, I: np.ndarray, R: np.ndarray
) -> Tuple[np.ndarray, int, str]:
    """One exact factor ``acc · I · R`` of Step 3.

    A sparse ``acc`` (by :func:`bool_matmul`'s ``_SPARSE_LEFT`` rule)
    takes the plain right-first chain ``acc · (I · R)``: both products
    have a sparse left factor whenever ``I`` is sparse too, so both
    are gathers.  (On M2(181) at 1.5% faults, where ``R_1`` and
    ``I_1`` are ~7.5% dense, the probe would leave nearly every column
    open.)  A dense ``acc`` is built from a strided probe and an
    open-column residual.

    The probe ``low = (acc · I[:, H]) · R[H]`` over the rows ``H =
    R[::_PROBE_STRIDE]`` is a lower bound on every entry.  The ceiling
    — the OR of the rows ``R[j]`` whose column ``I[:, j]`` is nonzero —
    is an upper bound on every entry of its column.  A column whose
    probe already equals its ceiling in every row is exact ("closed").
    The open columns ``C`` are finished in the association with fewer
    flops, counted as two dense products: ``(acc · I[:, H']) · R[H']``
    over the rows ``H'`` outside the probe, on all columns (the old
    chain's flops, with no column scatter), or ``acc · Y`` with ``Y =
    I · R[:, C]`` on ``C`` alone.  ``Y`` runs over all of ``R``'s rows,
    since gathering ``I[:, H']`` costs more than the probe rows' share
    of the flops.  The right-first finish then skips the product
    ``acc · Y``: only the cells of ``low[:, C]`` still 0 can change,
    and each is one AND of row ``i`` of ``acc`` with column ``c`` of
    ``Y`` as packed words.  On M3(32) at 1.5% faults that is a median
    of 4.6k cells (at most 23k), against ~160k entries of ``acc · Y``,
    each an inner product of length ~1,100.  Each step is exact, so the
    result is bit-identical to ``bool_matmul(bool_matmul(acc, I), R)``.

    Returns the product, the number of open columns, and the
    association that finished them: ``"none"`` (no open column, or an
    empty product), ``"left"``, ``"right"``, or ``"gather"`` (a sparse
    ``acc``, whose every column counts as open).
    """
    (p, q), (n, r) = acc.shape, R.shape
    if 0 in (p, q, n, r):
        return np.zeros((p, r), dtype=bool), 0, "none"
    if _is_sparse(acc):
        return bool_matmul(acc, bool_matmul(I, R)), r, "gather"
    low = bool_matmul(
        bool_matmul(acc, I[:, ::_PROBE_STRIDE]), R[::_PROBE_STRIDE]
    )
    # A column the probe filled is closed, so the ceiling is needed
    # only for the others: those with a nonempty ceiling are open.
    unfilled = np.flatnonzero(~low.all(axis=0))
    R_unfilled = R.take(unfilled, axis=1)
    ceiling = R_unfilled[I.any(axis=0)].any(axis=0)
    cols = unfilled[ceiling]
    if cols.size == 0:
        return low, 0, "none"
    m = n - len(range(0, n, _PROBE_STRIDE))
    if p * m * (q + r) <= q * cols.size * (n + p):
        rest = np.ones(n, dtype=bool)
        rest[::_PROBE_STRIDE] = False
        residual = bool_matmul(bool_matmul(acc, I[:, rest]), R[rest])
        return low | residual, int(cols.size), "left"
    # Only the cells the probe left 0 can change: each is one AND of
    # row i of acc with column c of I · R[:, C], as packed words.
    Y = bool_matmul(I, R_unfilled[:, ceiling])
    row, col = np.divmod(np.flatnonzero(~low.take(cols, axis=1)), cols.size)
    words = _pack_words(acc).take(row, axis=0)
    words &= _pack_words(Y.T).take(col, axis=0)
    low[row, cols[col]] = words.any(axis=1)
    return low, int(cols.size), "right"


# ----------------------------------------------------------------------
# Bit-packed boolean matrices
# ----------------------------------------------------------------------

_WORD_BITS = 64
# Phase-1 width of the saturating product kernel: OR together the first
# _SATURATE_PROBE set bits of each row and keep only rows that did not
# reach all-ones for the full gather.  R·I·R accumulators saturate to
# density ~1.0 on paper-scale fault sets (Section 6.2), so the probe
# usually finishes the product outright.
_SATURATE_PROBE = 48


def _pack_words(dense: np.ndarray) -> np.ndarray:
    """Pack the rows of a dense bool matrix into little-endian uint64
    words, zero-padded to a whole number of words."""
    dense = np.ascontiguousarray(dense, dtype=bool)
    nrows, ncols = dense.shape
    nbytes = ((ncols + _WORD_BITS - 1) // _WORD_BITS) * (_WORD_BITS // 8)
    words = np.zeros((nrows, nbytes), dtype=np.uint8)
    words[:, : (ncols + 7) // 8] = np.packbits(dense, axis=1, bitorder="little")
    return words.view(np.uint64)


def _transpose_words(words: np.ndarray) -> np.ndarray:
    """The transpose of a bit matrix packed by :func:`_pack_words`:
    row ``i`` of the result packs column ``i`` of ``words``' rows, as
    little-endian bytes (``ceil(rows / 8)`` per row, ``64 * words``
    rows).

    The rows are cut into 8-row bands; each band's bytes become 8x8
    bit blocks, one uint64 per block with row ``r`` in byte ``r``, and
    three masked swaps transpose every block at once (Hacker's
    Delight, "transpose8").  This moves the bits with O(rows * cols /
    64) word operations instead of a strided copy of every bit.
    """
    nrows, nbytes = words.shape[0], words.shape[1] * 8
    bands = (nrows + 7) // 8
    padded = np.zeros((bands * 8, nbytes), dtype=np.uint8)
    padded[:nrows] = words.view(np.uint8)
    blocks = np.ascontiguousarray(
        padded.reshape(bands, 8, nbytes).transpose(0, 2, 1)
    ).view("<u8")
    for shift, mask in (
        (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)
    ):
        s = np.uint64(shift)
        swap = ((blocks >> s) ^ blocks) & np.uint64(mask)
        blocks ^= swap ^ (swap << s)
    rows = blocks.view(np.uint8).reshape(bands, nbytes, 8).transpose(1, 2, 0)
    return np.ascontiguousarray(rows).reshape(nbytes * 8, bands)


# Production code does not call PackedBoolMatrix: Find-Reachability uses
# bool_matmul, whose gather kernel packs through _pack_words (which
# stays).  The class remains only because perfbench/tracer.py's
# LAYER_TARGETS patches PackedBoolMatrix.matmul; delete it once a
# benchmark change drops that entry.
class PackedBoolMatrix:
    """A dense boolean matrix with each row packed into uint64 words.

    64 matrix entries per machine word, so a boolean product becomes
    word-wide OR-gathers.  All operations are bit-identical to their
    dense-bool counterparts (``bool_matmul``; see
    ``tests/test_reachability.py``).

    The padding bits beyond ``shape[1]`` are an invariant zero: ``pack``
    writes them as zero and AND/OR of zeros stays zero, which is what
    makes ``count_nonzero`` a plain popcount.
    """

    __slots__ = ("shape", "words")

    def __init__(self, shape: Tuple[int, int], words: np.ndarray):
        nrows, ncols = shape
        expect = (nrows, (ncols + _WORD_BITS - 1) // _WORD_BITS)
        if words.dtype != np.uint64 or words.shape != expect:
            raise TypeError(
                f"words must be uint64 with shape {expect}, got "
                f"{words.dtype} {words.shape}"
            )
        self.shape = (int(nrows), int(ncols))
        self.words = words

    # -- construction ---------------------------------------------------
    @classmethod
    def pack(cls, dense) -> "PackedBoolMatrix":
        """Pack a dense bool array (or scipy sparse matrix)."""
        if isinstance(dense, PackedBoolMatrix):
            return dense
        if sp.issparse(dense):
            dense = np.asarray(dense.todense(), dtype=bool)
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise TypeError("PackedBoolMatrix packs 2-D matrices")
        if dense.dtype != np.bool_:
            raise TypeError(
                f"PackedBoolMatrix.pack expects bool entries, got "
                f"dtype {dense.dtype}"
            )
        return cls(dense.shape, _pack_words(dense))

    def unpack(self) -> np.ndarray:
        """The dense bool matrix this packs (fresh array)."""
        nrows, ncols = self.shape
        if nrows == 0 or ncols == 0:
            return np.zeros(self.shape, dtype=bool)
        return np.unpackbits(
            self.words.view(np.uint8), axis=1, count=ncols,
            bitorder="little",
        ).astype(bool)

    def transpose(self) -> "PackedBoolMatrix":
        return PackedBoolMatrix.pack(self.unpack().T)

    @property
    def T(self) -> "PackedBoolMatrix":
        return self.transpose()

    # -- elementwise composition ---------------------------------------
    def _check_same_shape(self, other: "PackedBoolMatrix") -> None:
        if not isinstance(other, PackedBoolMatrix):
            raise TypeError(
                f"expected PackedBoolMatrix, got {type(other).__name__}"
            )
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def bitwise_and(self, other: "PackedBoolMatrix") -> "PackedBoolMatrix":
        self._check_same_shape(other)
        return PackedBoolMatrix(self.shape, self.words & other.words)

    def bitwise_or(self, other: "PackedBoolMatrix") -> "PackedBoolMatrix":
        self._check_same_shape(other)
        return PackedBoolMatrix(self.shape, self.words | other.words)

    __and__ = bitwise_and
    __or__ = bitwise_or

    # -- counting -------------------------------------------------------
    def row_counts(self) -> np.ndarray:
        """Per-row popcounts (int64)."""
        if self.words.size == 0:
            return np.zeros(self.shape[0], dtype=np.int64)
        return np.bitwise_count(self.words).sum(axis=1, dtype=np.int64)

    def count_nonzero(self) -> int:
        if self.words.size == 0:
            return 0
        return int(np.bitwise_count(self.words).sum(dtype=np.int64))

    def density(self) -> float:
        return density(self)

    # -- product --------------------------------------------------------
    def matmul(self, other: "PackedBoolMatrix") -> "PackedBoolMatrix":
        """Boolean matrix product, adaptive and exact.

        ``(A @ B)[i, l] = OR_j A[i, j] & B[j, l]`` — i.e. row ``i`` of
        the product is the OR of the packed rows of ``B`` selected by
        row ``i`` of ``A``.  Kernel selection:

        * gather: ``bitwise_or.reduceat`` over ``B``'s rows gathered by
          ``A``'s nonzeros — linear in ``nnz(A)``, wins when the left
          factor is sparse;
        * transpose: ``(Bᵀ Aᵀ)ᵀ`` when the *right* factor is much
          sparser (the R·I case: I is ~1–8% dense while the
          accumulator is not);
        * saturating probe: when the left factor is dense, OR the first
          ``_SATURATE_PROBE`` set bits of each row first and fall back
          to the full gather only for rows that did not reach all-ones
          (R·I·R accumulators saturate, so the probe usually decides
          every row).
        """
        if not isinstance(other, PackedBoolMatrix):
            raise TypeError(
                f"expected PackedBoolMatrix, got {type(other).__name__}"
            )
        p, n = self.shape
        n2, q = other.shape
        if n != n2:
            raise ValueError("inner dimensions differ")
        if p == 0 or q == 0 or n == 0:
            return PackedBoolMatrix.pack(np.zeros((p, q), dtype=bool))
        nnz_self = self.count_nonzero()
        nnz_other = other.count_nonzero()
        if nnz_self == 0 or nnz_other == 0:
            return PackedBoolMatrix.pack(np.zeros((p, q), dtype=bool))
        # Estimated gather cost is (rows gathered) x (words per row).
        cost_direct = nnz_self * other.words.shape[1]
        cost_transposed = nnz_other * ((p + _WORD_BITS - 1) // _WORD_BITS)
        if cost_transposed * 2 < cost_direct:
            # Pay two transposes to gather along the sparse factor.
            return other.transpose()._matmul_gather(self.transpose()).transpose()
        return self._matmul_gather(other)

    def _unpack_rows(self, rows: np.ndarray) -> np.ndarray:
        """Dense bool view of a subset of rows (no full unpack)."""
        return np.unpackbits(
            self.words[rows].view(np.uint8), axis=1, count=self.shape[1],
            bitorder="little",
        ).astype(bool)

    def _matmul_gather(self, other: "PackedBoolMatrix") -> "PackedBoolMatrix":
        p, n = self.shape
        q = other.shape[1]
        Bw = other.words
        out = np.zeros((p, Bw.shape[1]), dtype=np.uint64)
        counts = self.row_counts()
        nz_rows = np.count_nonzero(counts)
        if nz_rows == 0:
            return PackedBoolMatrix((p, q), out)
        mean_nnz = counts.sum() / nz_rows
        if mean_nnz > 2 * _SATURATE_PROBE and q > _WORD_BITS:
            # Saturating probe: OR up to _SATURATE_PROBE set bits of
            # each row, taken from the leading columns only — a full
            # np.nonzero of a dense left factor costs more than the
            # whole product, so scan a narrow head instead (for the
            # near-saturated R·I·R accumulators almost every row has
            # plenty of set bits up front).
            W = min(n, 4 * _SATURATE_PROBE)
            head = np.unpackbits(
                self.words.view(np.uint8), axis=1, count=W,
                bitorder="little",
            ).astype(bool)
            rows, cols = np.nonzero(head)
            head_counts = np.bincount(rows, minlength=p)
            probe_counts = np.minimum(head_counts, _SATURATE_PROBE)
            starts = np.zeros(p, dtype=np.intp)
            np.cumsum(head_counts[:-1], out=starts[1:])
            take = _ragged_ranges(starts, probe_counts)
            nonempty = np.flatnonzero(probe_counts)
            probe_starts = np.zeros(p, dtype=np.intp)
            np.cumsum(probe_counts[:-1], out=probe_starts[1:])
            out[nonempty] = np.bitwise_or.reduceat(
                Bw[cols[take]], probe_starts[nonempty], axis=0
            )
            # A row is final once it reaches the OR of *all* of B's rows
            # (the ceiling): ORing further rows cannot move it.  The
            # ceiling — not all-ones — is the right saturation target,
            # since columns of B that are empty everywhere (unreachable
            # destinations) keep every product row below all-ones.  A
            # row is also final when the probe already covered every
            # one of its set bits.
            ceiling = np.bitwise_or.reduce(Bw, axis=0)
            full = np.all(out == ceiling[None, :], axis=1)
            rest = np.flatnonzero(~full & (counts > probe_counts))
            if rest.size:
                rrows, rcols = np.nonzero(self._unpack_rows(rest))
                rest_counts = np.bincount(rrows, minlength=rest.size)
                sub_starts = np.zeros(rest.size, dtype=np.intp)
                np.cumsum(rest_counts[:-1], out=sub_starts[1:])
                out[rest] = np.bitwise_or.reduceat(Bw[rcols], sub_starts,
                                                   axis=0)
        else:
            rows, cols = np.nonzero(self.unpack())
            row_counts = np.bincount(rows, minlength=p)
            starts = np.zeros(p, dtype=np.intp)
            np.cumsum(row_counts[:-1], out=starts[1:])
            nonempty = np.flatnonzero(row_counts)
            out[nonempty] = np.bitwise_or.reduceat(
                Bw[cols], starts[nonempty], axis=0
            )
        return PackedBoolMatrix((p, q), out)

    __matmul__ = matmul

    def equals(self, other: "PackedBoolMatrix") -> bool:
        return self.shape == other.shape and np.array_equal(
            self.words, other.words
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedBoolMatrix(shape={self.shape}, "
            f"nnz={self.count_nonzero()})"
        )


def _ragged_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i] + counts[i])`` ranges without
    a Python-level loop (the standard repeat/cumsum trick)."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.intp)
    nonzero = counts > 0
    s = starts[nonzero]
    c = counts[nonzero]
    out = np.ones(total, dtype=np.intp)
    ends = np.cumsum(c)
    out[0] = s[0]
    out[ends[:-1]] = s[1:] - (s[:-1] + c[:-1] - 1)
    return np.cumsum(out)


def packed_bool_matmul(A, B) -> PackedBoolMatrix:
    """Boolean matrix product through the packed kernels.

    Accepts any mix of dense bool, scipy sparse, and packed operands;
    returns packed.  Bit-identical to ``bool_matmul`` — pinned by
    property tests.
    """
    return PackedBoolMatrix.pack(A).matmul(PackedBoolMatrix.pack(B))


@dataclass
class ReachabilityData:
    """Output of :func:`find_reachability`.

    Attributes
    ----------
    Rk:
        The ``p_1 x q_k`` k-round reachability matrix ``R^(k)``.
    round_matrices:
        The per-round one-round matrices ``R_t``.
    intersection_matrices:
        The ``I_t`` matrices (``q_t x p_{t+1}``).
    partial:
        ``partial[r]`` is ``R^(r+1)`` — useful for route selection
        (Section 6.2's remark on intermediate matrices).
    stats:
        ``R1_density``, ``I1_density`` (when ``k > 1``) and
        ``Rk_density``, plus Step 3's bookkeeping for each chain step
        ``t = 1 .. k-1``: ``open_columns_t``, the columns of
        ``R^(t+1)`` the probe left open, and ``association_t``, the
        product that finished them (``"none"``, ``"left"`` or
        ``"right"``; see ``_chain_step``).  A sparse ``R^(t)`` skips
        the probe for the right-first chain of gathers:
        ``association_t`` is ``"gather"`` and ``open_columns_t`` is
        every column.  An empty product is ``"none"`` with 0 open.
        Section 6.2's ``R_1 I_1`` density is not here, since Step 3
        never forms ``R_1 I_1``; :func:`repro.experiments.figures.fig25`
        measures it.
    """

    Rk: np.ndarray
    round_matrices: List[np.ndarray]
    intersection_matrices: List[np.ndarray]
    partial: List[np.ndarray]
    stats: Dict[str, Union[float, int, str]] = field(default_factory=dict)


def find_reachability(
    index: LineFaultIndex,
    orderings: KRoundOrdering,
    ses_partitions: Sequence[Sequence[Rect]],
    des_partitions: Sequence[Sequence[Rect]],
    ses_reps: Sequence[np.ndarray],
    des_reps: Sequence[np.ndarray],
) -> ReachabilityData:
    """Algorithm *Find-Reachability* (Fig. 12).

    ``ses_partitions[t]`` / ``des_partitions[t]`` are the partitions
    for round ``t``'s ordering, with representative arrays
    ``ses_reps[t]`` / ``des_reps[t]`` (``(m, d)`` int arrays, one row
    per set).  When the k-round ordering is uniform, pass the same
    objects for every round; identical rounds share one ``R_t``
    computation.  Every matrix is dense bool.  Step 3 builds each
    factor ``R^(t+1) = R^(t) I_t R_{t+1}`` with ``_chain_step``: the
    right-first chain when ``R^(t)`` is sparse, else a strided probe
    through 1/8 of ``R_{t+1}``'s rows, a per-column certificate
    against the ceiling, and a residual product over the columns left
    open; every product is a :func:`bool_matmul`.
    """
    k = orderings.k
    if not (len(ses_partitions) == len(des_partitions) == k):
        raise ValueError(f"need {k} partitions per side")
    for name, reps, parts in (
        ("ses_reps", ses_reps, ses_partitions),
        ("des_reps", des_reps, des_partitions),
    ):
        if len(reps) != k:
            raise ValueError(f"need {k} {name} entries, got {len(reps)}")
        for t in range(k):
            if len(reps[t]) != len(parts[t]):
                raise ValueError(
                    f"{name}[{t}] has {len(reps[t])} representatives for "
                    f"{len(parts[t])} sets"
                )
    # Step 1: R_t (cache by round ordering identity).
    round_matrices: List[np.ndarray] = []
    cache: Dict[Tuple[Ordering, int, int], np.ndarray] = {}
    for t in range(k):
        pi = orderings[t]
        key = (pi, id(ses_reps[t]), id(des_reps[t]))
        if key not in cache:
            cache[key] = one_round_reachability_matrix(
                index, pi, ses_reps[t], des_reps[t]
            )
        round_matrices.append(cache[key])
    # Step 2: I_t = (D_{t,j} intersects S_{t+1,i}).
    intersection_matrices: List[np.ndarray] = []
    icache: Dict[Tuple[int, int], np.ndarray] = {}
    for t in range(k - 1):
        key = (id(des_partitions[t]), id(ses_partitions[t + 1]))
        if key not in icache:
            icache[key] = rect_intersection_matrix(
                des_partitions[t], ses_partitions[t + 1]
            )
        intersection_matrices.append(icache[key])
    # Step 3: the product, keeping partial results.
    acc = round_matrices[0]
    partial: List[np.ndarray] = [acc]
    stats: Dict[str, Union[float, int, str]] = {"R1_density": density(acc)}
    if k > 1:
        stats["I1_density"] = density(intersection_matrices[0])
    for t in range(1, k):
        acc, stats[f"open_columns_{t}"], stats[f"association_{t}"] = (
            _chain_step(acc, intersection_matrices[t - 1], round_matrices[t])
        )
        partial.append(acc)
    stats["Rk_density"] = density(acc)
    get_registry().inc("reachability_runs_total")
    return ReachabilityData(
        Rk=acc,
        round_matrices=round_matrices,
        intersection_matrices=intersection_matrices,
        partial=partial,
        stats=stats,
    )
