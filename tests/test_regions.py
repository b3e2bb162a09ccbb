"""Tests for repro.mesh.regions (rectangle abbreviations)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import find_des_partition, find_ses_partition
from repro.mesh import (
    Mesh,
    Rect,
    random_link_faults,
    random_node_faults,
    rect_intersection_matrix,
    rects_are_disjoint,
    rects_total_size,
)
from repro.mesh.regions import corner_array
from repro.routing import Ordering, reachindex

from conftest import small_meshes


@st.composite
def rects_in(draw, mesh):
    lo, hi = [], []
    for j in range(mesh.d):
        a = draw(st.integers(0, mesh.widths[j] - 1))
        b = draw(st.integers(a, mesh.widths[j] - 1))
        lo.append(a)
        hi.append(b)
    return Rect(mesh, lo, hi)


@st.composite
def mesh_with_rects(draw, count=2):
    mesh = draw(small_meshes())
    return mesh, [draw(rects_in(mesh)) for _ in range(count)]


class TestRectBasics:
    def test_from_spec(self):
        m = Mesh((12, 12))
        r = Rect.from_spec(m, ["*", (2, 5)])
        assert r.lo == (0, 2)
        assert r.hi == (11, 5)
        assert r.size == 48
        assert r.spec() == ("*", (2, 5))

    def test_from_spec_constant(self):
        m = Mesh((12, 12))
        r = Rect.from_spec(m, [7, "*"])
        assert r.size == 12
        assert r.spec() == (7, "*")

    def test_single(self):
        m = Mesh((5, 5))
        r = Rect.single(m, (2, 3))
        assert r.size == 1
        assert list(r.nodes()) == [(2, 3)]

    def test_invalid_bounds(self):
        m = Mesh((5, 5))
        with pytest.raises(ValueError):
            Rect(m, (3, 0), (2, 0))
        with pytest.raises(ValueError):
            Rect(m, (0, 0), (5, 0))
        with pytest.raises(ValueError):
            Rect(m, (0,), (0,))

    @pytest.mark.parametrize(
        "lo",
        [[0.9, 3.7], [True, 0], [np.float64(1.0), 0], [np.bool_(True), 0]],
        ids=["float", "bool", "np.float64", "np.bool_"],
    )
    def test_non_integer_bounds_rejected(self, lo):
        """Bounds used to be truncated: [0.9, 3.7] read as (0, 3)."""
        with pytest.raises(TypeError):
            Rect(Mesh((12, 12)), lo, [5, 5])
        with pytest.raises(TypeError):
            Rect(Mesh((12, 12)), [0, 0], lo)

    def test_numpy_integer_bounds_accepted(self):
        r = Rect(Mesh((12, 12)), np.array([1, 2], dtype=np.uint8), [np.int32(5), 7])
        assert (r.lo, r.hi) == ((1, 2), (5, 7))
        assert all(type(x) is int for x in r.lo + r.hi)

    def test_contains(self):
        m = Mesh((10, 10))
        r = Rect(m, (2, 3), (5, 7))
        assert r.contains((2, 3)) and r.contains((5, 7)) and r.contains((4, 5))
        assert not r.contains((1, 5)) and not r.contains((6, 5))

    @given(mesh_with_rects(count=1))
    @settings(max_examples=30, deadline=None)
    def test_size_matches_enumeration(self, mr):
        _, (r,) = mr
        assert r.size == len(list(r.nodes()))

    @given(mesh_with_rects(count=1))
    @settings(max_examples=20, deadline=None)
    def test_nodes_all_contained(self, mr):
        _, (r,) = mr
        assert all(r.contains(v) for v in r.nodes())


class TestBatch:
    @given(mesh_with_rects(count=5))
    @settings(max_examples=30, deadline=None)
    def test_matches_constructor(self, mr):
        mesh, rects = mr
        lo = np.asarray([r.lo for r in rects], dtype=np.int32)
        hi = np.asarray([r.hi for r in rects], dtype=np.int32)
        got = Rect.batch(mesh, lo, hi)
        assert got == rects
        assert all(type(x) is int for r in got for x in r.lo + r.hi)

    def test_invalid_interval_same_error(self):
        m = Mesh((5, 5))
        lo = np.array([[0, 0], [3, 1]])
        hi = np.array([[4, 4], [2, 1]])
        msg = r"invalid interval \[3, 2\] in dimension 0"
        with pytest.raises(ValueError, match=msg):
            Rect.batch(m, lo, hi)
        with pytest.raises(ValueError, match=r"\[0, 5\] in dimension 1"):
            Rect.batch(m, [[0, 0]], [[0, 5]])
        with pytest.raises(ValueError, match="dimensionality"):
            Rect.batch(m, [[0]], [[0]])

    @pytest.mark.parametrize("dtype", [np.float64, bool])
    def test_non_integer_dtype_rejected(self, dtype):
        m = Mesh((5, 5))
        ok = np.zeros((1, 2), dtype=np.int64)
        bad = np.zeros((1, 2), dtype=dtype)
        with pytest.raises(TypeError):
            Rect.batch(m, bad, ok)
        with pytest.raises(TypeError):
            Rect.batch(m, ok, bad)

    def test_empty(self):
        assert Rect.batch(Mesh((5, 5)), [], []) == []


class TestIntersection:
    @given(mesh_with_rects(count=2))
    @settings(max_examples=40, deadline=None)
    def test_intersects_matches_enumeration(self, mr):
        _, (a, b) = mr
        truth = bool(set(a.nodes()) & set(b.nodes()))
        assert a.intersects(b) == truth
        assert b.intersects(a) == truth

    @given(mesh_with_rects(count=2))
    @settings(max_examples=40, deadline=None)
    def test_intersection_size(self, mr):
        _, (a, b) = mr
        assert a.intersection_size(b) == len(set(a.nodes()) & set(b.nodes()))

    @given(mesh_with_rects(count=2))
    @settings(max_examples=25, deadline=None)
    def test_intersection_rect(self, mr):
        _, (a, b) = mr
        if a.intersects(b):
            inter = a.intersection(b)
            assert set(inter.nodes()) == set(a.nodes()) & set(b.nodes())
        else:
            with pytest.raises(ValueError):
                a.intersection(b)

    def test_intersection_matrix(self):
        m = Mesh((6, 6))
        rows = [Rect.from_spec(m, ["*", 0]), Rect.from_spec(m, [(0, 2), (1, 3)])]
        cols = [Rect.from_spec(m, [0, "*"]), Rect.from_spec(m, [(4, 5), (4, 5)])]
        I = rect_intersection_matrix(rows, cols)
        assert I.shape == (2, 2)
        assert I[0, 0] and not I[0, 1]
        assert I[1, 0] and not I[1, 1]

    def test_intersection_matrix_matches_pairwise(self):
        # Oracle: Rect.intersects on seeded random rects whose intervals
        # are degenerate, full-width or arbitrary, in 2D to 4D, with
        # widths on both sides of the uint8 coordinate boundary, and on
        # the extremes of the kernel's per-dimension row classes.
        rng = np.random.default_rng(13)

        def interval(n):
            kind = rng.integers(3)
            if kind == 0:
                a = int(rng.integers(n))
                return a, a
            if kind == 1:
                return 0, n - 1
            a, b = sorted(int(x) for x in rng.integers(n, size=2))
            return a, b

        def rect(mesh):
            lo, hi = zip(*(interval(n) for n in mesh.widths))
            return Rect(mesh, lo, hi)

        for widths in [(7, 9), (2, 5), (181, 181), (300, 4),
                       (5, 6, 7), (32, 32, 32), (2, 260, 3),
                       (5, 4, 6, 3), (3, 7, 2, 300)]:
            mesh = Mesh(widths)
            for p, q in [(1, 1), (1, 17), (23, 1), (40, 31)]:
                rows = [rect(mesh) for _ in range(p)]
                cols = [rect(mesh) for _ in range(q)]
                _assert_pairwise(rows, cols)
        mesh = Mesh((40, 300, 40))
        cols = [rect(mesh) for _ in range(70)]
        # Every row shares one interval per dimension: one class each.
        _assert_pairwise([rect(mesh)] * 45, cols)
        _assert_pairwise(cols, [rect(mesh)] * 3)
        # Every row has its own interval in every dimension.
        rows = [Rect(mesh, (i, i, 29 - i), (i + 5, 2 * i + 1, 29))
                for i in range(30)]
        for j in range(mesh.d):
            assert len({(r.lo[j], r.hi[j]) for r in rows}) == len(rows)
        _assert_pairwise(rows, cols)

    def test_intersection_matrix_real_partitions(self):
        """A DES x SES partition pair of M3(16), with directed link
        faults on top of node faults, as Find-Reachability pairs them."""
        mesh = Mesh.square(3, 16)
        rng = np.random.default_rng(16)
        faults = random_node_faults(mesh, 40, rng).with_links_as_faults(
            random_link_faults(mesh, 30, rng).link_faults
        )
        pi = Ordering((0, 1, 2))
        des = find_des_partition(faults, pi)
        ses = find_ses_partition(faults, Ordering((2, 1, 0)))
        assert len(des) > 64 and len(ses) > 64
        I = _assert_pairwise(des, ses)
        assert I.any() and not I.all()

    def test_empty_matrix(self):
        assert rect_intersection_matrix([], []).shape == (0, 0)


def _assert_pairwise(rows, cols):
    """``rect_intersection_matrix`` against ``Rect.intersects``."""
    I = rect_intersection_matrix(rows, cols)
    assert I.shape == (len(rows), len(cols)) and I.dtype == bool
    expected = np.array(
        [[r.intersects(c) for c in cols] for r in rows], dtype=bool
    ).reshape(len(rows), len(cols))
    assert np.array_equal(I, expected)
    return I


class TestHelpers:
    def test_total_size(self):
        m = Mesh((4, 4))
        rects = [Rect.from_spec(m, ["*", 0]), Rect.from_spec(m, [0, (1, 2)])]
        assert rects_total_size(rects) == 6

    def test_disjoint(self):
        m = Mesh((4, 4))
        a = Rect.from_spec(m, ["*", 0])
        b = Rect.from_spec(m, ["*", 1])
        assert rects_are_disjoint([a, b])
        assert not rects_are_disjoint([a, a])

    def test_corner_array(self):
        """Corner tuples as ``(m, d)`` int64 rows, the same function
        from ``repro.routing.reachindex``, which imports it."""
        m = Mesh((6, 7, 300))
        rects = [Rect.from_spec(m, ["*", 3, (2, 299)]), Rect.single(m, (5, 6, 0))]
        got = corner_array((r.hi for r in rects), 3)
        assert got.dtype == np.int64
        assert np.array_equal(got, [[5, 3, 299], [5, 6, 0]])
        assert corner_array([], 3).shape == (0, 3)
        assert reachindex.corner_array is corner_array
