"""Tests for repro.mesh.regions (rectangle abbreviations)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    build_reach_index,
    find_des_partition,
    find_lamb_set,
    find_ses_partition,
)
from repro.core.lamb import _rect_weights
from repro.mesh import (
    FaultSet,
    Mesh,
    Rect,
    Rects,
    as_rects,
    random_link_faults,
    random_node_faults,
    rect_intersection_matrix,
    rects_are_disjoint,
    rects_total_size,
)
from repro.mesh.regions import corner_array
from repro.routing import Ordering, reachindex, repeated, xy, xyz

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


def _partition_pair():
    """An SES and a DES partition of M3(16) with node and directed link
    faults, plus the fault set."""
    mesh = Mesh.square(3, 16)
    rng = np.random.default_rng(35)
    faults = random_node_faults(mesh, 30, rng).with_links_as_faults(
        random_link_faults(mesh, 12, rng).link_faults
    )
    pi = Ordering((1, 0, 2))
    return faults, find_ses_partition(faults, pi), find_des_partition(faults, pi)


class TestRects:
    """A partition is a ``Rects``: corner arrays that behave like the
    list of their rectangles wherever callers use that list."""

    def test_list_operations(self):
        _, ses, des = _partition_pair()
        assert isinstance(ses, Rects) and isinstance(des, Rects)
        listed = list(ses)
        assert all(type(r) is Rect for r in listed)
        assert len(ses) == len(listed) > 8 and bool(ses)
        assert ses == listed and listed == ses
        assert ses != listed[:-1] and ses != listed[::-1]
        assert ses[0] == listed[0] and ses[-1] == listed[-1]
        assert ses[np.int64(3)] == listed[3]
        for key in (slice(2, 7), slice(None, None, 3), slice(-4, None)):
            assert ses[key] == listed[key]
            assert isinstance(ses[key], Rects)
        with pytest.raises(IndexError):
            ses[len(ses)]
        assert [r.lo for r in ses] == [r.lo for r in listed]
        assert all(type(x) is int for r in ses for x in r.lo + r.hi)
        both = ses + des
        assert type(both) is list and both == listed + list(des)
        assert ses + list(des) == both
        assert listed[4] in ses and ses.index(listed[4]) == 4

    def test_empty(self):
        mesh = Mesh((4, 4))
        faults = FaultSet(mesh, list(mesh.nodes()))
        ses = find_ses_partition(faults, xy())
        assert isinstance(ses, Rects) and len(ses) == 0 and not ses
        assert ses == [] and list(ses) == [] and ses.lo.shape == (0, 2)

    def test_corners_are_read_only_int64(self):
        """A partition's corners are cached and shared between rounds
        (they are Find-Reachability's representatives), so no caller
        may write them."""
        _, ses, _ = _partition_pair()
        for part in (ses, ses[1:5], ses[::2], ses.take([3, 0, 3])):
            for corners in (part.lo, part.hi):
                assert corners.dtype == np.int64
                assert corners.flags.c_contiguous
                with pytest.raises(ValueError, match="read-only"):
                    corners[0, 0] = 1
        with pytest.raises(AttributeError):
            ses.extra = 1

    def test_batch_copies_its_input(self):
        mesh = Mesh((6, 6))
        lo = np.array([[0, 1], [2, 2]], dtype=np.int64)
        hi = np.array([[1, 5], [3, 2]], dtype=np.int64)
        rects = Rect.batch(mesh, lo, hi)
        lo[0, 0] = 1
        assert lo.flags.writeable and rects[0].lo == (0, 1)

    def test_take(self):
        _, ses, _ = _partition_pair()
        idx = np.array([5, 0, 5, 2])
        assert ses.take(idx) == [ses[i] for i in idx.tolist()]

    def test_as_rects(self):
        _, ses, _ = _partition_pair()
        assert as_rects(ses) is ses
        rebuilt = as_rects(list(ses))
        assert isinstance(rebuilt, Rects) and rebuilt == ses
        assert not rebuilt.hi.flags.writeable
        with pytest.raises(ValueError, match="no mesh"):
            as_rects([])


class TestRectsListParity:
    """Every array consumer gives the same answer for a ``Rects`` and
    for the equal ``list[Rect]``."""

    def test_intersection_matrix(self):
        _, ses, des = _partition_pair()
        want = rect_intersection_matrix(des, ses)
        assert np.array_equal(rect_intersection_matrix(list(des), list(ses)), want)
        assert np.array_equal(rect_intersection_matrix(des, list(ses)), want)
        assert np.array_equal(rect_intersection_matrix(list(des), ses), want)

    def test_rect_weights(self):
        faults, ses, des = _partition_pair()
        good = faults.good_nodes()
        rng = np.random.default_rng(7)
        values = {good[i]: float(rng.random())
                  for i in rng.choice(len(good), size=40, replace=False)}
        for part in (ses, des, ses.take(np.arange(0, len(ses), 3))):
            for vals in (values, {}):
                assert _rect_weights(part, vals) == _rect_weights(list(part), vals)

    def test_locate(self):
        faults, _, _ = _partition_pair()
        index = build_reach_index(faults, repeated(xyz(), 2))
        points = np.array(list(faults.mesh.nodes()), dtype=np.int64)
        for part in (index.ses[0], index.des[-1]):
            got = index.locate(part, points)
            assert np.array_equal(index.locate(list(part), points), got)
            faulty = np.array([faults.node_is_faulty(v) for v in map(tuple, points)])
            assert np.array_equal(got < 0, faulty)


#: Workload name -> (d, width, fault-set tag) of the fig26 benchmark points.
FIG26 = {"fig26_3d": (3, 32, 2603), "fig26_2d": (2, 181, 2602)}


def _fig26_digest(workload, seed, configs=4):
    """sha256 over R^(k), the chosen sets and the lamb set of the first
    ``configs`` seeded fault sets of a fig26 point (1.5 % node faults,
    two rounds of XYZ or XY)."""
    dims, width, tag = FIG26[workload]
    mesh = Mesh.square(dims, width)
    f = max(1, int(round(mesh.num_nodes * 1.5 / 100.0)))
    orderings = repeated(xyz() if dims == 3 else xy(), 2)
    rng = np.random.default_rng([seed, tag])
    digest = hashlib.sha256()
    for _ in range(configs):
        result = find_lamb_set(random_node_faults(mesh, f, rng), orderings)
        Rk = result.reach.Rk
        digest.update(repr(Rk.shape).encode())
        digest.update(np.packbits(Rk).tobytes())
        digest.update(repr((result.chosen_ses, result.chosen_des,
                            sorted(result.lambs))).encode())
    return digest.hexdigest()


class TestFig26Digest:
    """Lamb1's outputs on the benchmark's fault sets, pinned by digests
    taken from the list-of-``Rect`` partitions that ``Rects`` replaced."""

    @pytest.mark.parametrize("workload, seed, want", [
        ("fig26_3d", 1,
         "1dade716d081ec0cb399f00b9b49f9777375323583283b576290beb43e6eba87"),
        ("fig26_3d", 701,
         "2fffadf1d3fcd5c38c5f60ab01123e2999b3c5590ca521448462d918d140b63f"),
        ("fig26_2d", 1,
         "746fd634e89e4a5e7914555895566d264267040aad58da02f64b0ffa823d9e1e"),
        ("fig26_2d", 701,
         "521491f5d8196d678ba1c963d61350a1e59be0662bdddb1bd42ab860629d2278"),
    ])
    def test_outputs_unchanged(self, workload, seed, want):
        assert _fig26_digest(workload, seed) == want
