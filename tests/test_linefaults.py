"""Tests for the per-line fault index (repro.routing.linefaults)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import FaultSet, Mesh, Torus
from repro.routing import LineFaultIndex

from conftest import faulty_meshes


class TestSegmentBlocked:
    def test_node_fault_blocks_interval(self):
        m = Mesh((10, 10))
        idx = LineFaultIndex(FaultSet(m, [(5, 3)]))
        # Segments along dimension 0 on the line y=3.
        assert idx.segment_blocked(0, (3,), 2, 7)
        assert idx.segment_blocked(0, (3,), 7, 2)
        assert idx.segment_blocked(0, (3,), 5, 5)  # endpoint on fault
        assert not idx.segment_blocked(0, (3,), 0, 4)
        assert not idx.segment_blocked(0, (3,), 6, 9)
        # Other lines are unaffected.
        assert not idx.segment_blocked(0, (4,), 0, 9)

    def test_up_cut_blocks_upward_only(self):
        m = Mesh((10, 10))
        idx = LineFaultIndex(FaultSet(m, (), [((4, 2), (5, 2))]))
        assert idx.segment_blocked(0, (2,), 3, 6)  # crosses 4 -> 5 upward
        assert not idx.segment_blocked(0, (2,), 6, 3)  # downward unaffected
        assert not idx.segment_blocked(0, (2,), 0, 4)  # stops before the cut
        assert not idx.segment_blocked(0, (2,), 5, 9)  # starts after the cut

    def test_down_cut_blocks_downward_only(self):
        m = Mesh((10, 10))
        idx = LineFaultIndex(FaultSet(m, (), [((5, 2), (4, 2))]))
        assert idx.segment_blocked(0, (2,), 6, 3)
        assert not idx.segment_blocked(0, (2,), 3, 6)

    def test_zero_length_segment(self):
        m = Mesh((10, 10))
        idx = LineFaultIndex(FaultSet(m, [(5, 3)]))
        assert not idx.segment_blocked(0, (3,), 4, 4)

    def test_dimension_one_lines(self):
        m = Mesh((10, 10))
        idx = LineFaultIndex(FaultSet(m, [(5, 3)]))
        # Along dimension 1 the line is identified by x=5.
        assert idx.segment_blocked(1, (5,), 0, 9)
        assert not idx.segment_blocked(1, (4,), 0, 9)


class TestBlockingBounds:
    def test_bounds_around_node_fault(self):
        m = Mesh((10, 10))
        idx = LineFaultIndex(FaultSet(m, [(2, 0), (7, 0)]))
        lo, hi = idx.blocking_bounds(0, (0,), 4)
        assert lo == 2.0 and hi == 7.0

    def test_bounds_no_faults(self):
        m = Mesh((10, 10))
        idx = LineFaultIndex(FaultSet(m, [(2, 5)]))
        lo, hi = idx.blocking_bounds(0, (0,), 4)
        assert lo == -math.inf and hi == math.inf

    def test_bounds_with_cuts(self):
        m = Mesh((10, 10))
        faults = FaultSet(m, (), [((3, 0), (4, 0)), ((6, 0), (5, 0))])
        idx = LineFaultIndex(faults)
        lo, hi = idx.blocking_bounds(0, (0,), 5)
        # Downward blocked past the 5->... wait: down cut between 5 and 6
        # blocks moving from 6 down to 5; from position 5 moving down is
        # clear until... the up-cut at 3.5 does not block downward.
        assert lo == -math.inf
        # Upward from 5: blocked by the down cut? No - by nothing until
        # the end of the line; the 3.5 up-cut is below.
        assert hi == math.inf
        lo, hi = idx.blocking_bounds(0, (0,), 3)
        assert hi == 3.5  # cannot move up past the 3->4 cut
        lo, hi = idx.blocking_bounds(0, (0,), 6)
        assert lo == 5.5  # cannot move down past the 6->5 cut

    @given(faulty_meshes(max_d=2))
    @settings(max_examples=40, deadline=None)
    def test_bounds_consistent_with_segment_blocked(self, faults):
        """blocking_bounds(a) must reproduce segment_blocked(a, w) for
        every destination w on the line, for good positions a."""
        idx = LineFaultIndex(faults)
        mesh = faults.mesh
        j = 0
        n = mesh.widths[0]
        for key, _, _ in idx.faulty_lines(j):
            for a in range(n):
                # Reconstruct node coordinates to check goodness.
                node = (a,) + key
                if faults.node_is_faulty(node):
                    continue
                lo, hi = idx.blocking_bounds(j, key, a)
                for w in range(n):
                    expected = idx.segment_blocked(j, key, a, w)
                    assert (w <= lo or w >= hi) == expected, (key, a, w)


class TestIndexStructure:
    def test_faulty_line_counts(self):
        m = Mesh((6, 6, 6))
        faults = FaultSet(m, [(1, 2, 3), (1, 4, 3)])
        idx = LineFaultIndex(faults)
        assert idx.num_faulty_lines(0) == 2  # lines (2,3) and (4,3)
        assert idx.num_faulty_lines(1) == 1  # both faults share line (1,3)
        assert idx.num_faulty_lines(2) == 2

    def test_line_has_obstacle(self):
        m = Mesh((6, 6))
        idx = LineFaultIndex(FaultSet(m, (), [((0, 0), (1, 0))]))
        assert idx.line_has_obstacle(0, (0,))
        assert not idx.line_has_obstacle(0, (1,))
        assert not idx.line_has_obstacle(1, (0,))

    def test_key_outside_the_mesh_has_no_obstacle(self):
        """Line codes are mixed-radix, so the out-of-range key (0, 4)
        has the code of the faulty line (1, 0); it must not match it."""
        idx = LineFaultIndex(FaultSet(Mesh((4, 4, 4)), [(2, 1, 0)]))
        assert idx.line_has_obstacle(0, (1, 0))
        assert idx.segment_blocked(0, (1, 0), 0, 3)
        for key in [(0, 4), (1,), (1, 0, 0), (-1, 4)]:
            assert not idx.line_has_obstacle(0, key)
            assert not idx.segment_blocked(0, key, 0, 3)
            assert idx.blocking_bounds(0, key, 1) == (-math.inf, math.inf)

    def test_empty_index(self):
        idx = LineFaultIndex(FaultSet(Mesh((4, 4))))
        assert idx.num_faulty_lines(0) == 0
        assert not idx.segment_blocked(0, (0,), 0, 3)

    def test_flat_lines_doubles_positions(self):
        """Node faults sit at 2x and cuts at 2c + 1, per line in key
        order, so the kernel's window tests are exact integers."""
        m = Mesh((10, 10))
        faults = FaultSet(
            m, [(5, 3), (2, 7)], [((3, 3), (4, 3)), ((8, 3), (7, 3))]
        )
        flat = LineFaultIndex(faults).flat_lines(0)
        assert flat.keys.tolist() == [[3], [7]]
        assert flat.up.tolist() == [7, 10, 4]  # line 3: cut 3.5, node 5
        assert flat.up_off.tolist() == [0, 2, 3]
        assert flat.down.tolist() == [10, 15, 4]  # line 3: node 5, cut 7.5
        assert flat.down_off.tolist() == [0, 2, 3]
        # Dimension-0 cuts put nothing on dimension-1 lines.
        assert LineFaultIndex(faults).flat_lines(1).keys.tolist() == [[2], [5]]


class TestTorusWrapLinks:
    """The index files each link on the line of the dimension it runs
    along; a wrap link ``<(n - 1, ..), (0, ..)>`` moves ``n - 1`` steps
    in that coordinate, which no mesh cut can encode."""

    @pytest.mark.parametrize(
        "link", [((4, 1), (0, 1)), ((0, 1), (4, 1)), ((2, 0), (2, 4))]
    )
    def test_wrap_link_rejected(self, link):
        faults = FaultSet(Torus((5, 5)), [(1, 1)], [link])
        with pytest.raises(ValueError, match="wraps around"):
            LineFaultIndex(faults)

    def test_error_names_the_first_wrap_link(self):
        faults = FaultSet(
            Torus((5, 5)), (), [((1, 1), (2, 1)), ((4, 3), (0, 3)), ((0, 2), (4, 2))]
        )
        with pytest.raises(ValueError, match=r"<\(4, 3\), \(0, 3\)>"):
            LineFaultIndex(faults)

    def test_torus_without_wrap_links_is_indexed(self):
        faults = FaultSet(Torus((5, 5)), [(2, 2)], [((1, 1), (2, 1))])
        idx = LineFaultIndex(faults)
        assert idx.segment_blocked(0, (1,), 0, 3)
        assert not idx.segment_blocked(0, (1,), 3, 0)
        assert idx.segment_blocked(1, (2,), 0, 4)
