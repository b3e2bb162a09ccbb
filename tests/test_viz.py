"""Tests for ASCII rendering (repro.viz.ascii_art)."""

import pytest

from repro.core import build_reach_index, find_lamb_set, find_ses_partition
from repro.mesh import FaultSet, Mesh
from repro.routing import find_k_round_route, repeated, xy
from repro.viz import render_lambs, render_mesh, render_partition, render_route


@pytest.fixture
def small_faults():
    return FaultSet(Mesh((5, 4)), [(2, 1), (4, 3)])


class TestRenderMesh:
    def test_symbols(self, small_faults):
        text = render_mesh(small_faults, axes=False)
        lines = text.strip().splitlines()
        assert len(lines) == 4  # ny rows
        assert lines[1].split()[2] == "X"  # (2, 1)
        assert lines[3].split()[4] == "X"  # (4, 3)
        assert lines[0].split()[0] == "."

    def test_axes_labels(self, small_faults):
        text = render_mesh(small_faults, axes=True)
        assert text.splitlines()[0].strip().startswith("0 1 2 3 4")

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            render_mesh(FaultSet(Mesh((3, 3, 3))))

    def test_paper_orientation(self, paper_faults):
        """Node (0,0) upper-left, (11,0) upper-right (Section 2.2)."""
        text = render_mesh(paper_faults, axes=False)
        lines = text.strip().splitlines()
        assert lines[1].split()[9] == "X"   # (9, 1)
        assert lines[6].split()[11] == "X"  # (11, 6)
        assert lines[10].split()[10] == "X"  # (10, 10)


class TestRenderPartition:
    def test_labels_cover_good_nodes(self, paper_faults):
        ses = find_ses_partition(paper_faults, xy())
        text = render_partition(paper_faults, ses, axes=False)
        cells = [c for line in text.strip().splitlines() for c in line.split()]
        assert cells.count("X") == 3
        assert " " not in cells
        assert len(set(cells) - {"X"}) == 9  # one label per SES

    def test_representatives_marked(self, paper_faults):
        ses = find_ses_partition(paper_faults, xy())
        text = render_partition(
            paper_faults, ses, show_representatives=True, axes=False
        )
        assert "@" in text  # digit labels mark reps with '@'

    def test_too_many_sets(self):
        mesh = Mesh((2, 2))
        faults = FaultSet(mesh)
        from repro.mesh import Rect

        rects = [Rect.single(mesh, (0, 0))] * 100
        with pytest.raises(ValueError):
            render_partition(faults, rects)


class TestRenderRoute:
    def test_route_markers(self, paper_faults):
        orderings = repeated(xy(), 2)
        paths = find_k_round_route(
            build_reach_index(paper_faults, orderings), (0, 1), (9, 2)
        )
        text = render_route(paper_faults, paths, axes=False)
        assert "S" in text and "D" in text and "X" in text
        assert "1" in text  # round-1 markers

    def test_rejects_empty(self, paper_faults):
        with pytest.raises(ValueError):
            render_route(paper_faults, [])


class TestRenderLambs:
    def test_lamb_markers(self, paper_faults):
        result = find_lamb_set(paper_faults, repeated(xy(), 2))
        text = render_lambs(paper_faults, result.lambs, axes=False)
        cells = [c for line in text.strip().splitlines() for c in line.split()]
        assert cells.count("L") == 2
        assert cells.count("X") == 3

    def test_rejects_faulty_lamb(self, paper_faults):
        with pytest.raises(ValueError):
            render_lambs(paper_faults, [(9, 1)])

    def test_docstring_example(self):
        text = render_mesh(FaultSet(Mesh((3, 3)), [(1, 1)]), axes=False)
        assert text == ". . .\n. X .\n. . .\n"
