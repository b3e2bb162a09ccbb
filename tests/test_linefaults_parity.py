"""The sort-once ``LineFaultIndex`` builder against the dict-of-lists
index it replaced (``linefaults_oracle``): the same ``FlatLines`` arrays,
dtype for dtype, in every dimension, and the same point queries."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.experiments.tables import WORKED_EXAMPLE_FAULTS
from repro.mesh import FaultSet, Mesh
from repro.mesh.faults import random_link_faults
from repro.mesh.patterns import (
    clustered_faults,
    dust_and_clusters,
    partial_plane_faults,
)
from repro.routing import LineFaultIndex

from conftest import faulty_meshes
from linefaults_oracle import LineFaultIndex as OracleIndex

FIELDS = ("keys", "up", "up_off", "down", "down_off")


def assert_matches_oracle(faults):
    fast, oracle = LineFaultIndex(faults), OracleIndex(faults)
    for j in range(faults.mesh.d):
        got, want = fast.flat_lines(j), oracle.flat_lines(j)
        for name in FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, (j, name, a.dtype, b.dtype)
            assert a.shape == b.shape, (j, name, a.shape, b.shape)
            assert np.array_equal(a, b), (j, name)
        assert fast.num_faulty_lines(j) == oracle.num_faulty_lines(j)


def assert_queries_match_oracle(faults, lines_per_dim=6):
    """``segment_blocked`` for every ``(a, b)`` pair and
    ``blocking_bounds`` for every good ``a`` agree on a sample of lines
    per dimension: faulty ones and one clean line."""
    fast, oracle = LineFaultIndex(faults), OracleIndex(faults)
    mesh = faults.mesh
    for j in range(mesh.d):
        n = mesh.widths[j]
        keys = [k for k, _, _ in oracle.faulty_lines(j)][:lines_per_dim]
        keys.append(tuple(0 for _ in range(mesh.d - 1)))
        for key in keys:
            assert fast.line_has_obstacle(j, key) == oracle.line_has_obstacle(j, key)
            for a in range(n):
                for b in range(n):
                    assert bool(fast.segment_blocked(j, key, a, b)) == bool(
                        oracle.segment_blocked(j, key, a, b)
                    ), (j, key, a, b)
                node = key[:j] + (a,) + key[j:]
                if not faults.node_is_faulty(node):
                    assert fast.blocking_bounds(j, key, a) == oracle.blocking_bounds(
                        j, key, a
                    ), (j, key, a)
        for (k1, up1, down1), (k2, up2, down2) in zip(
            fast.faulty_lines(j), oracle.faulty_lines(j)
        ):
            assert k1 == k2
            assert up1.dtype == up2.dtype and np.array_equal(up1, up2)
            assert down1.dtype == down2.dtype and np.array_equal(down1, down2)


def _patterned_faults(family, d, width):
    mesh = Mesh.square(d, width)
    rng = np.random.default_rng([d, width, len(family), 19])
    if family == "clustered":
        base = clustered_faults(mesh, 12 * d, 6, rng)
    elif family == "partial_plane":
        base = partial_plane_faults(mesh, d - 1, width // 2, 0.3, rng)
    else:
        base = dust_and_clusters(mesh, 8 * d, 2, 8, rng)
    return base.with_links_as_faults(random_link_faults(mesh, 10 * d, rng).link_faults)


class TestOracleParity:
    def test_worked_example(self):
        """The Section 5 example's three node faults."""
        faults = FaultSet(Mesh((12, 12)), WORKED_EXAMPLE_FAULTS)
        assert_matches_oracle(faults)
        assert_queries_match_oracle(faults)

    def test_empty_fault_set(self):
        for widths in ((5,), (4, 4), (3, 3, 3)):
            assert_matches_oracle(FaultSet(Mesh(widths)))

    def test_one_dimensional_mesh(self):
        """d = 1: a single line whose key is the empty tuple."""
        m = Mesh((9,))
        faults = FaultSet(m, [(4,)], [((1,), (2,)), ((7,), (6,)), ((6,), (7,))])
        assert_matches_oracle(faults)
        assert_queries_match_oracle(faults)

    @pytest.mark.parametrize("family", ["clustered", "partial_plane", "dust"])
    @pytest.mark.parametrize("d, width", [(2, 40), (3, 16)])
    def test_patterned_faults_with_links(self, family, d, width):
        """Clustered and planar sets stack many obstacles on one line;
        directed link faults add up-only and down-only cuts."""
        faults = _patterned_faults(family, d, width)
        assert faults.num_link_faults > 0
        assert_matches_oracle(faults)
        assert_queries_match_oracle(faults, lines_per_dim=3)

    @given(
        faulty_meshes(max_d=4, max_width=5, max_node_faults=6, max_link_faults=8)
    )
    @settings(max_examples=150, deadline=None)
    def test_random_node_and_link_faults(self, faults):
        assert_matches_oracle(faults)
        assert_queries_match_oracle(faults)
