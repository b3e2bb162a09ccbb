"""The sort-once Find-SES-Partition kernel against its recursive oracle
(``partition_oracle``), and a gate that its cost does not grow with the
mesh (Theorem 6.8)."""

import time

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import find_des_partition, find_ses_partition
from repro.experiments.tables import WORKED_EXAMPLE_FAULTS
from repro.mesh import FaultSet, Mesh
from repro.mesh.faults import random_link_faults
from repro.mesh.patterns import (
    clustered_faults,
    dust_and_clusters,
    partial_plane_faults,
)
from repro.routing import Ordering, ascending, xy

from conftest import faulty_meshes_with_ordering
from partition_oracle import oracle_des_partition, oracle_ses_partition

KERNELS = {
    "ses": (find_ses_partition, oracle_ses_partition),
    "des": (find_des_partition, oracle_des_partition),
}


def _bounds(rects):
    return [(r.lo, r.hi) for r in rects]


def assert_matches_oracle(kind, faults, pi):
    fast, oracle = KERNELS[kind]
    assert _bounds(fast(faults, pi)) == _bounds(oracle(faults, pi))


@pytest.mark.parametrize("kind", sorted(KERNELS))
class TestOracleParity:
    """Same rectangles, in the same order, as the recursive kernel."""

    @pytest.mark.parametrize("pi", [xy(), Ordering((1, 0))], ids=str)
    def test_worked_example(self, kind, pi):
        """The Section 5 example, whose xy partitions index Tables 1-2."""
        faults = FaultSet(Mesh((12, 12)), WORKED_EXAMPLE_FAULTS)
        assert_matches_oracle(kind, faults, pi)

    @pytest.mark.parametrize("family", ["clustered", "partial_plane", "dust"])
    @pytest.mark.parametrize("d, width", [(2, 40), (3, 16)])
    def test_patterned_faults_with_links(self, kind, family, d, width):
        mesh = Mesh.square(d, width)
        rng = np.random.default_rng([d, width, len(family)])
        if family == "clustered":
            base = clustered_faults(mesh, 12 * d, 6, rng)
        elif family == "partial_plane":
            base = partial_plane_faults(mesh, d - 1, width // 2, 0.3, rng)
        else:
            base = dust_and_clusters(mesh, 8 * d, 2, 8, rng)
        faults = base.with_links_as_faults(
            random_link_faults(mesh, 10 * d, rng).link_faults
        )
        assert faults.num_link_faults > 0
        for pi in (Ordering(tuple(range(d))), Ordering(tuple(range(d))[::-1])):
            assert_matches_oracle(kind, faults, pi)

    @given(
        faulty_meshes_with_ordering(
            max_d=4, max_width=5, max_node_faults=5, max_link_faults=8
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_random_node_and_link_faults(self, kind, fm):
        """Directed link faults put cuts both inside slabs (forcing a
        recursion) and between them (splitting a run), which uniform
        node faults never do."""
        faults, pi = fm
        assert_matches_oracle(kind, faults, pi)


def _explicit_faults(d, width, count=60, seed=7):
    """``count`` distinct random node faults, drawn without ever
    listing the mesh's nodes."""
    rng = np.random.default_rng([seed, d])
    nodes = set()
    while len(nodes) < count:
        nodes.add(tuple(int(x) for x in rng.integers(0, width, size=d)))
    return FaultSet(Mesh.square(d, width), sorted(nodes))


def _best_partition_seconds(faults, pi, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        ses = find_ses_partition(faults, pi)
        find_des_partition(faults, pi)
        best = min(best, time.perf_counter() - start)
    return best, len(ses)


@pytest.mark.parametrize(
    "d, small, large", [(2, 2**10, 2**20), (3, 2**8, 2**16)]
)
def test_cost_independent_of_mesh_size(d, small, large):
    """Theorem 6.8: at fixed f the partition's cost does not depend on
    N.  A kernel that walks line positions is ~10^2 times slower on the
    larger mesh; the partition itself grows by less than 20 %."""
    pi = ascending(d)
    t_small, n_small = _best_partition_seconds(_explicit_faults(d, small), pi)
    t_large, n_large = _best_partition_seconds(_explicit_faults(d, large), pi)
    assert abs(n_large - n_small) < 0.2 * n_small, (n_small, n_large)
    assert t_large <= 10 * t_small, (t_small, t_large)
