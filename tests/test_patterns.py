"""Tests for structured fault patterns (repro.mesh.patterns) and the
link-fault experiment module."""

import numpy as np
import pytest

from repro.experiments.link_faults import link_fault_sweep, link_vs_node_conversion
from repro.mesh import FaultSet, Mesh
from repro.mesh.patterns import (
    clustered_faults,
    dust_and_clusters,
    partial_plane_faults,
    random_walk_cluster,
)


class TestRandomWalkCluster:
    def test_connected_and_sized(self, rng):
        mesh = Mesh((10, 10))
        cluster = random_walk_cluster(mesh, 12, rng)
        assert len(cluster) == 12
        assert len(set(cluster)) == 12
        # Connectivity: BFS from the first node covers the cluster.
        nodes = set(cluster)
        seen = {cluster[0]}
        stack = [cluster[0]]
        while stack:
            u = stack.pop()
            for w in mesh.neighbors(u):
                if w in nodes and w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert seen == nodes

    def test_avoid_respected(self, rng):
        mesh = Mesh((8, 8))
        avoid = [(x, y) for x in range(8) for y in range(4, 8)]
        cluster = random_walk_cluster(mesh, 10, rng, start=(0, 0), avoid=avoid)
        assert not set(cluster) & set(avoid)

    def test_impossible_growth(self, rng):
        mesh = Mesh((4, 4))
        avoid = [v for v in mesh.nodes() if v != (0, 0)]
        with pytest.raises(ValueError):
            random_walk_cluster(mesh, 2, rng, start=(0, 0), avoid=avoid)

    def test_bad_size(self, rng):
        with pytest.raises(ValueError):
            random_walk_cluster(Mesh((4, 4)), 0, rng)

    def test_deterministic(self):
        mesh = Mesh((10, 10))
        a = random_walk_cluster(mesh, 8, np.random.default_rng(5))
        b = random_walk_cluster(mesh, 8, np.random.default_rng(5))
        assert a == b


class TestGenerators:
    def test_clustered_faults_count(self, rng):
        mesh = Mesh((12, 12))
        faults = clustered_faults(mesh, 20, 6, rng)
        assert faults.num_node_faults == 20

    def test_partial_plane(self, rng):
        mesh = Mesh((6, 6, 6))
        faults = partial_plane_faults(mesh, 2, 3, 0.5, rng)
        assert faults.num_node_faults == 18  # half of the 36-node plane
        assert all(v[2] == 3 for v in faults.node_faults)

    def test_partial_plane_zero(self, rng):
        assert partial_plane_faults(Mesh((6, 6)), 0, 2, 0.0, rng).is_empty()

    def test_partial_plane_validation(self, rng):
        mesh = Mesh((6, 6))
        with pytest.raises(ValueError):
            partial_plane_faults(mesh, 2, 0, 0.5, rng)
        with pytest.raises(ValueError):
            partial_plane_faults(mesh, 0, 9, 0.5, rng)
        with pytest.raises(ValueError):
            partial_plane_faults(mesh, 0, 0, 1.5, rng)

    def test_dust_and_clusters(self, rng):
        mesh = Mesh((14, 14))
        faults = dust_and_clusters(mesh, dust=5, clusters=2, cluster_size=4, rng=rng)
        assert faults.num_node_faults == 13


class TestExperimentModules:
    def test_link_fault_sweep_smoke(self):
        r = link_fault_sweep(Mesh.square(2, 10), percents=(1.0, 3.0), trials=2)
        assert len(r.series) == 2
        assert all(v >= 0 for v in r.column("lambs"))

    def test_link_vs_node_conversion_smoke(self):
        r = link_vs_node_conversion(Mesh.square(2, 10), 6, trials=3)
        s = r.series[0]
        # Conversion can never beat native handling in sacrificed
        # nodes (it has strictly fewer usable resources).
        assert s.avg("sacrificed_native") <= s.avg("sacrificed_converted")
