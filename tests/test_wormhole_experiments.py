"""Tests for system-level wormhole experiments
(repro.experiments.wormhole_experiments)."""

import numpy as np
import pytest

from repro.core import find_lamb_set
from repro.experiments.wormhole_experiments import (
    CascadeResult,
    injection_rate_sweep,
    lambs_must_route,
)
from repro.mesh import FaultSet, Mesh
from repro.routing import repeated, xy


@pytest.fixture
def small_result():
    mesh = Mesh((8, 8))
    faults = FaultSet(mesh, [(3, 3), (5, 2)])
    return find_lamb_set(faults, repeated(xy(), 2))


class TestInjectionSweep:
    def test_sweep_structure(self, small_result):
        sweep = injection_rate_sweep(
            small_result, rates=(0.2, 1.0), window=100, seed=1
        )
        assert len(sweep.series) == 2
        for s in sweep.series:
            assert s.avg("delivered") > 0
            assert s.avg("avg_latency") > 0
            assert s.avg("throughput") > 0

    def test_deterministic(self, small_result):
        a = injection_rate_sweep(small_result, rates=(0.5,), window=80, seed=2)
        b = injection_rate_sweep(small_result, rates=(0.5,), window=80, seed=2)
        assert a.series[0].values == b.series[0].values

    def test_rejects_degenerate_machine(self):
        mesh = Mesh((2, 2))
        faults = FaultSet(mesh, [(0, 0), (0, 1), (1, 0)])
        result = find_lamb_set(faults, repeated(xy(), 2))
        with pytest.raises(ValueError):
            injection_rate_sweep(result)


class TestLambsMustRoute:
    def test_no_lambs_no_cascade(self):
        mesh = Mesh((8, 8))
        faults = FaultSet(mesh, [(4, 4)])
        c = lambs_must_route(faults, repeated(xy(), 2))
        assert c.base_lambs == 0
        assert c.total_sacrificed == 0
        assert c.cascade_factor == 1.0

    def test_cascade_at_least_base(self):
        mesh = Mesh((12, 12))
        faults = FaultSet(mesh, [(9, 1), (11, 6), (10, 10)])
        c = lambs_must_route(faults, repeated(xy(), 2))
        assert c.base_lambs == 2
        assert c.total_sacrificed >= c.base_lambs
        assert c.rounds[0] == 2

    def test_corner_cascade(self):
        """Faults that pin a corner: inactivating the corner's lambs
        exposes new unreachable nodes, forcing a genuine cascade."""
        mesh = Mesh((8, 8))
        # Diagonal wall cutting off the corner in two steps.
        faults = FaultSet(mesh, [(2, 0), (1, 1), (0, 2)])
        orderings = repeated(xy(), 2)
        c = lambs_must_route(faults, orderings, max_rounds=20)
        assert c.base_lambs >= 1
        # Each inactivation round can only add sacrifices.
        assert c.total_sacrificed == sum(c.rounds)
