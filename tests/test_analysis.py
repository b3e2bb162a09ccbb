"""Tests for the analytic models (repro.analysis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    disjointness_holds,
    expected_one_round_reachable_fraction,
    expected_pair_survival,
    expected_route_length,
    route_hits_fault,
    route_survival_probability,
    set_A,
    set_B,
    simulated_one_round_lower_bound,
)
from repro.core import one_round_expected_lamb_lower_bound
from repro.mesh import Mesh, random_node_faults
from repro.routing import LineFaultIndex, ascending, dor_path, one_round_reachable, xyz


class TestSurvivalProbability:
    def test_boundary_cases(self):
        assert route_survival_probability(100, 0, 10) == 1.0
        assert route_survival_probability(100, 5, 0) == 1.0
        assert route_survival_probability(100, 100, 1) == 0.0

    def test_matches_hypergeometric(self):
        from math import comb

        N, r, f = 50, 7, 5
        expected = comb(N - r, f) / comb(N, f)
        assert route_survival_probability(N, r, f) == pytest.approx(expected)

    def test_monotone_in_f_and_r(self):
        probs_f = [route_survival_probability(64, 6, f) for f in range(0, 20)]
        assert probs_f == sorted(probs_f, reverse=True)
        probs_r = [route_survival_probability(64, r, 5) for r in range(0, 20)]
        assert probs_r == sorted(probs_r, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            route_survival_probability(10, 3, 11)
        with pytest.raises(ValueError):
            route_survival_probability(10, 11, 3)

    @given(st.integers(2, 8), st.integers(0, 12))
    @settings(max_examples=20, deadline=None)
    def test_against_monte_carlo(self, n, f):
        """Closed form vs direct fault sampling on a small 2D mesh."""
        mesh = Mesh((n, n))
        route_nodes = 2 * n - 1  # corner-to-corner route
        f = max(0, min(f, mesh.num_nodes - route_nodes - 1))
        v, w = (0, 0), (n - 1, n - 1)
        analytic = expected_pair_survival(mesh, f, v, w)
        rng = np.random.default_rng(42)
        hits = 0
        trials = 400
        for _ in range(trials):
            faults = random_node_faults(mesh, f, rng)
            idx = LineFaultIndex(faults)
            if one_round_reachable(idx, ascending(2), v, w):
                hits += 1
        assert hits / trials == pytest.approx(analytic, abs=0.09)


class TestExpectedFraction:
    def test_no_faults(self):
        assert expected_one_round_reachable_fraction(Mesh((8, 8)), 0) == 1.0

    def test_decreasing_in_f(self):
        mesh = Mesh((10, 10))
        vals = [
            expected_one_round_reachable_fraction(mesh, f, samples=500)
            for f in (0, 5, 15, 30)
        ]
        assert vals == sorted(vals, reverse=True)

    def test_expected_route_length(self):
        # 1D line of width n: 1 + (n^2-1)/(3n).
        mesh = Mesh((9, 2))
        expected = 1.0 + (81 - 1) / 27 + (4 - 1) / 6
        assert expected_route_length(mesh) == pytest.approx(expected)


class TestTheorem31Apparatus:
    def test_set_sizes_property1(self):
        """|A(u)| >= (y0+1) n when y0 < (n-1)/2, etc."""
        n = 9
        for y0 in range(0, 4):  # below half
            u = (2, y0, 5)
            assert len(set_A(n, u)) >= (y0 + 1) * n
            assert len(set_B(n, u)) >= len(set_A(n, u))
        for y0 in range(5, 9):  # above half
            u = (2, y0, 5)
            assert len(set_B(n, u)) >= (n - y0) * n
            assert len(set_A(n, u)) >= len(set_B(n, u))

    def test_disjointness_property2(self):
        n = 9
        assert disjointness_holds(n, (1, 2, 3), (4, 6, 7))
        # Sharing an x or z coordinate may break disjointness of the
        # B (resp. A) sets — the proof's filtering step exists for
        # this reason.
        assert not disjointness_holds(n, (1, 2, 3), (1, 6, 7))

    def test_route_hits_fault_property3(self):
        """Exhaustively: every v in A(u), w in B(u) routes through u."""
        n = 7
        u = (3, 2, 4)
        A, B = set_A(n, u), set_B(n, u)
        mesh = Mesh.square(3, n)
        for v in sorted(A)[::7]:  # subsample for speed
            for w in sorted(B)[::7]:
                assert route_hits_fault(u, v, w)
                # Cross-check against the actual route.
                assert tuple(u) in dor_path(mesh, xyz(), v, w)

    def test_simulated_bound_dominates_closed_form(self):
        """The Monte-Carlo bound is sharper than (or equal to) the
        closed form — the paper reports 5750 vs 2698 at n = f = 32."""
        n = f = 16
        sim = simulated_one_round_lower_bound(n, f, trials=200, seed=1)
        closed = one_round_expected_lamb_lower_bound(n, f)
        assert sim >= closed

    def test_paper_scale_values(self):
        sim = simulated_one_round_lower_bound(32, 32, trials=50, seed=0)
        # Paper: simulation gives ~5750 (vs closed-form 2698).
        assert 4000 <= sim <= 8000


class TestConditionedFraction:
    def test_conditioning_raises_probability(self):
        mesh = Mesh((10, 10))
        base = expected_one_round_reachable_fraction(mesh, 10, samples=800)
        cond = expected_one_round_reachable_fraction(
            mesh, 10, samples=800, condition_endpoints_good=True
        )
        assert cond > base

    def test_conditioning_noop_without_faults(self):
        mesh = Mesh((6, 6))
        assert expected_one_round_reachable_fraction(
            mesh, 0, condition_endpoints_good=True
        ) == 1.0
