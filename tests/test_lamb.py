"""Tests for the lamb algorithms (repro.core.lamb)."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    METHODS,
    find_des_partition,
    find_lamb_set,
    find_ses_partition,
    is_lamb_set,
)
from repro.core.lamb import _rect_weights
from repro.mesh import FaultSet, Mesh, random_node_faults
from repro.routing import KRoundOrdering, Ordering, ascending, repeated, xy, xyz

from conftest import faulty_meshes, faulty_meshes_with_ordering


class TestWorkedExample:
    def test_lamb_set(self, paper_faults):
        result = find_lamb_set(paper_faults, repeated(xy(), 2))
        assert sorted(result.lambs) == [(10, 11), (11, 10)]
        assert result.cover_weight == 2.0
        assert result.size == 2
        assert result.num_ses == 9
        assert result.num_des == 7

    def test_result_accessors(self, paper_faults):
        result = find_lamb_set(paper_faults, repeated(xy(), 2))
        assert result.is_lamb((10, 11))
        assert not result.is_lamb((0, 0))
        assert result.is_survivor((0, 0))
        assert not result.is_survivor((9, 1))  # faulty
        assert not result.is_survivor((10, 11))  # lamb
        assert len(result.survivors()) == 144 - 3 - 2
        assert result.additional_damage() == pytest.approx(2 / 3)
        assert set(result.timings) >= {"partition", "reachability", "wvc", "total"}

    def test_all_methods_valid_and_within_guarantees(self, paper_faults):
        orderings = repeated(xy(), 2)
        sizes = {}
        for method in METHODS:
            result = find_lamb_set(paper_faults, orderings, method=method)
            assert is_lamb_set(paper_faults, orderings, result.lambs)
            sizes[method] = result.size
        # Bipartite happens to be optimal on this instance; the
        # general-exact method must be; the local-ratio method is a
        # 2-approximation.
        assert sizes["general-exact"] == 2
        assert sizes["bipartite"] == 2
        assert sizes["general"] <= 2 * sizes["general-exact"]


class TestValidity:
    @given(faulty_meshes_with_ordering(max_width=6))
    @settings(max_examples=30, deadline=None)
    def test_bipartite_output_is_lamb_set(self, fm):
        faults, pi = fm
        orderings = repeated(pi, 2)
        result = find_lamb_set(faults, orderings)
        assert is_lamb_set(faults, orderings, result.lambs)
        # Lambs are never faulty.
        for v in result.lambs:
            assert not faults.node_is_faulty(v)

    @given(faulty_meshes(max_d=2, max_width=6))
    @settings(max_examples=15, deadline=None)
    def test_general_methods_output_lamb_sets(self, faults):
        pi = ascending(faults.mesh.d)
        orderings = repeated(pi, 2)
        for method in ("general", "general-exact"):
            result = find_lamb_set(faults, orderings, method=method)
            assert is_lamb_set(faults, orderings, result.lambs), method

    @given(faulty_meshes_with_ordering(max_width=6, max_node_faults=4))
    @settings(max_examples=15, deadline=None)
    def test_one_round_and_three_rounds(self, fm):
        faults, pi = fm
        for k in (1, 3):
            orderings = repeated(pi, k)
            result = find_lamb_set(faults, orderings)
            assert is_lamb_set(faults, orderings, result.lambs), k

    @given(faulty_meshes(max_d=2, max_width=6, allow_link_faults=False))
    @settings(max_examples=10, deadline=None)
    def test_mixed_round_orderings(self, faults):
        d = faults.mesh.d
        orderings = KRoundOrdering(
            [ascending(d), Ordering(tuple(reversed(range(d))))]
        )
        result = find_lamb_set(faults, orderings)
        assert is_lamb_set(faults, orderings, result.lambs)

    def test_no_faults_no_lambs(self):
        result = find_lamb_set(FaultSet(Mesh((8, 8))), repeated(xy(), 2))
        assert result.size == 0
        assert result.cover_weight == 0.0


class TestApproximationQuality:
    @given(faulty_meshes(max_d=2, max_width=6))
    @settings(max_examples=15, deadline=None)
    def test_lamb1_within_twice_optimal(self, faults):
        """Lemma 6.6: the bipartite method is a 2-approximation.  The
        general-exact method gives the optimum (Theorem 6.9, r = 1)."""
        orderings = repeated(ascending(faults.mesh.d), 2)
        approx = find_lamb_set(faults, orderings, method="bipartite")
        exact = find_lamb_set(faults, orderings, method="general-exact")
        assert exact.size <= approx.size <= 2 * exact.size

    @given(faulty_meshes(max_d=2, max_width=6))
    @settings(max_examples=10, deadline=None)
    def test_general_2approx(self, faults):
        orderings = repeated(ascending(faults.mesh.d), 2)
        approx = find_lamb_set(faults, orderings, method="general")
        exact = find_lamb_set(faults, orderings, method="general-exact")
        assert exact.size <= approx.size <= 2 * exact.size

    def test_k2_beats_k1_on_random_faults(self):
        mesh = Mesh.square(2, 16)
        rng = np.random.default_rng(0)
        faults = random_node_faults(mesh, 12, rng)
        r1 = find_lamb_set(faults, repeated(xy(), 1))
        r2 = find_lamb_set(faults, repeated(xy(), 2))
        assert r2.size <= r1.size


class TestExtensions:
    def test_values_steer_the_cover(self, paper_faults):
        orderings = repeated(xy(), 2)
        plain = find_lamb_set(paper_faults, orderings)
        # Make the default lambs expensive and an alternative cheap.
        # Zero entries force covering {S3 or D5} x {S8 or (D2, D6)}.
        values = {(10, 11): 1.0, (11, 10): 1.0, (9, 0): 0.0}
        weighted = find_lamb_set(paper_faults, orderings, values=values)
        assert is_lamb_set(paper_faults, orderings, weighted.lambs)
        assert weighted.cover_weight <= plain.cover_weight + 1.0

    def test_value_validation(self, paper_faults):
        with pytest.raises(ValueError):
            find_lamb_set(
                paper_faults, repeated(xy(), 2), values={(0, 0): 1.5}
            )
        with pytest.raises(ValueError, match="is not a node of Mesh"):
            find_lamb_set(
                paper_faults, repeated(xy(), 2), values={(50, 50): 0.5}
            )
        with pytest.raises(ValueError, match="is faulty"):
            find_lamb_set(
                paper_faults, repeated(xy(), 2), values={(9, 1): 0.5}
            )

    def test_predetermined_lambs_are_included(self, paper_faults):
        orderings = repeated(xy(), 2)
        pre = [(0, 0), (5, 5)]
        result = find_lamb_set(paper_faults, orderings, predetermined=pre)
        assert set(pre) <= set(result.lambs)
        assert is_lamb_set(paper_faults, orderings, result.lambs)

    def test_predetermined_must_be_good(self, paper_faults):
        with pytest.raises(ValueError):
            find_lamb_set(
                paper_faults, repeated(xy(), 2), predetermined=[(9, 1)]
            )

    def test_predetermined_can_absorb_cover(self, paper_faults):
        """Predetermining the natural lambs makes the cover free."""
        orderings = repeated(xy(), 2)
        result = find_lamb_set(
            paper_faults, orderings, predetermined=[(10, 11), (11, 10)]
        )
        assert result.cover_weight == 0.0
        assert sorted(result.lambs) == [(10, 11), (11, 10)]

    def test_unknown_method(self, paper_faults):
        with pytest.raises(ValueError):
            find_lamb_set(paper_faults, repeated(xy(), 2), method="nope")


def _loop_weights(rects, values):
    """The per-node, per-rectangle loop ``_rect_weights`` replaced."""
    weights = [float(r.size) for r in rects]
    if values:
        for node, val in values.items():
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"value of {node} must lie in [0, 1]")
            for i, r in enumerate(rects):
                if r.contains(node):
                    weights[i] -= 1.0 - val
                    break
    return weights


class TestRectWeights:
    """The vectorized vertex weights against the loop they replaced:
    the same float list, bit for bit."""

    @pytest.mark.parametrize("seed", range(12))
    def test_values_and_predetermined_match_loop(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        mesh = Mesh.square(d, 9 if d == 2 else 6)
        faults = random_node_faults(mesh, 4 * d, rng)
        pi = ascending(d)
        good = faults.good_nodes()
        picks = rng.choice(len(good), size=min(len(good), 30), replace=False)
        # Values as find_lamb_set builds them: user values, then every
        # predetermined lamb at 0.0 (overwriting or appending).
        values = {good[i]: float(rng.random()) for i in picks[:20]}
        for i in picks[15:]:
            values[good[i]] = 0.0
        ses, des = find_ses_partition(faults, pi), find_des_partition(faults, pi)
        cross = [S.intersection(D) for S in ses for D in des if S.intersects(D)]
        for rects in (ses, des, cross, ses[::3]):
            assert _rect_weights(rects, values) == _loop_weights(rects, values)
            assert _rect_weights(rects, {}) == _loop_weights(rects, {})

    def test_empty_rects(self):
        assert _rect_weights([], {(0, 0): 0.5}) == []
        with pytest.raises(ValueError, match=r"value of \(0, 0\)"):
            _rect_weights([], {(1, 1): 0.5, (0, 0): 1.5})

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_out_of_range_value_named(self, paper_faults, bad):
        values = {(0, 0): 0.5, (3, 4): bad, (5, 5): 2.0}
        with pytest.raises(ValueError, match=r"value of \(3, 4\) must lie"):
            _rect_weights(find_ses_partition(paper_faults, xy()), values)


class TestNoCyclicGarbage:
    """A lamb run frees everything it drops by reference counting: it
    leaves no reference cycle for the collector (the partition
    recursion used to leave one per call)."""

    @pytest.mark.parametrize("dims, width, f", [(2, 12, 3), (3, 16, 60)])
    def test_find_lamb_set_leaves_no_cycles(self, dims, width, f):
        mesh = Mesh.square(dims, width)
        faults = random_node_faults(mesh, f, np.random.default_rng(35))
        orderings = repeated(xyz() if dims == 3 else xy(), 2)
        find_lamb_set(faults, orderings)  # first-call caches
        gc.collect()
        gc.disable()
        try:
            result = find_lamb_set(faults, orderings)
            assert gc.collect() == 0
            del result
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestHypercube:
    def test_ecube_on_hypercube(self):
        """Section 7: the algorithms apply directly to M_d(2)."""
        mesh = Mesh.hypercube(4)
        faults = FaultSet(mesh, [(0, 1, 0, 1), (1, 1, 1, 1)])
        orderings = repeated(ascending(4), 2)
        result = find_lamb_set(faults, orderings)
        assert is_lamb_set(faults, orderings, result.lambs)
