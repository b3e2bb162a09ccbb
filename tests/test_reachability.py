"""Tests for the vectorized reachability kernel and matrix products
(repro.core.reachability)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    bool_matmul,
    density,
    find_des_partition,
    find_lamb_set,
    find_reachability,
    find_ses_partition,
    full_reach_matrix,
    is_lamb_set,
    one_round_reachability_matrix,
)
from repro.core.reachability import (
    PackedBoolMatrix,
    packed_bool_matmul,
)
from repro.mesh import FaultSet, Mesh, random_link_faults
from repro.mesh.patterns import (
    clustered_faults,
    dust_and_clusters,
    partial_plane_faults,
)
from repro.routing import (
    FaultGrids,
    KRoundOrdering,
    LineFaultIndex,
    Ordering,
    dor_path,
    one_round_reachable,
    path_is_fault_free,
    repeated,
    xy,
)

from conftest import faulty_meshes_with_ordering
from reachability_oracle import oracle_one_round_matrix, oracle_reachability


def _reps(rects, mesh):
    if not rects:
        return np.empty((0, mesh.d), dtype=np.int64)
    return np.asarray([r.lo for r in rects], dtype=np.int64)


def _patterned_faults(family, d, width):
    """A ``mesh.patterns`` fault set with directed link faults on top."""
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
    return faults


class TestOneRoundMatrix:
    @given(
        st.one_of(
            faulty_meshes_with_ordering(),
            faulty_meshes_with_ordering(max_d=4, max_width=4),
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_route_walking(self, fm, data):
        """The vectorized kernel must agree with explicit route checks
        on independent random source and destination subsets of the
        good nodes, so source-side and destination-side indexing are
        each exercised (d up to 4)."""
        faults, pi = fm
        mesh = faults.mesh
        good = faults.good_nodes()
        if not good:
            return
        subset = st.lists(
            st.sampled_from(range(len(good))), min_size=1, max_size=40,
            unique=True,
        )
        src = [good[i] for i in data.draw(subset, label="sources")]
        dst = [good[i] for i in data.draw(subset, label="dests")]
        idx = LineFaultIndex(faults)
        R = one_round_reachability_matrix(
            idx, pi, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        )
        assert R.shape == (len(src), len(dst))
        for i, v in enumerate(src):
            for j, w in enumerate(dst):
                expected = path_is_fault_free(faults, dor_path(mesh, pi, v, w))
                assert R[i, j] == expected, (v, w)

    @pytest.mark.parametrize("family", ["clustered", "partial_plane", "dust"])
    @pytest.mark.parametrize("d, width", [(2, 40), (3, 16)])
    def test_patterned_faults_match_segment_walk(self, family, d, width):
        """Clustered and planar fault sets put many obstacles and cuts
        on one line, which uniform faults rarely do.  With directed
        link faults on top, each ordering's real SES x DES
        representative matrix must match the per-pair segment walk."""
        faults = _patterned_faults(family, d, width)
        mesh = faults.mesh
        idx = LineFaultIndex(faults)
        for pi in (Ordering(tuple(range(d))), Ordering(tuple(range(d))[::-1])):
            S = _reps(find_ses_partition(faults, pi), mesh)
            D = _reps(find_des_partition(faults, pi), mesh)
            R = one_round_reachability_matrix(idx, pi, S, D)
            want = np.asarray(
                [[one_round_reachable(idx, pi, v, w) for w in D] for v in S]
            )
            assert np.array_equal(R, want), pi

    def test_rejects_faulty_reps(self):
        m = Mesh((4, 4))
        faults = FaultSet(m, [(1, 1)])
        idx = LineFaultIndex(faults)
        bad = np.asarray([(1, 1)])
        good = np.asarray([(0, 0)])
        with pytest.raises(ValueError):
            one_round_reachability_matrix(idx, xy(), bad, good)
        with pytest.raises(ValueError):
            one_round_reachability_matrix(idx, xy(), good, bad)

    def test_empty_inputs(self):
        m = Mesh((4, 4))
        idx = LineFaultIndex(FaultSet(m))
        empty = np.empty((0, 2), dtype=np.int64)
        some = np.asarray([(0, 0)])
        assert one_round_reachability_matrix(idx, xy(), empty, some).shape == (0, 1)
        assert one_round_reachability_matrix(idx, xy(), some, empty).shape == (1, 0)


class TestBoolMatmul:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_numpy(self, seed):
        rng = np.random.default_rng(seed)
        m, n, k = (int(x) for x in rng.integers(1, 12, size=3))
        A = rng.random((m, n)) < rng.uniform(0.02, 0.9)
        B = rng.random((n, k)) < rng.uniform(0.02, 0.9)
        expected = (A @ B) > 0
        assert np.array_equal(bool_matmul(A, B), expected)

    def test_empty(self):
        A = np.zeros((0, 3), dtype=bool)
        B = np.zeros((3, 2), dtype=bool)
        assert bool_matmul(A, B).shape == (0, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bool_matmul(np.ones((2, 3), bool), np.ones((2, 3), bool))

    def test_density(self):
        A = np.asarray([[True, False], [False, False]])
        assert density(A) == 0.25
        assert density(np.zeros((0, 3), bool)) == 0.0


class TestFindReachability:
    @given(faulty_meshes_with_ordering(max_width=6))
    @settings(max_examples=30, deadline=None)
    def test_rk_matches_brute_force(self, fm):
        """R^(k) between reps must equal brute-force k-round
        reachability (k = 2, same ordering per round)."""
        faults, pi = fm
        mesh = faults.mesh
        orderings = repeated(pi, 2)
        ses = find_ses_partition(faults, pi)
        des = find_des_partition(faults, pi)
        index = LineFaultIndex(faults)
        data = find_reachability(
            index, orderings, [ses, ses], [des, des],
            [_reps(ses, mesh)] * 2, [_reps(des, mesh)] * 2,
        )
        full = full_reach_matrix(faults, orderings)
        for i, S in enumerate(ses):
            vi = mesh.index_of(S.lo)
            for j, D in enumerate(des):
                wj = mesh.index_of(D.lo)
                assert data.Rk[i, j] == full[vi, wj], (S.spec(), D.spec())

    @given(faulty_meshes_with_ordering(max_width=5, max_d=2))
    @settings(max_examples=15, deadline=None)
    def test_rk_extends_to_whole_sets(self, fm):
        """Lemma 4.1 + Lemma 5.1: R^(k)(i, j) answers for *every*
        member of S_i x D_j, not just the representatives."""
        faults, pi = fm
        mesh = faults.mesh
        orderings = repeated(pi, 2)
        ses = find_ses_partition(faults, pi)
        des = find_des_partition(faults, pi)
        index = LineFaultIndex(faults)
        data = find_reachability(
            index, orderings, [ses, ses], [des, des],
            [_reps(ses, mesh)] * 2, [_reps(des, mesh)] * 2,
        )
        full = full_reach_matrix(faults, orderings)
        for i, S in enumerate(ses):
            for j, D in enumerate(des):
                for v in S.nodes():
                    for w in D.nodes():
                        assert (
                            full[mesh.index_of(v), mesh.index_of(w)]
                            == data.Rk[i, j]
                        ), (v, w)

    def test_mixed_round_orderings(self):
        m = Mesh((6, 6))
        faults = FaultSet(m, [(2, 1), (4, 3)])
        pis = [Ordering((0, 1)), Ordering((1, 0))]
        orderings = KRoundOrdering(pis)
        parts_s = [find_ses_partition(faults, pi) for pi in pis]
        parts_d = [find_des_partition(faults, pi) for pi in pis]
        index = LineFaultIndex(faults)
        data = find_reachability(
            index, orderings, parts_s, parts_d,
            [_reps(p, m) for p in parts_s], [_reps(p, m) for p in parts_d],
        )
        full = full_reach_matrix(faults, orderings)
        for i, S in enumerate(parts_s[0]):
            for j, D in enumerate(parts_d[-1]):
                assert data.Rk[i, j] == full[m.index_of(S.lo), m.index_of(D.lo)]

    def test_partial_products_are_monotone(self, paper_faults):
        pi = xy()
        orderings = repeated(pi, 3)
        ses = find_ses_partition(paper_faults, pi)
        des = find_des_partition(paper_faults, pi)
        index = LineFaultIndex(paper_faults)
        data = find_reachability(
            index, orderings, [ses] * 3, [des] * 3,
            [_reps(ses, paper_faults.mesh)] * 3,
            [_reps(des, paper_faults.mesh)] * 3,
        )
        assert len(data.partial) == 3
        assert (data.partial[0] <= data.partial[1]).all()
        assert (data.partial[1] <= data.partial[2]).all()
        # Three rounds heal everything in the worked example.
        assert data.partial[2].all()

    def test_stats_present(self, paper_faults):
        pi = xy()
        orderings = repeated(pi, 2)
        ses = find_ses_partition(paper_faults, pi)
        des = find_des_partition(paper_faults, pi)
        index = LineFaultIndex(paper_faults)
        data = find_reachability(
            index, orderings, [ses] * 2, [des] * 2,
            [_reps(ses, paper_faults.mesh)] * 2,
            [_reps(des, paper_faults.mesh)] * 2,
        )
        for key in ("R1_density", "Rk_density", "I1_density", "R1I1_density"):
            assert 0.0 <= data.stats[key] <= 1.0
        (I,) = data.intersection_matrices
        assert isinstance(I, np.ndarray) and I.dtype == np.bool_

    @staticmethod
    def _paper_args(faults):
        pi = xy()
        ses = find_ses_partition(faults, pi)
        des = find_des_partition(faults, pi)
        sr, dr = _reps(ses, faults.mesh), _reps(des, faults.mesh)
        return LineFaultIndex(faults), repeated(pi, 2), [ses] * 2, [des] * 2, sr, dr

    def test_short_ses_reps_rejected(self, paper_faults):
        """Regression: a short reps list used to fail with a bare
        ``IndexError``."""
        index, orderings, ses, des, sr, dr = self._paper_args(paper_faults)
        with pytest.raises(ValueError, match="ses_reps"):
            find_reachability(index, orderings, ses, des, [sr], [dr, dr])

    def test_short_des_reps_rejected(self, paper_faults):
        index, orderings, ses, des, sr, dr = self._paper_args(paper_faults)
        with pytest.raises(ValueError, match="des_reps"):
            find_reachability(index, orderings, ses, des, [sr, sr], [dr])

    def test_reps_must_match_partition_sizes(self, paper_faults):
        """Regression: ``des_reps=[dr, dr[:-2]]`` on the Section 5
        example used to return a 9 x 5 ``R^(k)`` for a 7-set DES
        partition."""
        index, orderings, ses, des, sr, dr = self._paper_args(paper_faults)
        assert len(des[1]) == 7
        with pytest.raises(ValueError, match=r"des_reps\[1\]"):
            find_reachability(index, orderings, ses, des, [sr, sr], [dr, dr[:-2]])
        with pytest.raises(ValueError, match=r"ses_reps\[0\]"):
            find_reachability(index, orderings, ses, des, [sr[1:], sr], [dr, dr])


def _assert_matches_oracle(faults, orderings):
    """``find_reachability`` on the real SES/DES partitions of each
    round must equal the flood oracle bit for bit."""
    mesh = faults.mesh
    ses = [find_ses_partition(faults, pi) for pi in orderings]
    des = [find_des_partition(faults, pi) for pi in orderings]
    sreps = [_reps(p, mesh) for p in ses]
    dreps = [_reps(p, mesh) for p in des]
    data = find_reachability(
        LineFaultIndex(faults), orderings, ses, des, sreps, dreps
    )
    rounds, partial = oracle_reachability(faults, orderings, sreps, dreps)
    assert len(data.round_matrices) == len(data.partial) == orderings.k
    for got, want in zip(data.round_matrices + data.partial, rounds + partial):
        assert np.array_equal(got, want)
    assert np.array_equal(data.Rk, partial[-1])


class TestFloodOracleParity:
    """``round_matrices``, ``partial`` and ``Rk`` against the footnote-7
    flood computation in ``reachability_oracle``, which shares no code
    with the table kernel or the products."""

    @given(faulty_meshes_with_ordering(max_width=6))
    @settings(max_examples=25, deadline=None)
    def test_one_round_matrices_agree(self, fm):
        faults, pi = fm
        good = faults.good_nodes()
        if not good:
            return
        nodes = np.asarray(good, dtype=np.int64)
        fast = one_round_reachability_matrix(LineFaultIndex(faults), pi, nodes, nodes)
        slow = oracle_one_round_matrix(FaultGrids(faults), pi, nodes, nodes)
        assert np.array_equal(fast, slow)

    @given(faulty_meshes_with_ordering(max_width=6), st.integers(2, 3))
    @settings(max_examples=20, deadline=None)
    def test_full_reachability_data_agrees(self, fm, k):
        faults, pi = fm
        _assert_matches_oracle(faults, repeated(pi, k))

    @given(faulty_meshes_with_ordering(max_width=6))
    @settings(max_examples=20, deadline=None)
    def test_mixed_round_orderings(self, fm):
        """Each round routes in the reverse order of the previous one,
        so the rounds have different partitions and representatives."""
        faults, pi = fm
        rev = Ordering(pi.perm[::-1])
        _assert_matches_oracle(faults, KRoundOrdering([pi, rev, pi]))

    @pytest.mark.parametrize("family", ["clustered", "partial_plane", "dust"])
    @pytest.mark.parametrize("d, width", [(2, 40), (3, 16)])
    def test_patterned_faults(self, family, d, width):
        """The ``mesh.patterns`` families with directed link faults on
        top, under uniform and mixed two-round orderings."""
        faults = _patterned_faults(family, d, width)
        pi = Ordering(tuple(range(d)))
        rev = Ordering(pi.perm[::-1])
        _assert_matches_oracle(faults, repeated(pi, 2))
        _assert_matches_oracle(faults, KRoundOrdering([pi, rev]))

    def test_lamb_set_reach_matches_oracle(self):
        mesh = Mesh((10, 10))
        faults = FaultSet(mesh, [(3, 2), (7, 7), (2, 8), (5, 5)])
        orderings = repeated(xy(), 2)
        result = find_lamb_set(faults, orderings)
        sreps = _reps(result.ses_partition, mesh)
        dreps = _reps(result.des_partition, mesh)
        _, partial = oracle_reachability(
            faults, orderings, [sreps] * 2, [dreps] * 2
        )
        assert np.array_equal(result.reach.Rk, partial[-1])
        assert is_lamb_set(faults, orderings, result.lambs)

    def test_oracle_rejects_faulty_rep(self):
        faults = FaultSet(Mesh((4, 4)), [(1, 1)])
        with pytest.raises(ValueError):
            oracle_one_round_matrix(
                FaultGrids(faults), xy(),
                np.asarray([(1, 1)]), np.asarray([(0, 0)]),
            )


class TestPackedBoolMatrix:
    """The packed kernels must be bit-identical to the dense-bool
    oracle (``bool_matmul``) across shapes, densities, and the kernel
    crossover points (gather / transpose-gather / saturating probe)."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matmul_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p, n, q = (int(x) for x in rng.integers(0, 100, size=3))
        da, db = rng.uniform(0.0, 1.0, size=2) ** 2
        A = rng.random((p, n)) < da
        B = rng.random((n, q)) < db
        got = packed_bool_matmul(A, B)
        assert got.shape == (p, q)
        assert np.array_equal(got.unpack(), bool_matmul(A, B))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_pack_unpack_roundtrip_and_elementwise(self, seed):
        rng = np.random.default_rng(seed)
        p, q = (int(x) for x in rng.integers(0, 200, size=2))
        A = rng.random((p, q)) < rng.uniform(0, 1)
        B = rng.random((p, q)) < rng.uniform(0, 1)
        pa, pb = PackedBoolMatrix.pack(A), PackedBoolMatrix.pack(B)
        assert np.array_equal(pa.unpack(), A)
        assert np.array_equal((pa & pb).unpack(), A & B)
        assert np.array_equal((pa | pb).unpack(), A | B)
        assert pa.count_nonzero() == int(np.count_nonzero(A))
        assert np.array_equal(
            pa.row_counts(), np.count_nonzero(A, axis=1)
        )
        if A.size:
            assert density(pa) == density(A)
        assert np.array_equal(pa.transpose().unpack(), A.T)

    def test_saturating_probe_kernel_exact(self):
        # Wide dense left factor with rows that do and do not saturate,
        # forcing both the probe and the fallback full gather.
        rng = np.random.default_rng(3)
        n = 400
        A = rng.random((64, n)) < 0.9
        B = np.zeros((n, 200), dtype=bool)
        B[:, :150] = rng.random((n, 150)) < 0.5  # saturating block
        B[::7, 150:] = True  # sparse tail: rows stay unsaturated
        assert np.array_equal(
            packed_bool_matmul(A, B).unpack(), bool_matmul(A, B)
        )

    def test_transpose_kernel_exact(self):
        # Dense left, very sparse right: the (B^T A^T)^T route.
        rng = np.random.default_rng(4)
        A = rng.random((300, 300)) < 0.6
        B = rng.random((300, 300)) < 0.01
        assert np.array_equal(
            packed_bool_matmul(A, B).unpack(), bool_matmul(A, B)
        )

    def test_accepts_sparse_input(self):
        rng = np.random.default_rng(5)
        A = rng.random((40, 30)) < 0.3
        B = rng.random((30, 20)) < 0.1
        got = packed_bool_matmul(A, sp.csr_matrix(B))
        assert np.array_equal(got.unpack(), bool_matmul(A, B))

    def test_padding_bits_stay_zero(self):
        # 65 columns -> 2 words with 63 padding bits; products and
        # elementwise ops must keep them zero or popcounts drift.
        A = np.ones((3, 65), dtype=bool)
        pa = PackedBoolMatrix.pack(A)
        assert pa.words.shape == (3, 2)
        assert pa.count_nonzero() == 3 * 65
        prod = packed_bool_matmul(A, np.ones((65, 65), dtype=bool))
        assert prod.count_nonzero() == 3 * 65

    def test_shape_and_type_errors(self):
        a = PackedBoolMatrix.pack(np.ones((2, 3), dtype=bool))
        b = PackedBoolMatrix.pack(np.ones((2, 4), dtype=bool))
        with pytest.raises(ValueError):
            a.bitwise_and(b)
        with pytest.raises(ValueError):
            a.matmul(a)  # inner dims 3 vs 2
        with pytest.raises(TypeError):
            a.matmul(np.ones((3, 2), dtype=bool))
        with pytest.raises(TypeError):
            PackedBoolMatrix.pack(np.ones((2, 3), dtype=np.int64))


class TestTypedInputErrors:
    """density, bool_matmul and the one-round kernel reject wrong-typed
    inputs instead of silently coercing (regression: packed matrices used to
    round-trip through an unpack copy, float coordinates were
    truncated)."""

    def test_density_rejects_non_bool_dense(self):
        with pytest.raises(TypeError):
            density(np.ones((2, 2), dtype=np.float64))
        with pytest.raises(TypeError):
            density(np.ones((2, 2), dtype=np.int32))

    def test_density_rejects_sparse(self):
        with pytest.raises(TypeError):
            density(sp.csr_matrix(np.eye(2, dtype=bool)))

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0.3]]),
            np.array([[1]], dtype=np.int64),
            sp.csr_matrix(np.array([[True]])),
        ],
        ids=["float", "int", "csr"],
    )
    def test_bool_matmul_rejects_operand(self, bad):
        """Regression: a float operand such as ``[[0.3]]`` used to pass
        through the float32 product and threshold to ``False``."""
        good = np.array([[True]])
        with pytest.raises(TypeError):
            bool_matmul(bad, good)
        with pytest.raises(TypeError):
            bool_matmul(good, bad)

    def test_density_accepts_packed_without_unpack(self):
        A = np.eye(130, dtype=bool)
        pa = PackedBoolMatrix.pack(A)
        assert density(pa) == density(A)

    def test_one_round_rejects_packed(self):
        idx = LineFaultIndex(FaultSet(Mesh((4, 4))))
        pa = PackedBoolMatrix.pack(np.ones((4, 4), dtype=bool))
        with pytest.raises(TypeError):
            one_round_reachability_matrix(idx, xy(), pa, np.asarray([(0, 0)]))

    def test_one_round_rejects_float(self):
        """Regression: float coordinates used to be truncated, so
        ``(0.9, 3.7)`` was silently read as node ``(0, 3)``."""
        idx = LineFaultIndex(FaultSet(Mesh((4, 4))))
        good = np.asarray([(0, 0)])
        with pytest.raises(TypeError):
            one_round_reachability_matrix(idx, xy(), [[0.9, 3.7]], good)
        with pytest.raises(TypeError):
            one_round_reachability_matrix(idx, xy(), good, [[0.9, 3.7]])

    def test_one_round_rejects_bool(self):
        idx = LineFaultIndex(FaultSet(Mesh((4, 4))))
        good = np.asarray([(0, 0)])
        with pytest.raises(TypeError):
            one_round_reachability_matrix(idx, xy(), np.ones((1, 2), bool), good)

    def test_one_round_accepts_any_int_dtype(self):
        faults = FaultSet(Mesh((4, 4)), [(1, 1)], [((2, 0), (3, 0))])
        idx = LineFaultIndex(faults)
        nodes = np.asarray(faults.good_nodes(), dtype=np.int64)
        want = one_round_reachability_matrix(idx, xy(), nodes, nodes)
        for dtype in (np.uint8, np.int32):
            got = one_round_reachability_matrix(
                idx, xy(), nodes.astype(dtype), nodes.astype(dtype)
            )
            assert np.array_equal(got, want)
        empty = np.empty((0, 2))  # an empty float array carries no coordinate
        assert one_round_reachability_matrix(idx, xy(), empty, nodes).shape == (
            0, nodes.shape[0]
        )


class TestBoolMatmulOverflowRegression:
    """Regression for the int8-overflow bug of the former scipy-sparse
    branch (int8 row sums wrapped once the inner dimension exceeded
    127).  The same row sums now pin the float32 product's exactness
    over large inner dimensions."""

    def test_row_sum_256_sparse_rhs(self):
        A = np.ones((1, 300), dtype=bool)
        B = np.zeros((300, 1), dtype=bool)
        B[:256] = True  # an int8 row sum would wrap to exactly 0
        assert bool_matmul(A, B)[0, 0]

    def test_row_sum_200_both_sparse_path(self):
        # ~3% dense operands; sums in [128, 255] wrapped to negative
        # int8 (also lost by "> 0").
        n = 4000
        A = np.zeros((4, n), dtype=bool)
        B = np.zeros((n, 4), dtype=bool)
        A[0, :200] = True
        B[:200, 0] = True
        out = bool_matmul(A, B)
        assert out[0, 0]
        assert not out[1, 1]

    def test_large_dense_inner_dimension(self):
        rng = np.random.default_rng(0)
        A = rng.random((8, 1000)) < 0.9
        B = rng.random((1000, 8)) < 0.9
        assert np.array_equal(bool_matmul(A, B), (A @ B) > 0)
