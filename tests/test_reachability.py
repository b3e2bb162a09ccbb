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
from repro.core import reachability
from repro.core.reachability import (
    _PROBE_STRIDE,
    _SPARSE_LEFT,
    PackedBoolMatrix,
    _chain_step,
    packed_bool_matmul,
)
from repro.mesh import FaultSet, Mesh, random_link_faults, random_node_faults
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

    def test_int32_windows_match_segment_walk(self):
        """A mesh with ``2 * max(width) >= 2**15`` keeps its blocking
        windows in int32 rather than int16.  Node faults with directed
        link faults on top, both orderings, real SES x DES
        representatives, against the per-pair segment walk."""
        mesh = Mesh((20000, 3))
        assert 2 * max(mesh.widths) >= 2**15
        rng = np.random.default_rng(20000)
        faults = random_node_faults(mesh, 12, rng).with_links_as_faults(
            random_link_faults(mesh, 12, rng).link_faults
        )
        idx = LineFaultIndex(faults)
        for pi in (xy(), Ordering((1, 0))):
            S = _reps(find_ses_partition(faults, pi), mesh)
            D = _reps(find_des_partition(faults, pi), mesh)
            R = one_round_reachability_matrix(idx, pi, S, D)
            want = np.asarray(
                [[one_round_reachable(idx, pi, v, w) for w in D] for v in S]
            )
            assert want.any() and not want.all()
            assert np.array_equal(R, want), pi

    @pytest.mark.parametrize("rows", [1, 7, 8, 9, 63, 64, 65, 130])
    @pytest.mark.parametrize("cols", [1, 8, 63, 64, 65, 130])
    def test_transpose_words(self, rows, cols):
        """The kernel ORs its source-indexed dimensions in as packed
        words of the transpose; the bit transpose against numpy's, on
        both sides of the byte and word boundaries."""
        rng = np.random.default_rng(rows * 1000 + cols)
        M = rng.random((rows, cols)) < 0.4
        M[:, -1] = True  # the last column and row reach the padding
        M[-1] = True
        got = reachability._transpose_words(reachability._pack_words(M))
        assert got.dtype == np.uint8
        assert got.shape == (64 * -(-cols // 64), -(-rows // 8))
        bits = np.unpackbits(got, axis=1, count=rows, bitorder="little")
        assert np.array_equal(bits[:cols].view(bool), M.T)
        assert not bits[cols:].any()

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


def _noncontiguous(M, how):
    """A non-contiguous (or freshly gathered) view of ``M``'s columns."""
    if how == "stride":
        return M[:, ::8]
    if how == "mask":
        return M[:, np.arange(M.shape[1]) % 3 != 1]
    return M.take(np.arange(M.shape[1])[::-2], axis=1)


@pytest.fixture
def gather_calls(monkeypatch):
    """A list that grows by one for each call of the gather kernel."""
    calls = []
    real = reachability._gather_matmul
    monkeypatch.setattr(
        reachability, "_gather_matmul",
        lambda *args: calls.append(args) or real(*args),
    )
    return calls


class TestBoolMatmul:
    """Both kernels of ``bool_matmul`` against numpy's own bool product,
    across the word boundaries of the gather (64 columns per word) and
    both sides of its ``_SPARSE_LEFT`` density switch."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_numpy(self, seed):
        rng = np.random.default_rng(seed)
        m, n, k = (int(x) for x in rng.integers(1, 12, size=3))
        A = rng.random((m, n)) < rng.uniform(0.02, 0.9)
        B = rng.random((n, k)) < rng.uniform(0.02, 0.9)
        expected = (A @ B) > 0
        assert np.array_equal(bool_matmul(A, B), expected)

    @pytest.mark.parametrize("q", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("dens", [0.0, 0.02, 0.12, 0.15, 0.6])
    def test_word_boundaries_and_both_kernels(self, q, dens, gather_calls):
        rng = np.random.default_rng(int(q * 100 + dens * 100))
        A = rng.random((37, 70)) < dens
        B = rng.random((70, q)) < 0.3
        A[5] = False  # an all-zero row of A ...
        A[:, 9] = False  # ... a column of A that selects nothing ...
        B[:, 0] = False  # ... and an all-zero column of B
        got = bool_matmul(A, B)
        assert got.dtype == np.bool_ and got.shape == (37, q)
        assert np.array_equal(got, A @ B)
        sparse = np.count_nonzero(A) <= _SPARSE_LEFT * A.size
        assert len(gather_calls) == sparse
        # The gather is exact at any density, not only where it is picked.
        assert np.array_equal(reachability._gather_matmul(A, B), A @ B)

    def test_density_switch_is_inclusive(self):
        """Exactly 1/8 of the cells set is sparse; one more is not."""
        A = np.zeros((8, 8), dtype=bool)
        A[:, 0] = True
        assert reachability._is_sparse(A)
        A[0, 1] = True
        assert not reachability._is_sparse(A)

    @pytest.mark.parametrize("how", ["stride", "mask", "take"])
    @pytest.mark.parametrize("dens", [0.05, 0.5])
    def test_noncontiguous_operands(self, how, dens):
        """Strided, masked and gathered column selections, as Step 3
        passes them (``R[::8]``, ``I[:, rest]``, ``R.take(cols, 1)``)."""
        rng = np.random.default_rng(11)
        A = _noncontiguous(rng.random((40, 520)) < dens, how)
        A_dense = np.array(A)
        B = _noncontiguous(rng.random((A.shape[1], 300)) < 0.3, how)
        B_dense = np.array(B)
        want = A_dense @ B_dense
        assert np.array_equal(bool_matmul(A, B), want)
        assert np.array_equal(bool_matmul(A_dense, B), want)
        assert np.array_equal(bool_matmul(A, B_dense), want)
        assert np.array_equal(bool_matmul(B.T, A.T), want.T)

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
        for key in ("R1_density", "Rk_density", "I1_density"):
            assert 0.0 <= data.stats[key] <= 1.0
        assert "R1I1_density" not in data.stats
        assert 0 <= data.stats["open_columns_1"] <= data.Rk.shape[1]
        assert data.stats["association_1"] in ("none", "left", "right", "gather")
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
    return data


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

    @pytest.mark.parametrize("k", [2, 3])
    def test_sparse_first_factor(self, k):
        """Dense 2D faults leave ``R_1`` below the gather's density
        switch, so the first chain step is the gather chain; with
        ``k = 3`` the second step's ``R^(2)`` is dense and takes the
        probe."""
        mesh = Mesh((48, 48))
        faults = random_node_faults(mesh, 100, np.random.default_rng(5))
        data = _assert_matches_oracle(faults, repeated(xy(), k))
        assert data.stats["association_1"] == "gather"
        if k == 3:
            assert data.stats["association_2"] in ("none", "left", "right")

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


def _plain_chain(acc, I, R):
    """Step 3's factor as two of numpy's own bool products, which share
    no code with ``bool_matmul``: the reference ``_chain_step`` must
    match bit for bit."""
    return (acc @ I) @ R


def _assert_step_matches_chain(acc, I, R):
    got, open_columns, association = _chain_step(acc, I, R)
    assert got.dtype == np.bool_
    assert np.array_equal(got, _plain_chain(acc, I, R))
    assert 0 <= open_columns <= R.shape[1]
    assert (association == "none") == (open_columns == 0)
    if association == "gather":
        assert open_columns == R.shape[1]
    return open_columns, association


def _assert_dense_step(acc, I, R):
    """``_assert_step_matches_chain`` for a dense ``acc``, which must
    take the probe path."""
    assert np.count_nonzero(acc) > _SPARSE_LEFT * acc.size
    open_columns, association = _assert_step_matches_chain(acc, I, R)
    assert association in ("none", "left", "right")
    return open_columns, association


def _open_cells_case(p, q, seed):
    """A dense ``p x q`` ``acc`` whose probe closes every column of
    ``R`` but a few hard ones.  Hard column ``h`` is supported only by
    a row of ``R`` outside the probe, which only inner index
    ``support[h]`` reaches (indices on and around ``acc``'s 64-bit word
    boundaries), so column ``h`` of the product is
    ``acc[:, support[h]]``; rows 0 and 1 hold 0 and 1 there."""
    rng = np.random.default_rng(seed)
    n, r = 40, 24
    inner = sorted({0, 62, 63, 64, 65, 127, 128, q - 1} & set(range(q)))
    rows = [s for s in range(n) if s % _PROBE_STRIDE][: len(inner)]
    hard = [2 * k + 1 for k in range(len(inner))]
    acc = rng.random((p, q)) < 0.6
    I = np.zeros((q, n), dtype=bool)
    I[:, 0] = True  # every inner index reaches probe row 0 ...
    R = np.zeros((n, r), dtype=bool)
    R[0] = True  # ... which fills every column but the hard ones
    R[:, hard] = False
    for j, s, h in zip(inner, rows, hard):
        I[j, s] = R[s, h] = True
        acc[0, j], acc[1, j] = False, True
    return acc, I, R, dict(zip(hard, inner))


class TestChainStep:
    """``_chain_step`` (Step 3's probe, column certificate and residual)
    against the plain two-product chain, one test per branch."""

    def test_every_column_closed_by_probe(self):
        rng = np.random.default_rng(1)
        acc = np.ones((30, 20), dtype=bool)
        I = rng.random((20, 50)) < 0.2
        I[0, 0] = True  # probe row 0 is reachable ...
        R = rng.random((50, 40)) < 0.3
        R[0] = True  # ... and fills every column
        assert _assert_dense_step(acc, I, R) == (0, "none")

    def test_few_open_columns_finish_right_first(self):
        rng = np.random.default_rng(2)
        acc = rng.random((96, 96)) < 0.9
        I = rng.random((96, 96)) < 0.3
        R = rng.random((96, 96)) < 0.5
        # A hard column: its only supporting row is outside the probe.
        R[:, 5] = False
        R[3, 5] = True
        I[0, 3] = True
        open_columns, association = _assert_dense_step(acc, I, R)
        assert association == "right"
        assert 1 <= open_columns <= 4

    def test_all_columns_open_finish_left_first(self):
        rng = np.random.default_rng(3)
        acc = rng.random((4, 40)) < 0.5
        I = np.ones((40, 40), dtype=bool)
        R = rng.random((40, 40)) < 0.3
        R[::_PROBE_STRIDE] = False  # the probe reaches nothing
        R[1] = True  # every column has a support outside the probe
        acc[:, 0] = True  # every row reaches every inner row
        assert _assert_dense_step(acc, I, R) == (40, "left")

    @pytest.mark.parametrize("n", range(1, _PROBE_STRIDE + 1))
    def test_r_with_at_most_stride_rows(self, n):
        """With n <= 8 rows the probe is R's first row alone (all of R
        when n = 1)."""
        rng = np.random.default_rng(n)
        acc = rng.random((12, 9)) < 0.4
        I = rng.random((9, n)) < 0.3
        R = rng.random((n, 11)) < 0.4
        _assert_dense_step(acc, I, R)

    def test_ceiling_zero_columns(self):
        """A DES no SES reaches: an all-zero column of R, and a column
        supported only by a row that no column of I reaches."""
        rng = np.random.default_rng(4)
        acc = rng.random((20, 16)) < 0.5
        I = rng.random((16, 24)) < 0.3
        R = rng.random((24, 18)) < 0.4
        R[:, 2] = False
        I[:, 5] = False
        R[:, 7] = False
        R[5, 7] = True
        got, _, _ = _chain_step(acc, I, R)
        assert not got[:, [2, 7]].any()
        _assert_dense_step(acc, I, R)

    def test_all_zero_intersection(self):
        rng = np.random.default_rng(5)
        acc = rng.random((10, 12)) < 0.6
        I = np.zeros((12, 20), dtype=bool)
        R = rng.random((20, 14)) < 0.6
        assert _assert_dense_step(acc, I, R) == (0, "none")
        assert not _chain_step(acc, I, R)[0].any()

    @pytest.mark.parametrize("p", [63, 64, 65, 130])
    @pytest.mark.parametrize("q", [63, 64, 65, 130])
    def test_open_cells_across_word_boundaries(self, p, q):
        """The ``"right"`` finish ANDs row ``i`` of ``acc`` with column
        ``c`` of ``I · R[:, C]`` as packed words, for every cell the
        probe left 0.  Each hard column here is decided by one inner
        index on or next to a word boundary of ``acc``'s rows, and row
        0 holds a true zero of the product next to a cell the finish
        sets in row 1."""
        acc, I, R, support = _open_cells_case(p, q, seed=p * 1000 + q)
        assert _assert_dense_step(acc, I, R) == (len(support), "right")
        got = _chain_step(acc, I, R)[0]
        for h, j in support.items():
            assert np.array_equal(got[:, h], acc[:, j])
            assert not got[0, h] and got[1, h]

    def test_right_finish_multiplies_nothing_by_acc(self, monkeypatch):
        """After the probe's two products, the ``"right"`` finish calls
        ``bool_matmul`` only for ``I · R[:, C]``: ``acc`` is never the
        left factor of a product there."""
        acc, I, R, _ = _open_cells_case(65, 130, seed=8)
        lefts = []
        real = reachability.bool_matmul
        monkeypatch.setattr(
            reachability, "bool_matmul",
            lambda A, B: lefts.append(A) or real(A, B),
        )
        assert _chain_step(acc, I, R)[2] == "right"
        assert lefts[0] is acc and len(lefts) == 3
        assert not any(np.shares_memory(A, acc) for A in lefts[1:])

    def test_fig26_3d_point_finishes_right_first(self):
        """On the Fig. 26 3D point (M3(32), 1.5% node faults, XYZ twice)
        Step 3 still takes the probe and the per-cell ``"right"``
        finish, and ``R^(2)`` equals the float BLAS chain."""
        mesh = Mesh.square(3, 32)
        faults = random_node_faults(mesh, 492, np.random.default_rng(26))
        orderings = repeated(Ordering((0, 1, 2)), 2)
        ses = find_ses_partition(faults, orderings[0])
        des = find_des_partition(faults, orderings[0])
        data = find_reachability(
            LineFaultIndex(faults), orderings, [ses] * 2, [des] * 2,
            [_reps(ses, mesh)] * 2, [_reps(des, mesh)] * 2,
        )
        assert data.stats["association_1"] == "right"
        assert data.stats["open_columns_1"] > 0
        R1, I1 = data.round_matrices[0], data.intersection_matrices[0]
        f32 = np.float32
        chain = ((R1.astype(f32) @ I1.astype(f32)) > 0.5).astype(f32)
        assert np.array_equal(data.Rk, (chain @ R1.astype(f32)) > 0.5)

    @pytest.mark.parametrize(
        "p, q, n, r",
        [(0, 5, 6, 7), (5, 0, 6, 7), (5, 6, 0, 7), (5, 6, 7, 0), (0, 0, 0, 0)],
    )
    def test_empty_dimensions(self, p, q, n, r):
        rng = np.random.default_rng(p * 1000 + q * 100 + n * 10 + r)
        acc = rng.random((p, q)) < 0.5
        I = rng.random((q, n)) < 0.5
        R = rng.random((n, r)) < 0.5
        got, _, _ = _chain_step(acc, I, R)
        assert got.shape == (p, r)
        _assert_step_matches_chain(acc, I, R)

    def test_sparse_acc_takes_the_gather_chain(self, gather_calls):
        """A sparse ``acc`` skips the probe: every column is reported
        open, and both products are gathers when ``I`` is sparse."""
        rng = np.random.default_rng(6)
        acc = rng.random((70, 66)) < 0.07
        I = rng.random((66, 90)) < 0.07
        R = rng.random((90, 130)) < 0.07
        assert _assert_step_matches_chain(acc, I, R) == (130, "gather")
        assert len(gather_calls) == 2

    def test_sparse_acc_with_dense_intersection(self):
        rng = np.random.default_rng(7)
        acc = rng.random((40, 30)) < 0.1
        I = rng.random((30, 50)) < 0.6
        R = rng.random((50, 65)) < 0.05
        assert _assert_step_matches_chain(acc, I, R) == (65, "gather")

    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(*[st.integers(1, 40)] * 4),
        st.tuples(*[st.floats(0.01, 0.9)] * 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_triples_with_a_hard_column(self, seed, dims, dens):
        p, q, n, r = dims
        rng = np.random.default_rng(seed)
        acc = rng.random((p, q)) < dens[0]
        I = rng.random((q, n)) < dens[1]
        R = rng.random((n, r)) < dens[2]
        hard, row = int(rng.integers(r)), int(rng.integers(n))
        R[:, hard] = False
        R[row, hard] = True
        _assert_step_matches_chain(acc, I, R)

    @pytest.mark.parametrize("family", ["clustered", "partial_plane", "dust"])
    def test_partials_match_plain_chain(self, family):
        """``partial`` and ``Rk`` of three-round Find-Reachability
        against the plain chain over its own ``R_t`` and ``I_t``."""
        faults = _patterned_faults(family, 3, 16)
        pi = Ordering((0, 1, 2))
        orderings = KRoundOrdering([pi, Ordering((2, 1, 0)), pi])
        mesh = faults.mesh
        ses = [find_ses_partition(faults, o) for o in orderings]
        des = [find_des_partition(faults, o) for o in orderings]
        data = find_reachability(
            LineFaultIndex(faults), orderings, ses, des,
            [_reps(x, mesh) for x in ses], [_reps(x, mesh) for x in des],
        )
        acc = data.round_matrices[0]
        for t in range(1, orderings.k):
            acc = _plain_chain(
                acc, data.intersection_matrices[t - 1], data.round_matrices[t]
            )
            assert np.array_equal(data.partial[t], acc)
            assert data.stats[f"association_{t}"] in (
                "none", "left", "right", "gather"
            )
        assert np.array_equal(data.Rk, acc)


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
