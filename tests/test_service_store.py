"""Property tests for canonical config identity and the artifact store.

The stale-cache hazard class: two descriptions of the *same* machine
configuration must produce the *same* digest, or the control plane
serves a stale artifact for a config it believes is new (or recompiles
one it already has).  These tests pin the canonicalization contract:

- fault enumeration order and duplicate fault reports are identity
  no-ops;
- numpy integer coordinates hash like plain ints;
- reconstructing an ordering object (``Ordering`` vs raw permutation
  tuples) does not change the digest;
- genuinely different configs (mesh, faults, k, method, policy) get
  different digests.

Plus the store mechanics: LRU eviction and its counters.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import FaultSet, Mesh
from repro.routing import KRoundOrdering, Ordering, ascending, repeated
from repro.service import ArtifactStore, canonical_config, config_digest
from repro.service.store import STORE_FORMAT_VERSION

from conftest import faulty_meshes


def _orderings(d: int, k: int = 2) -> KRoundOrdering:
    return repeated(ascending(d), k)


# ----------------------------------------------------------------------
# Digest canonicalization properties
# ----------------------------------------------------------------------
class TestDigestCanonicalization:
    @settings(max_examples=60, deadline=None)
    @given(faulty_meshes(), st.randoms(use_true_random=False))
    def test_fault_order_is_identity_noop(self, faults, rnd):
        """Shuffling the fault enumeration never changes the digest."""
        orderings = _orderings(faults.mesh.d)
        base = config_digest(faults, orderings)

        nodes = list(faults.node_faults)
        links = list(faults.link_faults)
        rnd.shuffle(nodes)
        rnd.shuffle(links)
        shuffled = FaultSet(faults.mesh, nodes, links)
        assert config_digest(shuffled, orderings) == base

    @settings(max_examples=60, deadline=None)
    @given(faulty_meshes())
    def test_duplicate_fault_reports_are_identity_noops(self, faults):
        """Reporting the same fault twice never changes the digest."""
        orderings = _orderings(faults.mesh.d)
        base = config_digest(faults, orderings)
        doubled = FaultSet(
            faults.mesh,
            list(faults.node_faults) + list(faults.node_faults),
            list(faults.link_faults) + list(faults.link_faults),
        )
        assert config_digest(doubled, orderings) == base

    @settings(max_examples=60, deadline=None)
    @given(faulty_meshes())
    def test_numpy_coordinates_hash_like_ints(self, faults):
        """np.int64 coordinates (e.g. from rng.integers) are coerced."""
        orderings = _orderings(faults.mesh.d)
        base = config_digest(faults, orderings)
        np_nodes = [
            tuple(np.int64(x) for x in v) for v in faults.node_faults
        ]
        np_links = [
            (tuple(np.int64(x) for x in u), tuple(np.int64(x) for x in w))
            for (u, w) in faults.link_faults
        ]
        promoted = FaultSet(faults.mesh, np_nodes, np_links)
        assert config_digest(promoted, orderings) == base

    @settings(max_examples=60, deadline=None)
    @given(faulty_meshes())
    def test_ordering_reconstruction_is_identity_noop(self, faults):
        """Rebuilding the ordering objects from their permutations is
        invisible to the digest."""
        d = faults.mesh.d
        orderings = _orderings(d)
        rebuilt = KRoundOrdering(
            [Ordering(tuple(pi.perm)) for pi in orderings]
        )
        assert config_digest(faults, rebuilt) == config_digest(
            faults, orderings
        )

    def test_node_fault_subsumes_its_links(self):
        """A link fault on a faulty node's port is already implied by
        the node fault — reporting it must not change identity."""
        mesh = Mesh((5, 5))
        plain = FaultSet(mesh, [(2, 2)])
        with_link = FaultSet(mesh, [(2, 2)], [((2, 2), (2, 3))])
        orderings = _orderings(2)
        assert config_digest(with_link, orderings) == config_digest(
            plain, orderings
        )

    def test_distinct_configs_get_distinct_digests(self):
        mesh = Mesh((8, 8))
        faults = FaultSet(mesh, [(1, 1), (5, 3)])
        orderings = _orderings(2, k=2)
        base = config_digest(faults, orderings)

        # Different fault set.
        assert config_digest(
            FaultSet(mesh, [(1, 1)]), orderings
        ) != base
        # Different mesh shape (same faults fit in both).
        assert config_digest(
            FaultSet(Mesh((8, 9)), [(1, 1), (5, 3)]), orderings
        ) != base
        # Different k.
        assert config_digest(faults, _orderings(2, k=3)) != base
        # Different per-round permutation.
        yx = KRoundOrdering([Ordering((1, 0))] * 2)
        assert config_digest(faults, yx) != base
        # Different method / policy.
        assert config_digest(faults, orderings, method="greedy") != base
        assert config_digest(faults, orderings, policy="balanced") != base

    def test_link_fault_identity_is_directed(self):
        """(u -> w) and (w -> u) are different machine states."""
        mesh = Mesh((5, 5))
        orderings = _orderings(2)
        fwd = FaultSet(mesh, [], [((1, 1), (1, 2))])
        rev = FaultSet(mesh, [], [((1, 2), (1, 1))])
        assert config_digest(fwd, orderings) != config_digest(
            rev, orderings
        )

    def test_canonical_config_is_json_stable(self):
        """The canonical form itself must be JSON-encodable with
        sorted keys (the digest preimage)."""
        mesh = Mesh((6, 6))
        faults = FaultSet(
            mesh,
            [(np.int64(3), np.int64(4)), (1, 1)],
            [((0, 0), (0, 1))],
        )
        canon = canonical_config(faults, _orderings(2))
        payload = json.dumps(canon, sort_keys=True, separators=(",", ":"))
        assert json.loads(payload) == canon
        assert canon["schema"] == STORE_FORMAT_VERSION
        assert canon["node_faults"] == sorted(canon["node_faults"])
        assert canon["link_faults"] == sorted(canon["link_faults"])


# ----------------------------------------------------------------------
# Artifact store mechanics
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_memory_round_trip_and_stats(self):
        store = ArtifactStore()
        assert store.get("ab" * 20) is None
        store.put("ab" * 20, {"x": 1})
        assert store.get("ab" * 20) == {"x": 1}
        stats = store.stats()
        assert stats["memory_hits"] == 1
        assert stats["misses"] == 1
        assert stats["writes"] == 1

    def test_lru_eviction_order(self):
        store = ArtifactStore(max_memory_entries=2)
        store.put("aa" * 20, {"n": 0})
        store.put("bb" * 20, {"n": 1})
        # Touch "aa" so "bb" becomes the LRU victim.
        assert store.get("aa" * 20) == {"n": 0}
        store.put("cc" * 20, {"n": 2})
        assert store.stats()["evictions"] == 1
        assert len(store) == 2
        assert store.get("bb" * 20) is None
        assert store.get("aa" * 20) == {"n": 0}
        assert store.get("cc" * 20) == {"n": 2}

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ArtifactStore(max_memory_entries=0)
