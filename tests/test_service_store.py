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

Plus the two-tier store mechanics: LRU eviction, disk round-trip,
corruption tolerance.
"""

from __future__ import annotations

import json
import os

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
        assert ("bb" * 20) not in store
        assert store.get("aa" * 20) == {"n": 0}
        assert store.get("cc" * 20) == {"n": 2}

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ArtifactStore(max_memory_entries=0)

    def test_disk_round_trip_survives_process_restart(self, tmp_path):
        digest = "cd" * 20
        first = ArtifactStore(root=str(tmp_path))
        first.put(digest, {"table": [1, 2, 3]})
        # A second store over the same root models a fresh process.
        second = ArtifactStore(root=str(tmp_path))
        assert digest in second
        assert second.get(digest) == {"table": [1, 2, 3]}
        assert second.stats()["disk_hits"] == 1
        # Promotion: the next get is served from memory.
        assert second.get(digest) == {"table": [1, 2, 3]}
        assert second.stats()["memory_hits"] == 1

    def test_disk_records_are_sharded_by_digest_prefix(self, tmp_path):
        digest = "ef" * 20
        store = ArtifactStore(root=str(tmp_path))
        store.put(digest, {"v": 1})
        assert (tmp_path / "ef" / f"{digest}.json").exists()
        assert store.digests() == (digest,)

    def test_corrupt_disk_record_is_a_miss_not_a_crash(self, tmp_path):
        digest = "01" * 20
        store = ArtifactStore(root=str(tmp_path))
        store.put(digest, {"v": 1})
        path = tmp_path / "01" / f"{digest}.json"
        path.write_text("{ not json")
        fresh = ArtifactStore(root=str(tmp_path))
        assert fresh.get(digest) is None
        assert fresh.stats()["misses"] == 1

    def test_mismatched_envelope_digest_is_rejected(self, tmp_path):
        """A record copied to the wrong address must not be served."""
        digest = "23" * 20
        wrong = "45" * 20
        store = ArtifactStore(root=str(tmp_path))
        store.put(digest, {"v": 1})
        src = tmp_path / "23" / f"{digest}.json"
        dst = tmp_path / "45"
        dst.mkdir()
        (dst / f"{wrong}.json").write_text(src.read_text())
        fresh = ArtifactStore(root=str(tmp_path))
        assert fresh.get(wrong) is None
        assert fresh.get(digest) == {"v": 1}

    def test_wrong_store_version_is_rejected(self, tmp_path):
        digest = "67" * 20
        store = ArtifactStore(root=str(tmp_path))
        store.put(digest, {"v": 1})
        path = tmp_path / "67" / f"{digest}.json"
        envelope = json.loads(path.read_text())
        envelope["store_version"] = STORE_FORMAT_VERSION + 1
        path.write_text(json.dumps(envelope))
        fresh = ArtifactStore(root=str(tmp_path))
        assert fresh.get(digest) is None

    def test_writes_are_atomic_no_tmp_litter(self, tmp_path):
        store = ArtifactStore(root=str(tmp_path))
        for i in range(5):
            store.put(f"{i:02d}" * 20, {"n": i})
        leftovers = [
            name
            for _, _, names in os.walk(tmp_path)
            for name in names
            if name.endswith(".tmp")
        ]
        assert leftovers == []


# ----------------------------------------------------------------------
# Disk-tier garbage collection (prune)
# ----------------------------------------------------------------------
class TestStorePrune:
    @staticmethod
    def _fill(tmp_path, n=6, payload_len=200):
        """A disk store with ``n`` artifacts of distinct ages."""
        store = ArtifactStore(root=str(tmp_path))
        for i in range(n):
            digest = f"{i:02d}" * 20
            store.put(digest, {"n": i, "pad": "x" * payload_len})
            # Distinct mtimes so the LRU order is unambiguous: older
            # index = older artifact.
            path = store._path(digest)
            os.utime(path, (1000.0 + i, 1000.0 + i))
        return store

    def test_disk_bytes_counts_the_tier(self, tmp_path):
        store = self._fill(tmp_path)
        assert store.disk_bytes() > 0
        assert ArtifactStore().disk_bytes() == 0

    def test_prune_evicts_oldest_first(self, tmp_path):
        store = self._fill(tmp_path)
        sizes = {d: os.path.getsize(store._path(d))
                 for d in store.digests()}
        keep_two = sum(sorted(sizes.values())[:2])
        summary = store.prune(keep_two)
        assert summary["removed"] == 4
        assert summary["remaining_bytes"] <= keep_two
        # The two *newest* artifacts survive.
        survivors = set(store.digests())
        assert survivors == {"04" * 20, "05" * 20}

    def test_disk_hit_refreshes_lru_order(self, tmp_path):
        store = self._fill(tmp_path)
        # Touch the oldest artifact through a fresh store (pure disk
        # hit) — it becomes the most recently used and must survive.
        fresh = ArtifactStore(root=str(tmp_path), max_memory_entries=1)
        assert fresh.get("00" * 20) is not None
        fresh.prune(max_bytes=os.path.getsize(fresh._path("00" * 20)))
        assert ("00" * 20) in fresh
        assert ("05" * 20) not in fresh

    def test_memory_hit_refreshes_disk_recency(self, tmp_path):
        """A memory-tier hit must refresh the disk envelope's mtime:
        prune() orders eviction by mtime, and an artifact hot in RAM
        is exactly the one gc must not drop from disk."""
        store = self._fill(tmp_path)
        # "00" is the oldest on disk but every artifact is still in
        # this store's memory tier — the get() below never touches
        # the disk read path.
        assert store.get("00" * 20) is not None
        assert store.memory_hits == 1
        assert store.disk_hits == 0
        store.prune(max_bytes=os.path.getsize(store._path("00" * 20)))
        assert ("00" * 20) in store
        assert ("05" * 20) not in store

    def test_keep_argument_protects_like_a_pin(self, tmp_path):
        store = self._fill(tmp_path)
        summary = store.prune(0, keep=["00" * 20, "03" * 20])
        # The oldest kept digest is the first eviction candidate.
        assert set(store.digests()) == {"00" * 20, "03" * 20}
        assert summary["protected"] == 2
        assert summary["removed"] == 4

    def test_pruned_digest_leaves_the_memory_tier_too(self, tmp_path):
        store = self._fill(tmp_path)
        assert store.get("00" * 20) is not None  # hot in memory
        store.prune(0)
        # A pruned artifact must be *gone*, not served from the LRU.
        assert store.get("00" * 20) is None

    def test_prune_rejects_negative_budget(self, tmp_path):
        store = ArtifactStore(root=str(tmp_path))
        with pytest.raises(ValueError):
            store.prune(-1)

    def test_prune_on_memory_only_store_is_a_noop(self):
        store = ArtifactStore()
        store.put("ab" * 20, {"x": 1})
        summary = store.prune(0)
        assert summary["removed"] == 0
        assert store.get("ab" * 20) == {"x": 1}
