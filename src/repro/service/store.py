"""Canonical configuration identity and the content-addressed
artifact store.

The lamb pipeline is deterministic: the artifact produced for a
``(mesh, FaultSet, k-round ordering, method, policy)`` configuration is
a pure function of that configuration.  The control plane therefore
keys compiled artifacts by a **blake2b digest of the canonicalized
config** — compile once, serve forever.

Canonicalization is the load-bearing part (the stale-cache hazard
class): two configs that describe the same machine **must** hash
identically, so

- node faults are deduplicated and sorted,
- directed link faults are deduplicated, sorted, and stripped of links
  already implied by a node fault (matching the
  :class:`~repro.mesh.faults.FaultSet` constructor's convention),
- every coordinate is forced to a plain ``int`` (``np.int64`` et al.
  would change the JSON encoding),
- round orderings are normalized to their permutation tuples — however
  the :class:`~repro.routing.ordering.Ordering` objects were built,
- the JSON encoding is key-sorted with fixed separators.

The store itself is two-tier: an in-memory LRU of live records in
front of a sharded on-disk directory of versioned JSON artifacts
(``<root>/<digest[:2]>/<digest>.json``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..mesh.faults import FaultSet
from ..mesh.serialization import mesh_to_dict
from ..routing.ordering import KRoundOrdering

__all__ = [
    "canonical_config",
    "config_digest",
    "ArtifactStore",
    "STORE_FORMAT_VERSION",
]

STORE_FORMAT_VERSION = 1

#: blake2b digest size in bytes (40 hex chars — comfortably
#: collision-free for a cache while keeping artifact paths short).
_DIGEST_SIZE = 20


def canonical_config(
    faults: FaultSet,
    orderings: KRoundOrdering,
    method: str = "bipartite",
    policy: str = "shortest",
) -> Dict[str, Any]:
    """The canonical JSON-able form of a compile configuration.

    Equivalent configurations — same machine, same fault set, same
    routing discipline — canonicalize to the *same* dict regardless of
    fault enumeration order, duplicate reports, numpy integer types, or
    how the ordering objects were constructed.
    """
    node_faults: List[List[int]] = [
        [int(x) for x in v] for v in sorted(set(faults.node_faults))
    ]
    faulty = {tuple(v) for v in node_faults}
    link_faults: List[List[List[int]]] = [
        [[int(x) for x in u], [int(x) for x in w]]
        for (u, w) in sorted(set(faults.link_faults))
        if tuple(int(x) for x in u) not in faulty
        and tuple(int(x) for x in w) not in faulty
    ]
    return {
        "schema": STORE_FORMAT_VERSION,
        "mesh": mesh_to_dict(faults.mesh),
        "node_faults": node_faults,
        "link_faults": link_faults,
        "rounds": [[int(x) for x in pi.perm] for pi in orderings],
        "method": str(method),
        "policy": str(policy),
    }


def config_digest(
    faults: FaultSet,
    orderings: KRoundOrdering,
    method: str = "bipartite",
    policy: str = "shortest",
) -> str:
    """Content address of a compile configuration (hex blake2b)."""
    canon = canonical_config(faults, orderings, method=method, policy=policy)
    payload = json.dumps(
        canon, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).hexdigest()


class ArtifactStore:
    """Two-tier content-addressed store for compiled artifacts.

    Parameters
    ----------
    root:
        Directory for the on-disk tier; ``None`` keeps the store purely
        in-memory (tests, ephemeral servers).
    max_memory_entries:
        LRU capacity of the in-memory tier.

    Records are plain dicts (JSON-able); the store wraps them in a
    versioned envelope ``{"store_version", "digest", "record"}`` on
    disk and verifies both on load.  Writes are atomic
    (temp-file + ``os.replace``) so a crashed server never leaves a
    torn artifact behind.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        max_memory_entries: int = 128,
    ) -> None:
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        self.root = root
        self.max_memory_entries = int(max_memory_entries)
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: The compiler calls get/put from worker threads (possibly
        #: several compilers sharing one store), so the memory tier and
        #: the counters are lock-guarded — an unguarded OrderedDict
        #: ``move_to_end``/``popitem`` race can corrupt LRU order or
        #: raise outright.
        self._lock = threading.Lock()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0
        if root is not None:
            os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------------
    def _path(self, digest: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, digest[:2], f"{digest}.json")

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            if digest in self._memory:
                return True
        return self.root is not None and os.path.exists(self._path(digest))

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The record stored under ``digest``, or ``None``.

        Memory tier first; a disk hit is promoted into the LRU.
        Thread-safe (called from compile worker threads).
        """
        with self._lock:
            record = self._memory.get(digest)
            if record is not None:
                self._memory.move_to_end(digest)
                self.memory_hits += 1
        if record is not None:
            if self.root is not None:
                try:
                    # A memory-tier hit must refresh the disk envelope
                    # too: prune() orders eviction by mtime, and an
                    # artifact that is hot in RAM is exactly the one
                    # gc must not drop from disk.
                    os.utime(self._path(digest), None)
                except OSError:
                    pass
            return record
        if self.root is not None:
            path = self._path(digest)
            try:
                with open(path) as fh:
                    envelope = json.load(fh)
            except (OSError, ValueError):
                envelope = None
            if (
                isinstance(envelope, dict)
                and envelope.get("store_version") == STORE_FORMAT_VERSION
                and envelope.get("digest") == digest
                and isinstance(envelope.get("record"), dict)
            ):
                record = envelope["record"]
                try:
                    # Refresh mtime so prune()'s LRU order tracks real
                    # access recency, not just write time.
                    os.utime(path, None)
                except OSError:
                    pass
                with self._lock:
                    self._remember(digest, record)
                    self.disk_hits += 1
                return record
        with self._lock:
            self.misses += 1
        return None

    def put(self, digest: str, record: Dict[str, Any]) -> None:
        """Publish a record under its content address (both tiers).
        Thread-safe; the disk write stays atomic (temp + replace)."""
        with self._lock:
            self._remember(digest, record)
            self.writes += 1
        if self.root is None:
            return
        path = self._path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        envelope = {
            "store_version": STORE_FORMAT_VERSION,
            "digest": digest,
            "record": record,
        }
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(envelope, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _remember(self, digest: str, record: Dict[str, Any]) -> None:
        """LRU insert/refresh.  Caller holds ``self._lock``."""
        self._memory[digest] = record
        self._memory.move_to_end(digest)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    # Disk-tier garbage collection
    # ------------------------------------------------------------------
    def _disk_entries(self) -> List[Tuple[str, str, int, float]]:
        """``(digest, path, size_bytes, mtime)`` for every disk
        artifact (unsorted; callers order as needed)."""
        entries: List[Tuple[str, str, int, float]] = []
        if self.root is None:
            return entries
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                entries.append(
                    (name[: -len(".json")], path, st.st_size, st.st_mtime)
                )
        return entries

    def disk_bytes(self) -> int:
        """Total bytes in the on-disk tier (0 for memory-only)."""
        return sum(size for _d, _p, size, _m in self._disk_entries())

    def prune(
        self, max_bytes: int, keep: Iterable[str] = ()
    ) -> Dict[str, int]:
        """LRU-evict disk artifacts until the tier fits ``max_bytes``.

        Least-recently-*used* first — :meth:`get` refreshes an
        artifact's mtime on every disk hit, so hot artifacts survive.
        Digests listed in ``keep`` are never evicted, even if the tier
        stays over budget.
        Evicted digests are dropped from the memory tier too, so a
        pruned artifact is gone, not lingering in the LRU.

        Returns a summary: ``removed`` / ``freed_bytes`` /
        ``remaining_bytes`` / ``protected`` (counts, stable keys).
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        protected = set(keep)
        entries = self._disk_entries()
        total = sum(size for _d, _p, size, _m in entries)
        removed = 0
        freed = 0
        # Oldest access first; digest tiebreak keeps the order
        # deterministic when mtimes collide (same-second writes).
        for digest, path, size, _mtime in sorted(
            entries, key=lambda e: (e[3], e[0])
        ):
            if total - freed <= max_bytes:
                break
            if digest in protected:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            freed += size
            removed += 1
            with self._lock:
                self._memory.pop(digest, None)
        return {
            "removed": removed,
            "freed_bytes": freed,
            "remaining_bytes": total - freed,
            "protected": len(protected),
        }

    # ------------------------------------------------------------------
    def digests(self) -> Tuple[str, ...]:
        """Every digest currently known (memory + disk), sorted."""
        with self._lock:
            known = set(self._memory)
        if self.root is not None:
            for shard in sorted(os.listdir(self.root)):
                shard_dir = os.path.join(self.root, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for name in sorted(os.listdir(shard_dir)):
                    if name.endswith(".json"):
                        known.add(name[: -len(".json")])
        return tuple(sorted(known))

    def stats(self) -> Dict[str, int]:
        """Counters snapshot (stable key order for JSON encoding)."""
        with self._lock:
            return {
                "disk_hits": self.disk_hits,
                "evictions": self.evictions,
                "memory_entries": len(self._memory),
                "memory_hits": self.memory_hits,
                "misses": self.misses,
                "writes": self.writes,
            }
