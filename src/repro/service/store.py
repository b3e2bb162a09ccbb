"""Canonical configuration identity and the compile cache.

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

The store is a bounded in-memory LRU of live
:class:`~repro.service.compiler.CompiledArtifact` objects keyed by that
digest.  Nothing is written to disk: Lamb1 costs O(k·d³·f³ + |Λ|)
independent of mesh size (Theorem 6.8), so a restarted process simply
recompiles.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..mesh.faults import FaultSet
from ..mesh.serialization import mesh_to_dict
from ..routing.ordering import KRoundOrdering

if TYPE_CHECKING:
    from .compiler import CompiledArtifact

__all__ = [
    "canonical_config",
    "config_digest",
    "ArtifactStore",
    "STORE_FORMAT_VERSION",
]

STORE_FORMAT_VERSION = 1

#: blake2b digest size in bytes (40 hex chars — comfortably
#: collision-free for a cache while keeping digests short).
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
    """Bounded LRU of live compiled artifacts, keyed by config digest.

    Parameters
    ----------
    max_memory_entries:
        LRU capacity; the least recently used artifact beyond it is
        dropped (and recompiled on its next request).
    """

    def __init__(self, max_memory_entries: int = 128) -> None:
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1")
        self.max_memory_entries = int(max_memory_entries)
        self._memory: "OrderedDict[str, CompiledArtifact]" = OrderedDict()
        #: The compiler calls get/put from worker threads (possibly
        #: several compilers sharing one store), so the LRU and the
        #: counters are lock-guarded — an unguarded OrderedDict
        #: ``move_to_end``/``popitem`` race can corrupt LRU order or
        #: raise outright.
        self._lock = threading.Lock()
        self.memory_hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def get(self, digest: str) -> Optional["CompiledArtifact"]:
        """The artifact stored under ``digest`` (now the most recently
        used), or ``None``.  Thread-safe."""
        with self._lock:
            artifact = self._memory.get(digest)
            if artifact is None:
                self.misses += 1
            else:
                self._memory.move_to_end(digest)
                self.memory_hits += 1
            return artifact

    def put(self, digest: str, artifact: "CompiledArtifact") -> None:
        """Publish ``artifact`` under its content address, evicting the
        least recently used entries past capacity.  Thread-safe."""
        with self._lock:
            self._memory[digest] = artifact
            self._memory.move_to_end(digest)
            self.writes += 1
            while len(self._memory) > self.max_memory_entries:
                self._memory.popitem(last=False)
                self.evictions += 1

    def stats(self) -> Dict[str, int]:
        """Counters snapshot (stable key order for JSON encoding)."""
        with self._lock:
            return {
                "evictions": self.evictions,
                "memory_entries": len(self._memory),
                "memory_hits": self.memory_hits,
                "misses": self.misses,
                "writes": self.writes,
            }
