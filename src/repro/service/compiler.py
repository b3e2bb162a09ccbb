"""The control-plane compiler: fault set in, routing artifact out.

``compile`` is a pure function of the canonical config (that is what
makes content-addressed caching sound), so the compiler deliberately
runs **without** sticky lambs — cross-epoch lamb stability would make
the artifact depend on compile *history* and reintroduce the
stale-cache hazard the digest exists to kill.

The compile path is the full production ladder:

1. digest the canonical config and probe the two-tier
   :class:`~repro.service.store.ArtifactStore` (live LRU, then disk);
2. on a miss, run the lamb pipeline through the PR-1 degradation
   ladder (:meth:`~repro.core.reconfigure.ReconfigurationManager.\
report_faults_degraded`: recompute, escalate ``k -> k+1``, quarantine,
   least-bad fallback);
3. optionally cross-check the result with the PR-3 CDG prover —
   an artifact is only published if its channel-dependency graph is
   acyclic;
4. publish the artifact (store + live cache) and bump the
   reconfiguration epoch.

Fault *deltas* (:meth:`ReconfigurationCompiler.apply_delta`) extend
the current epoch's fault set with ``FaultSet.with_faults`` and
recompile.  Routing needs no state carried across epochs: each
artifact's :class:`~repro.core.routing_table.RoutingTable` routes from
the :class:`~repro.routing.reachindex.ReachIndex` its own lamb run
built, whose size depends on the fault count, not the mesh size.

Concurrency contract: the server offloads ``compile``/``apply_delta``
to worker threads, so **mutations are serialized** by a dedicated
mutation lock held across base-read -> compile -> activate.  Without
it two concurrent deltas could both base on the same epoch and the
second activation would silently drop the first delta's faults — the
live table would then route through known-dead hardware.  Queries
(:meth:`ReconfigurationCompiler.route_batch`) never take the mutation
lock; a run of them reads the current artifact reference once,
atomically, so every reply in the run pairs its route with the epoch
that served it, and they stay fast while a compile runs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.lamb import LambResult
from ..core.reconfigure import ReconfigurationError, ReconfigurationManager
from ..core.routing_table import RouteEntry, RoutingTable
from ..mesh.faults import FaultSet
from ..mesh.geometry import Link, Mesh, Node
from ..mesh.serialization import (
    routing_table_from_dict,
    routing_table_to_dict,
)
from ..obs.metrics import Histogram
from ..routing.ordering import KRoundOrdering
from .errors import CompileError, MalformedRequestError, StaleEpochError
from .errors import ServiceError, ServiceUnavailableError
from .metrics import ServiceMetrics
from .store import ArtifactStore, config_digest

__all__ = ["CompiledArtifact", "ReconfigurationCompiler"]

#: One route query: ``(source, dest, epoch)``, ``epoch`` None when the
#: caller does not pin one.
Query = Tuple[Sequence[int], Sequence[int], Optional[int]]


@dataclass(frozen=True)
class CompiledArtifact:
    """One published reconfiguration: identity, epoch, and the routable
    state.

    ``epoch`` is the activation counter — it changes every time the
    machine's routing state changes (fresh compile, delta, or
    re-activation of an older cached config), which is what queries pin
    against.  ``digest`` is the content identity — it never changes for
    a given config, which is what the cache keys on.
    """

    digest: str
    epoch: int
    result: LambResult
    table: RoutingTable
    compile_seconds: float
    escalated_rounds: int = 0
    quarantined: Tuple[Node, ...] = ()
    verified: bool = False
    incremental: bool = False

    @property
    def k(self) -> int:
        return self.result.orderings.k

    @property
    def num_lambs(self) -> int:
        return self.result.size

    @property
    def num_survivors(self) -> int:
        return (
            self.result.mesh.num_nodes
            - self.result.faults.num_node_faults
            - self.result.size
        )

    @property
    def degraded(self) -> bool:
        return self.escalated_rounds > 0 or bool(self.quarantined)

    def summary(self) -> Dict[str, Any]:
        """The JSON-able body of a ``compile``/``delta`` reply."""
        return {
            "digest": self.digest,
            "epoch": self.epoch,
            "faults": self.result.faults.f,
            "k": self.k,
            "lambs": self.num_lambs,
            "lamb_nodes": sorted(list(v) for v in self.result.lambs),
            "survivors": self.num_survivors,
            "escalated_rounds": self.escalated_rounds,
            "quarantined": sorted(list(v) for v in self.quarantined),
            "degraded": self.degraded,
            "verified": self.verified,
            "incremental": self.incremental,
        }


class ReconfigurationCompiler:
    """Compile-once-serve-forever front end over the lamb pipeline.

    Parameters
    ----------
    mesh, orderings:
        The machine and its (initial) routing discipline; the ladder
        may escalate ``orderings`` and the escalated discipline is
        adopted for subsequent compiles, mirroring
        :class:`~repro.core.reconfigure.ReconfigurationManager`.
    store:
        Artifact store (default: in-memory only).
    metrics:
        Shared :class:`~repro.service.metrics.ServiceMetrics`.
    method, policy:
        Lamb method and route-selection policy — both part of the
        canonical cache identity.
    verify:
        Cross-check every fresh artifact with the CDG deadlock prover
        before publishing (a cyclic CDG is a :class:`CompileError`,
        never a published artifact).
    lamb_budget, max_extra_rounds:
        Degradation-ladder knobs (see ``report_faults_degraded``).
    """

    def __init__(
        self,
        mesh: Mesh,
        orderings: KRoundOrdering,
        store: Optional[ArtifactStore] = None,
        metrics: Optional[ServiceMetrics] = None,
        method: str = "bipartite",
        policy: str = "shortest",
        verify: bool = False,
        lamb_budget: Optional[int] = None,
        max_extra_rounds: int = 1,
        slow_compile_seconds: float = 2.0,
        slow_query_seconds: float = 0.05,
    ) -> None:
        self.mesh = mesh
        self.orderings = orderings
        self.store = store if store is not None else ArtifactStore()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.method = method
        self.policy = policy
        self.verify = verify
        self.lamb_budget = lamb_budget
        self.max_extra_rounds = int(max_extra_rounds)
        #: Slow-op thresholds (seconds): compiles and queries past
        #: these land in the registry's structured slow-op log.
        self.slow_compile_seconds = float(slow_compile_seconds)
        self.slow_query_seconds = float(slow_query_seconds)
        #: ``op_seconds{op="service.query"}``, resolved on the first
        #: fast query (see :meth:`route_batch`).
        self._query_op_seconds: Optional[Histogram] = None
        self._live: Dict[str, CompiledArtifact] = {}
        self._current: Optional[CompiledArtifact] = None
        self._next_epoch = 0
        #: Guards fast shared state (`_current`, `_live`, `_next_epoch`,
        #: ``orderings``) for readers on other threads.
        self._lock = threading.Lock()
        #: Serializes *mutations* (compile/delta) end to end: the base
        #: read, the lamb pipeline run, and the activation happen under
        #: one critical section, so every delta bases on the latest
        #: activated fault set (no lost updates between concurrent
        #: worker threads).
        self._mutation_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def current(self) -> Optional[CompiledArtifact]:
        return self._current

    @property
    def current_epoch(self) -> int:
        return -1 if self._current is None else self._current.epoch

    def digest_for(self, faults: FaultSet) -> str:
        with self._lock:
            orderings = self.orderings
        return config_digest(
            faults, orderings, method=self.method, policy=self.policy
        )

    # ------------------------------------------------------------------
    def compile(self, faults: FaultSet) -> Tuple[CompiledArtifact, str]:
        """Compile (or fetch) the artifact for ``faults`` and make it
        the current epoch.

        Returns ``(artifact, source)`` where ``source`` is ``"current"``
        (identical to the live epoch — a cache hit that does *not* bump
        the epoch), ``"memory"``/``"store"`` (cache hit re-activated
        under a fresh epoch), or ``"compiled"`` (cache miss).
        """
        if faults.mesh != self.mesh:
            raise MalformedRequestError(
                f"fault set targets {faults.mesh}, server machine is "
                f"{self.mesh}"
            )
        with self._mutation_lock:
            digest = self.digest_for(faults)
            cached = self._cached(digest)
            if cached is not None:
                return cached
            self.metrics.cache_misses.inc()
            artifact = self._compile_miss(digest, faults)
            with self._lock:
                return self._activate(artifact), "compiled"

    def apply_delta(
        self,
        node_faults: Iterable[Sequence[int]] = (),
        link_faults: Iterable[Tuple[Sequence[int], Sequence[int]]] = (),
    ) -> Tuple[CompiledArtifact, str]:
        """Incremental recompile: extend the current epoch's fault set
        with newly detected faults and activate the result.

        The new fault set comes from ``FaultSet.with_faults``; the
        recompiled artifact's routing table routes from the index its
        own lamb run built (including any quarantine or k-escalation
        the ladder applied).

        The base epoch is read *inside* the mutation lock: two
        concurrent deltas serialize, and the second bases on the first
        one's activated fault set instead of overwriting it.
        """
        new_nodes = tuple(tuple(int(x) for x in v) for v in node_faults)
        new_links: Tuple[Link, ...] = tuple(
            (tuple(int(x) for x in u), tuple(int(x) for x in w))
            for (u, w) in link_faults
        )
        if not new_nodes and not new_links:
            raise MalformedRequestError("a fault delta must name faults")
        with self._mutation_lock:
            base = self._current
            if base is None:
                raise ServiceUnavailableError(
                    "no current artifact; compile a base config before "
                    "applying fault deltas"
                )
            faults = base.result.faults.with_faults(new_nodes, new_links)
            self.metrics.incremental_compiles.inc()
            digest = self.digest_for(faults)
            cached = self._cached(digest)
            if cached is not None:
                return cached  # "current" when the delta was redundant
            self.metrics.cache_misses.inc()
            artifact = self._compile_miss(digest, faults, incremental=True)
            with self._lock:
                return self._activate(artifact), "compiled"

    def _cached(
        self, digest: str
    ) -> Optional[Tuple[CompiledArtifact, str]]:
        """Cache probe (caller holds the mutation lock): the current
        epoch, then the live LRU, then the disk store."""
        with self._lock:
            if self._current is not None and self._current.digest == digest:
                self.metrics.cache_hits.inc()
                return self._current, "current"
            artifact = self._live.get(digest)
            if artifact is not None:
                self.metrics.cache_hits.inc()
                return self._activate(artifact), "memory"
        record = self.store.get(digest)
        if record is not None:
            restored = self._restore(digest, record)
            if restored is not None:
                self.metrics.cache_hits.inc()
                with self._lock:
                    return self._activate(restored), "store"
        return None

    # ------------------------------------------------------------------
    def route(
        self,
        source: Sequence[int],
        dest: Sequence[int],
        epoch: Optional[int] = None,
    ) -> RouteEntry:
        """Resolve a route against the current epoch.

        ``epoch`` pins the reconfiguration the caller believes is live;
        a mismatch is a :class:`StaleEpochError` (the fast data path
        must never be served routes from a superseded configuration).
        A one-pair :meth:`route_batch`.
        """
        _, (result,) = self.route_batch([(source, dest, epoch)])
        if isinstance(result, ServiceError):
            raise result
        return result

    def route_batch(
        self, queries: Sequence[Query]
    ) -> Tuple[CompiledArtifact, List[Union[RouteEntry, ServiceError]]]:
        """Resolve a run of ``(source, dest, epoch)`` queries against
        one read of the current artifact.

        Returns that artifact and, per query in order, its
        :class:`RouteEntry` or the typed error it failed with: a
        :class:`StaleEpochError` when ``epoch`` is set and is not the
        artifact's, a :class:`MalformedRequestError` for a non-survivor
        endpoint, a :class:`ServiceError` for an unreachable pair
        (an invalid lamb set).  Raises :class:`ServiceUnavailableError`
        before any artifact is compiled.

        The run's lookups are one
        :meth:`~repro.core.routing_table.RoutingTable.resolve` call: it
        reads every routable query's entry and routes the table's
        misses in one batch, in query order.  That stage is timed once
        and each answered query is charged an equal share of it (the
        run's replies leave together), so a miss's latency includes its
        share of the batch.  The run publishes its counters and
        latencies once, and only a query past ``slow_query_seconds``
        goes through the registry's ``slow_op`` (with its event).
        """
        current = self._current
        if current is None:
            raise ServiceUnavailableError(
                "no current artifact; compile a config first"
            )
        live = current.epoch
        clock = time.perf_counter
        t0 = clock()
        found = current.table.resolve([
            (s, d) for s, d, e in queries if e is None or int(e) == live
        ])
        share = (clock() - t0) / len(found) if found else 0.0
        results: List[Union[RouteEntry, ServiceError]] = []
        stale = answered = 0
        routable = iter(found)
        for source, dest, epoch in queries:
            if epoch is not None and int(epoch) != live:
                stale += 1
                results.append(StaleEpochError(int(epoch), live))
                continue
            entry = next(routable)
            if entry is None:  # no route: lookup raises its typed error
                try:
                    entry = current.table.lookup(source, dest)
                except ValueError as exc:  # non-survivor endpoint
                    results.append(MalformedRequestError(str(exc)))
                    continue
                except RuntimeError as exc:  # unreachable: invalid lambs
                    results.append(ServiceError(str(exc)))
                    continue
            answered += 1
            results.append(entry)
        metrics = self.metrics
        if stale:
            metrics.stale_epoch_rejections.inc(stale)
        if found:
            metrics.queries.inc(len(found))
        latencies = [share] * answered
        metrics.query_latency.observe_many(latencies)
        if share >= self.slow_query_seconds:
            for _ in latencies:
                metrics.registry.slow_op(
                    "service.query", share,
                    threshold=self.slow_query_seconds, epoch=live,
                )
        elif latencies:
            # slow_op's own fast branch, minus its per-call series
            # lookup; resolved on the first fast query, so the series
            # appears exactly when slow_op would create it.
            op_seconds = self._query_op_seconds
            if op_seconds is None:
                op_seconds = self._query_op_seconds = (
                    metrics.registry.histogram(
                        "op_seconds", op="service.query"
                    )
                )
            op_seconds.observe_many(latencies)
        return current, results

    # ------------------------------------------------------------------
    def persist_current(self) -> None:
        """Re-publish the current artifact with its warmed route
        entries (called on graceful drain so the next process starts
        with a hot table)."""
        current = self._current
        if current is None:
            return
        self.store.put(current.digest, self._record(current))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _activate(self, artifact: CompiledArtifact) -> CompiledArtifact:
        """Make ``artifact`` the current epoch (caller holds the lock
        for cached paths; fresh compiles pass a brand-new object)."""
        if self._current is not None and artifact.digest == self._current.digest:
            return self._current
        activated = replace(artifact, epoch=self._next_epoch)
        self._next_epoch += 1
        self._live[artifact.digest] = activated
        self._current = activated
        self.metrics.epoch.set(activated.epoch)
        return activated

    def _compile_miss(
        self,
        digest: str,
        faults: FaultSet,
        incremental: bool = False,
    ) -> CompiledArtifact:
        t0 = time.perf_counter()
        mgr = ReconfigurationManager(
            self.mesh,
            self.orderings,
            sticky_lambs=False,
            method=self.method,
        )
        try:
            epoch = mgr.report_faults_degraded(
                node_faults=faults.node_faults,
                link_faults=faults.link_faults,
                lamb_budget=self.lamb_budget,
                max_extra_rounds=self.max_extra_rounds,
            )
        except ReconfigurationError as exc:
            raise CompileError(str(exc))
        result = epoch.result
        alias: Optional[str] = None
        if epoch.escalated_rounds > 0:
            # Adopt the escalated discipline, as the ladder contract
            # prescribes; later digests include the extra rounds.  The
            # update is lock-guarded (readers on other threads), and
            # the artifact is *re-keyed* under the post-escalation
            # digest so an immediately repeated compile of the same
            # fault set — which now digests with the adopted orderings
            # — hits the 'current' fast path instead of recompiling
            # and bumping the epoch for an unchanged machine.  The
            # pre-escalation digest is kept as a store alias so a
            # restarted server with the initial discipline still warm
            # starts from the cached record.
            with self._lock:
                self.orderings = mgr.orderings
            rekeyed = self.digest_for(faults)
            if rekeyed != digest:
                alias = digest
                digest = rekeyed
        if epoch.degraded:
            self.metrics.degraded_compiles.inc()
        if self.verify:
            self._cross_check(result)
        table = RoutingTable(result, policy=self.policy)
        wall = time.perf_counter() - t0
        self.metrics.compiles.inc()
        self.metrics.compile_latency.observe(wall)
        self.metrics.registry.slow_op(
            "service.compile", wall,
            threshold=self.slow_compile_seconds,
            digest=digest, incremental=incremental,
            degraded=epoch.degraded,
        )
        artifact = CompiledArtifact(
            digest=digest,
            epoch=-1,  # assigned at activation
            result=result,
            table=table,
            compile_seconds=wall,
            escalated_rounds=epoch.escalated_rounds,
            quarantined=epoch.quarantined,
            verified=self.verify,
            incremental=incremental,
        )
        record = self._record(artifact)
        self.store.put(digest, record)
        if alias is not None:
            self.store.put(alias, record)
        return artifact

    def _cross_check(self, result: LambResult) -> None:
        from ..analysis.static.cdg import StaticDeadlockError, assert_deadlock_free

        try:
            assert_deadlock_free(result.faults, result.orderings)
        except StaticDeadlockError as exc:
            raise CompileError(
                f"CDG cross-check refused to publish the artifact: {exc}"
            )

    def _record(self, artifact: CompiledArtifact) -> Dict[str, Any]:
        record = routing_table_to_dict(artifact.table)
        record["service"] = {
            "compile_seconds": round(artifact.compile_seconds, 6),
            "escalated_rounds": artifact.escalated_rounds,
            "quarantined": sorted(list(v) for v in artifact.quarantined),
            "verified": artifact.verified,
        }
        return record

    def _restore(
        self, digest: str, record: Dict[str, Any]
    ) -> Optional[CompiledArtifact]:
        """Rebuild a :class:`CompiledArtifact` from a disk record, or
        ``None`` when the record does not validate (a corrupt artifact
        is a cache miss, never a crash)."""
        try:
            table = routing_table_from_dict(record)
        except (KeyError, TypeError, ValueError):
            return None
        meta = record.get("service") or {}
        return CompiledArtifact(
            digest=digest,
            epoch=-1,
            result=table.result,
            table=table,
            compile_seconds=float(meta.get("compile_seconds", 0.0)),
            escalated_rounds=int(meta.get("escalated_rounds", 0)),
            quarantined=tuple(
                tuple(int(x) for x in v)
                for v in meta.get("quarantined", [])
            ),
            verified=bool(meta.get("verified", False)),
        )
