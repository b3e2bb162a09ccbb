"""Failure-path and lifecycle tests for the route-query service.

Everything here runs real asyncio TCP on ephemeral localhost ports via
plain ``asyncio.run`` (no pytest-asyncio dependency).  The focus is the
satellite checklist: client-side timeouts, mid-batch epoch bumps,
malformed requests becoming *typed* error replies, and graceful drain
leaving no orphaned compile work behind.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Awaitable, Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.mesh import FaultSet, Mesh
from repro.mesh.serialization import faults_to_dict
from repro.routing import ascending, repeated, xy
from repro.service import (
    MalformedRequestError,
    ReconfigurationCompiler,
    RequestTimeoutError,
    ServiceError,
    ServiceUnavailableError,
    StaleEpochError,
)
from repro.service import client as client_module
from repro.service import server as server_module
from repro.service import wire
from repro.service.client import RouteQueryClient, raise_typed
from repro.service.errors import from_wire
from repro.service.server import RouteQueryServer
from repro.service.smoke import default_smoke_faults, serve_smoke
from repro.smoke import _expect_serve


def _base_faults() -> FaultSet:
    return FaultSet(Mesh((8, 8)), [(2, 2), (5, 6)])


def _compiler(**kwargs: Any) -> ReconfigurationCompiler:
    mesh = Mesh((8, 8))
    return ReconfigurationCompiler(mesh, repeated(ascending(2), 2), **kwargs)


def _survivors(
    faults: FaultSet, compiled: Dict[str, Any]
) -> List[Tuple[int, int]]:
    """The survivor nodes of a compile reply: usable query endpoints."""
    excluded = {
        tuple(v)
        for v in list(compiled["lamb_nodes"]) + list(compiled["quarantined"])
    }
    return [
        v
        for v in faults.mesh.nodes()
        if not faults.node_is_faulty(v) and v not in excluded
    ]


def _survivor_pair(
    faults: FaultSet, compiled: Dict[str, Any]
) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Two distinct survivor nodes usable as query endpoints."""
    survivors = _survivors(faults, compiled)
    return survivors[0], survivors[-1]


def _with_service(
    scenario: Callable[
        [RouteQueryClient, RouteQueryServer, ReconfigurationCompiler],
        Awaitable[Any],
    ],
    **compiler_kwargs: Any,
) -> Any:
    """Run ``scenario`` against a live server on an ephemeral port."""

    async def main() -> Any:
        compiler = _compiler(**compiler_kwargs)
        server = RouteQueryServer(compiler)
        host, port = await server.start()
        client = await RouteQueryClient.connect(
            host, port, default_timeout=30.0
        )
        try:
            return await scenario(client, server, compiler)
        finally:
            await client.close()
            await server.stop()

    return asyncio.run(main())


# ----------------------------------------------------------------------
# Lifecycle: compile -> query -> cache hit -> delta -> stale -> drain
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_end_to_end(self):
        faults = _base_faults()

        async def scenario(client, server, compiler):
            compiled = await client.compile(faults)
            assert compiled["cache_hit"] is False
            assert compiled["source"] == "compiled"
            epoch0 = compiled["epoch"]

            src, dst = _survivor_pair(faults, compiled)
            reply = await client.query(src, dst, epoch=epoch0)
            assert tuple(reply["source"]) == src
            assert tuple(reply["dest"]) == dst
            assert reply["hops"] >= 1

            # Identical compile: a cache hit that keeps the epoch.
            again = await client.compile(faults)
            assert again["cache_hit"] is True
            assert again["source"] == "current"
            assert again["epoch"] == epoch0
            stats = (await client.stats())["stats"]
            assert stats["cache"]["hits"] >= 1
            assert stats["cache"]["misses"] == 1

            # New fault: incremental recompile, epoch bump.
            deltad = await client.delta(node_faults=[src])
            assert deltad["epoch"] > epoch0
            assert deltad["cache_hit"] is False
            assert deltad["incremental"] is True

            # The superseded epoch is refused with a typed error.
            with pytest.raises(StaleEpochError) as exc_info:
                await client.query(dst, src, epoch=epoch0)
            assert exc_info.value.requested == epoch0
            assert exc_info.value.current == deltad["epoch"]
            return deltad["epoch"]

        assert _with_service(scenario) >= 1

    def test_reactivating_a_cached_config_bumps_the_epoch(self):
        """Returning to an old config is a cache hit for the *digest*
        but still a new activation: queries pinned to the previous
        sighting of that config must go stale."""
        compiler = _compiler()
        faults_a = _base_faults()
        art_a, source = compiler.compile(faults_a)
        assert source == "compiled"
        epoch_a = art_a.epoch

        art_b, source = compiler.apply_delta(node_faults=[(0, 7)])
        assert source == "compiled"
        assert art_b.incremental
        assert art_b.epoch == epoch_a + 1

        art_a2, source = compiler.compile(faults_a)
        assert source == "memory"  # digest hit in the live cache
        assert art_a2.digest == art_a.digest
        assert art_a2.epoch == epoch_a + 2  # ... but a fresh activation
        with pytest.raises(StaleEpochError):
            compiler.route((0, 0), (1, 1), epoch=epoch_a)

    def test_graceful_drain_leaves_no_orphaned_compiles(self, tmp_path):
        faults = _base_faults()

        async def main() -> Tuple[int, int]:
            compiler = _compiler()
            compiler.store.root = None  # memory tier only for this run
            server = RouteQueryServer(compiler)
            host, port = await server.start()
            async with await RouteQueryClient.connect(host, port) as client:
                await client.compile(faults, timeout=60.0)
                drain = await client.shutdown()
                assert drain["draining"] is True
            await server.serve_until_shutdown()
            return server.orphaned_compiles, compiler.current_epoch

        orphaned, epoch = asyncio.run(main())
        assert orphaned == 0
        assert epoch == 0

    def test_drain_persists_the_warmed_table(self, tmp_path):
        """After a drain the store holds the current artifact, so the
        next process starts from a cache hit, not a recompile."""
        faults = _base_faults()

        async def main() -> str:
            from repro.service import ArtifactStore

            compiler = _compiler(store=ArtifactStore(root=str(tmp_path)))
            server = RouteQueryServer(compiler)
            host, port = await server.start()
            async with await RouteQueryClient.connect(host, port) as client:
                compiled = await client.compile(faults, timeout=60.0)
                await client.shutdown()
            await server.serve_until_shutdown()
            return compiled["digest"]

        digest = asyncio.run(main())
        fresh = _compiler()
        from repro.service import ArtifactStore

        fresh.store = ArtifactStore(root=str(tmp_path))
        artifact, source = fresh.compile(faults)
        assert source == "store"
        assert artifact.digest == digest


# ----------------------------------------------------------------------
# Failure paths
# ----------------------------------------------------------------------
class TestClientTimeout:
    def test_mute_server_trips_the_client_deadline(self):
        """A server that accepts but never replies must surface as a
        typed RequestTimeoutError, not a hang — and the timed-out
        connection is poisoned, because a late reply left in the socket
        buffer would desynchronize every subsequent request."""

        async def main() -> None:
            async def mute(reader, writer):  # swallow requests forever
                try:
                    while await reader.read(4096):
                        pass
                except (ConnectionError, asyncio.CancelledError):
                    pass

            srv = await asyncio.start_server(mute, "127.0.0.1", 0)
            host, port = srv.sockets[0].getsockname()[:2]
            client = await RouteQueryClient.connect(
                host, port, default_timeout=0.2
            )
            try:
                assert client.broken is False
                with pytest.raises(RequestTimeoutError):
                    await client.ping()
                # The connection is now desynced-by-construction; the
                # client fails fast instead of mismatching reply ids.
                assert client.broken is True
                with pytest.raises(ServiceError, match="desynchronized"):
                    await client.ping()
                with pytest.raises(ServiceError, match="desynchronized"):
                    await client.request_batch([("ping", {})])
            finally:
                await client.close()
            # An explicit per-call deadline overrides the default
            # (fresh connection — the previous one is poisoned).
            fresh = await RouteQueryClient.connect(
                host, port, default_timeout=30.0
            )
            try:
                with pytest.raises(RequestTimeoutError):
                    await fresh.stats(timeout=0.05)
                assert fresh.broken is True
            finally:
                await fresh.close()
                srv.close()
                await srv.wait_closed()

        asyncio.run(main())


class TestMidBatchEpochBump:
    def test_delta_inside_a_batch_staleifies_later_queries(self):
        """One pipelined line: [query@e0, delta, query@e0].  The delta
        bumps the epoch mid-batch, so the trailing query must come back
        as a typed stale-epoch reply while the leading one succeeded."""
        faults = _base_faults()

        async def scenario(client, server, compiler):
            compiled = await client.compile(faults, timeout=60.0)
            epoch0 = compiled["epoch"]
            src, dst = _survivor_pair(faults, compiled)
            query = {
                "source": list(src),
                "dest": list(dst),
                "epoch": epoch0,
            }
            delta = {"node_faults": [[0, 7]], "link_faults": []}
            replies = await client.request_batch(
                [("query", dict(query)), ("delta", delta),
                 ("query", dict(query))],
                timeout=60.0,
            )
            assert replies[0]["ok"] is True
            assert replies[1]["ok"] is True
            assert replies[1]["epoch"] == epoch0 + 1
            assert replies[2]["ok"] is False
            typed = from_wire(replies[2]["error"])
            assert isinstance(typed, StaleEpochError)
            assert typed.requested == epoch0
            assert typed.current == epoch0 + 1
            # Replies preserve request order and ids.
            ids = [r["id"] for r in replies]
            assert ids == sorted(ids)

        _with_service(scenario)

    def test_activation_after_the_lookup_keeps_the_served_epoch(self):
        """A compile that activates a new artifact right after a run's
        table lookups (as a worker thread may) does not relabel the
        reply: its ``epoch`` is that of the artifact whose table
        produced the route, and the next query sees the new epoch."""
        faults = _base_faults()
        other = FaultSet(faults.mesh, [(2, 2), (5, 6), (6, 1)])

        async def scenario(client, server, compiler):
            compiled = await client.compile(faults)
            epoch0 = compiled["epoch"]
            src, dst = _survivor_pair(faults, compiled)
            served = compiler.current
            real_resolve = served.table.resolve

            def resolve(pairs):
                found = real_resolve(pairs)
                served.table.resolve = real_resolve  # activate only once
                compiler.compile(other)
                return found

            served.table.resolve = resolve
            reply = await client.query(src, dst)
            assert compiler.current_epoch == epoch0 + 1
            assert reply["epoch"] == epoch0
            entry = served.table.lookup(tuple(src), tuple(dst))
            assert reply["intermediates"] == [
                list(v) for v in entry.intermediates
            ]
            later = await client.query(src, dst)
            assert later["epoch"] == epoch0 + 1

        _with_service(scenario)


# ----------------------------------------------------------------------
# Inline reads: no task, timer or deadline per read request
# ----------------------------------------------------------------------
async def _exchange(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, body: Any
) -> Any:
    """One frame over raw streams (no client-side deadline); the
    decoded reply, a list for a batch.  ``body`` is a message to
    encode, or raw body bytes sent as they are."""
    if not isinstance(body, bytes):
        body = wire.encode_payload(body)
    writer.write(wire.frame_header(len(body)) + body)
    await writer.drain()
    return wire.decode_payload(await wire.read_frame(reader))


def _survivor_pairs(
    faults: FaultSet, compiled: Dict[str, Any], count: int
) -> List[Tuple[List[int], List[int]]]:
    """``count`` distinct-endpoint survivor pairs, cycling the survivors."""
    survivors = [list(v) for v in _survivors(faults, compiled)]
    n = len(survivors)
    return [(survivors[i % n], survivors[(i + 1) % n]) for i in range(count)]


def _query_batch(
    pairs: List[Tuple[List[int], List[int]]], epoch: int, first_id: int = 1
) -> List[Dict[str, Any]]:
    return [
        {"id": first_id + i, "op": "query", "source": v, "dest": w,
         "epoch": epoch}
        for i, (v, w) in enumerate(pairs)
    ]


# One case, ``binary``: the codec ``_exchange`` speaks and the only one
# the server serves.  The id keeps these tests' names as they were when
# NDJSON was served too.
@pytest.mark.parametrize("codec", ["binary"])
class TestInlineReads:
    def test_reads_await_no_deadline_and_writes_exactly_one(
        self, codec, monkeypatch
    ):
        """A 100-query batch runs no ``wait_for`` (no task, no timer);
        a ``compile`` runs exactly one, its ``request_timeout``."""
        faults = _base_faults()
        calls: List[Any] = []
        real_wait_for = server_module.asyncio.wait_for

        def counting_wait_for(aw, *args, **kwargs):
            calls.append(aw)
            return real_wait_for(aw, *args, **kwargs)

        async def scenario(client, server, compiler):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                monkeypatch.setattr(
                    server_module.asyncio, "wait_for", counting_wait_for
                )
                compiled = await _exchange(reader, writer, {
                    "id": 0, "op": "compile",
                    "faults": faults_to_dict(faults),
                })
                assert compiled["ok"] is True
                assert len(calls) == 1
                batch = _query_batch(
                    _survivor_pairs(faults, compiled, 100), compiled["epoch"]
                )
                replies = await _exchange(reader, writer, batch)
                assert [r["ok"] for r in replies] == [True] * 100
                assert [r["id"] for r in replies] == list(range(1, 101))
                assert len(calls) == 1
            finally:
                monkeypatch.undo()
                writer.close()
                await writer.wait_closed()

        _with_service(scenario)

    def test_unknown_op_and_handler_crash_get_typed_replies_in_a_batch(
        self, codec
    ):
        """Inside one batch, an unknown op gets ``unknown-operation``
        and a handler raising an unexpected exception gets
        ``service-error``; the requests around them are still served."""
        faults = _base_faults()

        async def scenario(client, server, compiler):
            compiled = await client.compile(faults)
            (v, w), (x, y) = _survivor_pairs(faults, compiled, 2)
            real_route_batch = compiler.route_batch

            def route_batch(queries):
                if any(list(source) == x for source, _, _ in queries):
                    raise ZeroDivisionError("handler blew up")
                return real_route_batch(queries)

            compiler.route_batch = route_batch  # type: ignore[method-assign]
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                replies = await _exchange(reader, writer, [
                    {"id": 1, "op": "query", "source": v, "dest": w},
                    {"id": 2, "op": "warp"},
                    {"id": 3, "op": "query", "source": x, "dest": y},
                    {"id": 4, "op": "ping"},
                ])
            finally:
                writer.close()
                await writer.wait_closed()
            assert [r["id"] for r in replies] == [1, 2, 3, 4]
            assert [r["ok"] for r in replies] == [True, False, False, True]
            assert replies[1]["error"]["code"] == "unknown-operation"
            assert replies[2]["error"]["code"] == "service-error"
            assert replies[2]["error"]["message"] == "handler blew up"
            counters = server.metrics.snapshot()["counters"]
            assert counters["replies_error"] == 2
            assert counters["malformed_requests"] == 0

        _with_service(scenario)


class TestClientBatchDeadline:
    def test_batch_awaits_one_deadline(self, monkeypatch):
        """A 100-query ``query_batch`` reads its one reply frame under
        one client-side ``wait_for``.  (The server answers reads
        inline and makes none, so every counted call is the client's.)"""
        faults = _base_faults()
        calls: List[Any] = []
        real_wait_for = asyncio.wait_for

        def counting_wait_for(aw, *args, **kwargs):
            calls.append(aw)
            return real_wait_for(aw, *args, **kwargs)

        async def scenario(client, server, compiler):
            compiled = await client.compile(faults)
            pairs = _survivor_pairs(faults, compiled, 100)
            monkeypatch.setattr(
                client_module.asyncio, "wait_for", counting_wait_for
            )
            try:
                replies = await client.query_batch(pairs, compiled["epoch"])
            finally:
                monkeypatch.undo()
            assert [r["ok"] for r in replies] == [True] * 100
            assert len(calls) == 1

        _with_service(scenario)

    def test_expired_batch_deadline_poisons_the_client(self):
        """The deadline bounds the whole batch reply: a reply frame
        dribbled in ten pieces 50 ms apart has each piece beat a 250 ms
        deadline, but not the whole frame, so the batch raises
        RequestTimeoutError and the client is broken."""

        async def main() -> None:
            async def dribble(reader, writer):
                batch = wire.decode_payload(await wire.read_frame(reader))
                frame = wire.encode_frame(
                    [{"id": req["id"], "ok": True} for req in batch]
                )
                step = -(-len(frame) // 10)
                try:
                    for at in range(0, len(frame), step):
                        await asyncio.sleep(0.05)
                        writer.write(frame[at:at + step])
                        await writer.drain()
                except (ConnectionError, asyncio.CancelledError):
                    pass

            srv = await asyncio.start_server(dribble, "127.0.0.1", 0)
            host, port = srv.sockets[0].getsockname()[:2]
            client = await RouteQueryClient.connect(host, port)
            try:
                with pytest.raises(RequestTimeoutError):
                    await client.request_batch(
                        [("ping", {})] * 10, timeout=0.25
                    )
                assert client.broken is True
            finally:
                await client.close()
                srv.close()
                await srv.wait_closed()

        asyncio.run(main())


class TestInlineReadTelemetry:
    def test_slow_queries_log_through_the_cached_handle(self):
        """``op_seconds{op="service.query"}`` is resolved once, on the
        first query; with ``slow_query_seconds=0.0`` every query still
        goes through ``slow_op``: a ``slow_ops_total`` bump and a
        ``slow_op`` event carrying the epoch."""
        faults = _base_faults()

        async def scenario(client, server, compiler):
            reg = compiler.metrics.registry
            compiled = await client.compile(faults)
            key = 'op_seconds{op="service.query"}'
            assert key not in reg.snapshot()["histograms"]
            pairs = _survivor_pairs(faults, compiled, 40)
            # Fast branch first (the handle gets cached), then slow.
            compiler.slow_query_seconds = 3600.0
            await client.query_batch(pairs[:10], epoch=compiled["epoch"])
            compiler.slow_query_seconds = 0.0
            await client.query_batch(pairs[10:], epoch=compiled["epoch"])
            return reg, compiled["epoch"]

        reg, epoch = _with_service(scenario)
        assert reg.histogram("op_seconds", op="service.query").total == 40
        assert reg.counter("slow_ops_total", op="service.query").value == 30
        slow = [
            e for e in reg.events()
            if e["kind"] == "slow_op" and e["op"] == "service.query"
        ]
        assert len(slow) == 30
        assert {e["epoch"] for e in slow} == {epoch}
        assert {e["threshold_s"] for e in slow} == {0.0}


class TestFairness:
    def test_ping_is_served_while_a_pipelined_stream_is_pending(self):
        """A connection yields once per message: with 2,000 queries
        pipelined on one connection as 20 batch frames, a second
        connection's ``ping`` is answered before the stream is
        through."""
        faults = _base_faults()

        async def scenario(client, server, compiler):
            compiled = await client.compile(faults)
            pairs = _survivor_pairs(faults, compiled, 100)
            queries_before = compiler.metrics.queries.value
            reader, writer = await asyncio.open_connection(
                server.host, server.port, limit=wire.MAX_FRAME_BYTES
            )
            other = await RouteQueryClient.connect(server.host, server.port)
            try:
                writer.write(b"".join(
                    wire.encode_frame(_query_batch(
                        pairs, compiled["epoch"], first_id=100 * k
                    ))
                    for k in range(20)
                ))
                pong = await other.ping(timeout=30.0)
                served_at_pong = (
                    compiler.metrics.queries.value - queries_before
                )
                replies = [
                    wire.decode_payload(await wire.read_frame(reader))
                    for _ in range(20)
                ]
            finally:
                await other.close()
                writer.close()
                await writer.wait_closed()
            assert pong["ok"] is True and pong["pong"] is True
            assert all(r["ok"] for frame in replies for r in frame)
            assert sum(len(frame) for frame in replies) == 2000
            return served_at_pong

        assert _with_service(scenario) < 2000


class TestMalformedRequests:
    def test_invalid_json_line_gets_a_typed_reply_with_null_id(self):
        """A well-framed body that is not JSON gets a typed reply with
        ``id: null``, and the connection survives it."""

        async def scenario(client, server, compiler):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                reply = await _exchange(reader, writer, b"{ this is not json")
                assert reply["id"] is None
                assert reply["ok"] is False
                assert reply["error"]["code"] == "malformed-request"
                pong = await _exchange(reader, writer, {"id": 9, "op": "ping"})
                assert pong["ok"] is True and pong["id"] == 9
            finally:
                writer.close()
                await writer.wait_closed()

        _with_service(scenario)

    def test_typed_error_codes_for_bad_requests(self):
        faults = _base_faults()

        async def scenario(client, server, compiler):
            # Query before any compile: service-unavailable.
            with pytest.raises(ServiceUnavailableError):
                await client.query((0, 0), (1, 1))
            # Unknown op.
            reply = (await client.request_batch([("warp", {})]))[0]
            assert reply["error"]["code"] == "unknown-operation"
            # Missing op.
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            noop = await _exchange(reader, writer, {"id": 1})
            writer.close()
            await writer.wait_closed()
            assert noop["id"] == 1
            assert noop["error"]["code"] == "malformed-request"
            # compile without a fault-set record.
            reply = (await client.request_batch([("compile", {})]))[0]
            assert reply["error"]["code"] == "malformed-request"
            # delta naming no faults.
            await client.compile(faults, timeout=60.0)
            with pytest.raises(MalformedRequestError):
                await client.delta()
            # Non-survivor query endpoint.
            with pytest.raises(MalformedRequestError):
                await client.query((2, 2), (0, 0))  # (2,2) is faulty
            # Bad epoch type.
            reply = (
                await client.request_batch(
                    [("query", {"source": [0, 0], "dest": [1, 1],
                                "epoch": "zero"})]
                )
            )[0]
            assert reply["error"]["code"] == "malformed-request"

        _with_service(scenario)

    def test_delta_without_a_base_config_is_unavailable(self):
        compiler = _compiler()
        with pytest.raises(ServiceUnavailableError):
            compiler.apply_delta(node_faults=[(0, 0)])
        with pytest.raises(MalformedRequestError):
            compiler.compile(FaultSet(Mesh((9, 9)), [(1, 1)]))

    def test_redundant_delta_is_a_current_hit(self):
        compiler = _compiler()
        compiler.compile(_base_faults())
        epoch = compiler.current_epoch
        artifact, source = compiler.apply_delta(node_faults=[(2, 2)])
        assert source == "current"
        assert artifact.epoch == epoch


# ----------------------------------------------------------------------
# Concurrency: mutations serialize, timed-out compiles stay tracked
# ----------------------------------------------------------------------
class TestConcurrentMutations:
    def test_concurrent_deltas_lose_no_faults(self):
        """Two deltas racing from separate threads must serialize: the
        second bases on the first one's activated fault set, so the
        final epoch carries *both* reported faults (the lost-update
        hazard would silently drop one and route through dead
        hardware)."""
        compiler = _compiler()
        compiler.compile(_base_faults())
        errors: List[BaseException] = []

        def report(node: Tuple[int, int]) -> None:
            try:
                compiler.apply_delta(node_faults=[node])
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [
            threading.Thread(target=report, args=((0, 7),)),
            threading.Thread(target=report, args=((7, 0),)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        current = compiler.current
        assert current is not None
        fault_nodes = set(current.result.faults.node_faults)
        assert {(0, 7), (7, 0)} <= fault_nodes
        # Exactly two activations on top of the base compile.
        assert current.epoch == 2

    def test_escalated_compile_rekeys_under_adopted_discipline(self):
        """When the ladder escalates k -> k+1 the escalated discipline
        is adopted, so the published artifact must be keyed under the
        *post*-escalation digest: an immediately repeated compile of
        the same fault set is a 'current' hit, not a recompile that
        bumps the epoch for an unchanged machine."""
        mesh = Mesh((8, 8))
        compiler = ReconfigurationCompiler(
            mesh,
            repeated(xy(), 1),
            lamb_budget=2,
            max_extra_rounds=1,
        )
        faults = FaultSet(mesh, [(3, 3), (4, 4)])
        first, source = compiler.compile(faults)
        assert source == "compiled"
        assert first.escalated_rounds == 1
        assert compiler.orderings.k == 2  # adopted
        # The artifact's identity matches what the *next* digest of
        # this fault set computes under the adopted orderings.
        assert first.digest == compiler.digest_for(faults)
        again, source = compiler.compile(faults)
        assert source == "current"
        assert again.epoch == first.epoch
        assert compiler.metrics.compiles.value == 1

    @pytest.mark.parametrize(
        "orderings, budget, extra, base, delta, rung",
        [
            # (1, 0) and (0, 1) dead cut off the corner (0, 0): with a
            # zero lamb budget the ladder quarantines it.
            (repeated(xy(), 2), 0, 0, [(4, 4)], [(1, 0), (0, 1)],
             "quarantined"),
            # One round of XY needs many lambs for these faults; the
            # budget forces k -> 2.
            (repeated(xy(), 1), 2, 1, [], [(3, 3), (4, 4)],
             "escalated_rounds"),
        ],
        ids=["quarantine", "k-escalation"],
    )
    def test_degraded_delta_routes_like_fresh_compile(
        self, orderings, budget, extra, base, delta, rung
    ):
        """A delta the ladder answers by quarantine or k-escalation
        carries no routing state over from the base epoch: every pooled
        pair routes exactly as in a from-scratch compile of the same
        faults."""
        mesh = Mesh((8, 8))

        def compiler() -> ReconfigurationCompiler:
            return ReconfigurationCompiler(
                mesh, orderings, lamb_budget=budget, max_extra_rounds=extra
            )

        incremental = compiler()
        incremental.compile(FaultSet(mesh, base))
        after, source = incremental.apply_delta(node_faults=delta)
        assert source == "compiled" and after.incremental
        assert getattr(after, rung)
        fresh, _ = compiler().compile(FaultSet(mesh, base + delta))
        assert fresh.result.faults == after.result.faults
        assert fresh.k == after.k
        survivors = [
            v for v in mesh.nodes() if after.result.is_survivor(v)
        ]
        rng = np.random.default_rng(4)
        pool = [
            (survivors[i], survivors[j])
            for i, j in rng.integers(len(survivors), size=(60, 2))
        ]
        for v, w in pool:
            assert after.table.lookup(v, w) == fresh.table.lookup(v, w)

    def test_timed_out_compile_is_drained_not_orphaned(self):
        """A compile that outlives the request deadline keeps running
        in its worker thread; the client gets a typed request-timeout
        reply, and stop() waits for the thread itself — the epoch it
        activates is not lost and orphaned_compiles stays 0."""
        faults = _base_faults()

        async def main() -> Tuple[int, int, int]:
            compiler = _compiler()
            real_compile = compiler.compile

            def slow_compile(fs: FaultSet):
                time.sleep(0.4)
                return real_compile(fs)

            compiler.compile = slow_compile  # type: ignore[method-assign]
            server = RouteQueryServer(
                compiler, request_timeout=0.05, drain_timeout=30.0
            )
            host, port = await server.start()
            async with await RouteQueryClient.connect(host, port) as client:
                with pytest.raises(RequestTimeoutError):
                    await client.compile(faults, timeout=30.0)
                assert server._inflight_compiles == 1  # thread still alive
            await server.stop()
            return (
                server.orphaned_compiles,
                server._inflight_compiles,
                compiler.current_epoch,
            )

        orphaned, inflight, epoch = asyncio.run(main())
        assert orphaned == 0
        assert inflight == 0
        assert epoch == 0  # the drained thread still activated its epoch

    def test_zero_drain_timeout_still_waits_for_compile_threads(self):
        """Regression: ``drain_timeout=0.0`` used to clamp the drain
        waits to ``asyncio.wait(..., timeout=0.0)`` — "poll once" —
        which reported a compile thread finishing microseconds later
        as orphaned.  The waits now have a small floor."""
        faults = _base_faults()

        async def main() -> int:
            compiler = _compiler()
            real_compile = compiler.compile

            def slow_compile(fs: FaultSet):
                time.sleep(0.03)
                return real_compile(fs)

            compiler.compile = slow_compile  # type: ignore[method-assign]
            server = RouteQueryServer(compiler, drain_timeout=0.0)
            host, port = await server.start()
            client = await RouteQueryClient.connect(
                host, port, default_timeout=30.0
            )
            task = asyncio.create_task(client.compile(faults, timeout=30.0))
            # Drain the moment the compile reaches its worker thread —
            # the deadline is already expired when stop() starts.
            while not server._inflight_compiles:
                await asyncio.sleep(0.005)
            await server.stop()
            await asyncio.gather(task, return_exceptions=True)
            await client.close()
            return server.orphaned_compiles

        assert asyncio.run(main()) == 0


# ----------------------------------------------------------------------
# The acceptance smoke itself, shrunk, twice: determinism contract
# ----------------------------------------------------------------------
class TestSmokeDeterminism:
    def test_smoke_transcript_is_deterministic(self):
        def run() -> List[str]:
            lines: List[str] = []
            serve_smoke(default_smoke_faults(), queries=60, emit=lines.append)
            return lines

        lines_a = run()
        assert lines_a == run()
        _expect_serve({"transcript": "\n".join(lines_a)})

    def test_raise_typed_passthrough(self):
        ok = {"ok": True, "hops": 3}
        assert raise_typed(ok) is ok
        with pytest.raises(StaleEpochError):
            raise_typed(
                {
                    "ok": False,
                    "error": {
                        "code": "stale-epoch",
                        "message": "x",
                        "data": {"requested": 0, "current": 2},
                    },
                }
            )
