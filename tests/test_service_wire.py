"""Wire-protocol tests: binary framing, the connection start, and the
oversize/truncation edge cases.

Everything runs real asyncio TCP on ephemeral localhost ports via
plain ``asyncio.run`` (no pytest-asyncio dependency), mirroring
``test_service.py``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, List

import pytest

from repro.mesh import FaultSet, Mesh
from repro.routing import ascending, repeated
from repro.service import ReconfigurationCompiler, WireProtocolError
from repro.service import wire
from repro.service.client import RouteQueryClient
from repro.service.server import RouteQueryServer


def _base_faults() -> FaultSet:
    return FaultSet(Mesh((8, 8)), [(2, 2), (5, 6)])


def _compiler(**kwargs: Any) -> ReconfigurationCompiler:
    mesh = Mesh((8, 8))
    return ReconfigurationCompiler(mesh, repeated(ascending(2), 2), **kwargs)


def _with_server(
    scenario: Callable[[RouteQueryServer, str, int], Awaitable[Any]],
    **server_kwargs: Any,
) -> Any:
    """Run ``scenario`` against a live server on an ephemeral port."""

    async def main() -> Any:
        server = RouteQueryServer(_compiler(), **server_kwargs)
        host, port = await server.start()
        try:
            return await scenario(server, host, port)
        finally:
            await server.stop()

    return asyncio.run(main())


def _feed(*chunks: bytes) -> asyncio.StreamReader:
    """A StreamReader preloaded with ``chunks`` then EOF."""
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    reader.feed_eof()
    return reader


# ----------------------------------------------------------------------
# Framing unit tests (no sockets)
# ----------------------------------------------------------------------
class TestFraming:
    def test_header_layout(self):
        header = wire.frame_header(1234, flags=7)
        assert len(header) == wire.HEADER.size == 12
        magic, version, flags, reserved, length = wire.HEADER.unpack(header)
        assert magic == wire.MAGIC
        assert version == wire.FRAME_VERSION
        assert flags == 7
        assert reserved == 0
        assert length == 1234

    def test_magic_is_not_json_text(self):
        # Text sent to the port by mistake must fail the magic check:
        # the magic is never valid UTF-8 JSON leading bytes.
        with pytest.raises(UnicodeDecodeError):
            wire.MAGIC.decode("utf-8")

    def test_round_trip(self):
        obj = {"id": 3, "op": "ping", "nested": {"a": [1, 2]}}

        async def main():
            reader = _feed(wire.encode_frame(obj))
            body = await wire.read_frame(reader)
            assert body is not None
            assert wire.decode_payload(body) == obj
            # Clean EOF at a frame boundary reads as None.
            assert await wire.read_frame(reader) is None

        asyncio.run(main())

    def test_truncated_body_raises_incomplete_read(self):
        frame = wire.encode_frame({"id": 1, "op": "ping"})

        async def main():
            reader = _feed(frame[:-3])
            with pytest.raises(asyncio.IncompleteReadError):
                await wire.read_frame(reader)

        asyncio.run(main())

    def test_truncated_header_raises_incomplete_read(self):
        async def main():
            reader = _feed(wire.MAGIC + b"\x01")
            with pytest.raises(asyncio.IncompleteReadError):
                await wire.read_frame(reader)

        asyncio.run(main())

    def test_bad_magic_is_unrecoverable(self):
        async def main():
            reader = _feed(b"XXXX" + b"\x00" * 8)
            with pytest.raises(WireProtocolError) as exc_info:
                await wire.read_frame(reader)
            assert exc_info.value.data["recoverable"] is False

        asyncio.run(main())

    def test_bad_version_is_unrecoverable(self):
        header = wire.HEADER.pack(wire.MAGIC, 99, 0, 0, 2)

        async def main():
            reader = _feed(header + b"{}")
            with pytest.raises(WireProtocolError) as exc_info:
                await wire.read_frame(reader)
            assert exc_info.value.data["recoverable"] is False
            assert exc_info.value.data["version"] == 99

        asyncio.run(main())

    def test_oversize_body_is_drained_then_recoverable(self):
        big = wire.encode_frame({"junk": "x" * 500})
        follow = wire.encode_frame({"id": 2, "op": "ping"})

        async def main():
            reader = _feed(big + follow)
            with pytest.raises(WireProtocolError) as exc_info:
                await wire.read_frame(reader, max_frame_bytes=100)
            assert exc_info.value.data["recoverable"] is True
            assert exc_info.value.data["limit_bytes"] == 100
            # The oversized body was consumed in full: the next frame
            # parses from a clean boundary.
            body = await wire.read_frame(reader, max_frame_bytes=100)
            assert wire.decode_payload(body) == {"id": 2, "op": "ping"}

        asyncio.run(main())


# ----------------------------------------------------------------------
# One encoder: every reply body is canonical ``encode_payload`` JSON
# ----------------------------------------------------------------------
class TestByteEquivalence:
    def test_encode_payload_is_shared(self):
        """The server writes exactly the frame :func:`wire.encode_frame`
        builds, so both peers frame the same canonical bytes."""

        class Sink:
            def __init__(self) -> None:
                self.chunks: List[bytes] = []

            def write(self, data: Any) -> None:
                self.chunks.append(bytes(data))

        for obj in (
            {"id": 0, "ok": True, "pong": True},
            {"id": None, "ok": False, "error": {"code": "x", "data": {}}},
            [{"id": 1, "ok": True}, {"id": 2, "ok": True}],
        ):
            sink = Sink()
            RouteQueryServer._write_frame(sink, obj)  # type: ignore[arg-type]
            assert b"".join(sink.chunks) == wire.encode_frame(obj)

    def test_batch_body_concatenates_individual_bodies(self):
        replies = [{"id": i, "ok": True, "hops": i} for i in range(3)]
        joined = b"[" + b", ".join(
            wire.encode_payload(r) for r in replies
        ) + b"]"
        assert wire.encode_payload(replies) == joined
        assert wire.join_payloads(
            [wire.encode_payload(r) for r in replies]
        ) == joined


# ----------------------------------------------------------------------
# Connection start: one codec, nothing to negotiate
# ----------------------------------------------------------------------
class TestNegotiation:
    def test_json_text_gets_one_unrecoverable_error_then_eof(self):
        """A connection that opens with an NDJSON-style request gets one
        ``wire-protocol`` error frame and is closed; the server keeps
        serving fresh clients."""

        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b'{"op":"ping"}\n')
                await writer.drain()
                reply = wire.decode_payload(await wire.read_frame(reader))
                assert await reader.read() == b""  # EOF
            finally:
                writer.close()
                await writer.wait_closed()
            assert reply["id"] is None and reply["ok"] is False
            assert reply["error"]["code"] == "wire-protocol"
            assert reply["error"]["data"]["recoverable"] is False
            async with await RouteQueryClient.connect(host, port) as client:
                assert (await client.ping())["pong"] is True
                stats = (await client.stats())["stats"]
            assert stats["counters"]["wire_protocol_errors"] == 1

        _with_server(scenario)

    def test_client_accepts_only_the_binary_codec(self):
        async def scenario(server, host, port):
            with pytest.raises(ValueError, match="ndjson"):
                await RouteQueryClient.connect(host, port, codec="ndjson")
            async with await RouteQueryClient.connect(
                host, port, codec="binary"
            ) as client:
                assert (await client.ping())["pong"] is True

        _with_server(scenario)

    def test_stats_count_connections_in_one_counter(self):
        async def scenario(server, host, port):
            first = await RouteQueryClient.connect(host, port)
            second = await RouteQueryClient.connect(host, port)
            try:
                await first.ping()
                stats = (await second.stats())["stats"]
            finally:
                await first.close()
                await second.close()
            counters = stats["counters"]
            assert counters["connections"] == 2
            assert not any(
                key.startswith("connections_") for key in counters
            )
            prom = server.metrics.registry.snapshot()["counters"]
            assert prom["service_connections_total"] == 2

        _with_server(scenario)

    def test_truncated_binary_frame_leaves_server_alive(self):
        async def scenario(server, host, port):
            # Die mid-frame: header promises 1000 bytes, send 10.
            _, writer = await asyncio.open_connection(host, port)
            writer.write(wire.frame_header(1000) + b"x" * 10)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            # The server must shrug that connection off and keep
            # serving fresh ones.
            client = await RouteQueryClient.connect(host, port)
            try:
                reply = await client.ping()
                assert reply["pong"] is True
            finally:
                await client.close()

        _with_server(scenario)


# ----------------------------------------------------------------------
# Oversize messages: typed rejection, surviving connections
# ----------------------------------------------------------------------
class TestOversizeMessages:
    def test_oversize_frame_gets_typed_error_and_connection_survives(self):
        async def scenario(server, host, port):
            client = await RouteQueryClient.connect(
                host, port, default_timeout=30.0
            )
            try:
                with pytest.raises(WireProtocolError) as exc_info:
                    await client.request("ping", junk="x" * 5000)
                assert exc_info.value.data["recoverable"] is True
                assert exc_info.value.data["limit_bytes"] == 2048
                # The server drained the body: same connection, next
                # request is fine.
                assert client.broken is False
                reply = await client.ping()
                assert reply["pong"] is True
                stats = (await client.stats())["stats"]
                assert stats["counters"]["wire_protocol_errors"] == 1
            finally:
                await client.close()

        _with_server(scenario, max_frame_bytes=2048)

    def test_oversize_mid_batch_does_not_poison_later_batches(self):
        """A batch over the limit draws one stream-level error; a
        follow-up batch on the same connection works normally."""

        async def scenario(server, host, port):
            client = await RouteQueryClient.connect(
                host, port, default_timeout=30.0
            )
            try:
                big = [("ping", {"junk": "x" * 400}) for _ in range(20)]
                with pytest.raises(WireProtocolError):
                    await client.request_batch(big)
                assert client.broken is False
                small = [("ping", {}) for _ in range(3)]
                replies = await client.request_batch(small)
                assert [r["ok"] for r in replies] == [True] * 3
            finally:
                await client.close()

        _with_server(scenario, max_frame_bytes=2048)
