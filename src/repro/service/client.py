"""Asyncio client for the route-query service.

Mirrors the wire protocol of :mod:`repro.service.server`:
length-prefixed binary frames (:mod:`repro.service.wire`), one reply
frame per request frame — a batch frame gets a single reply frame
carrying the array of replies, in request order.  Error replies are
rebuilt into the *same* typed exceptions the server raised
(:mod:`repro.service.errors`), so client code handles
:class:`~repro.service.errors.StaleEpochError` exactly as in-process
callers do.

A server-side *stream-level* error (e.g. the request frame exceeded
the server's limit) comes back as an ``id: null`` error reply.  The
server consumed the offending frame in full before replying, so the
connection is still in sync: the client raises the typed error —
usually :class:`~repro.service.errors.WireProtocolError` — without
poisoning the connection.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..mesh.faults import FaultSet
from ..mesh.serialization import faults_to_dict
from . import wire
from .errors import (
    MalformedRequestError,
    RequestTimeoutError,
    ServiceError,
    WireProtocolError,
    from_wire,
)

__all__ = ["RouteQueryClient", "raise_typed"]


def raise_typed(reply: Dict[str, Any]) -> Dict[str, Any]:
    """Return ``reply`` if ``ok``; raise its typed error otherwise."""
    if reply.get("ok"):
        return reply
    error = reply.get("error")
    if isinstance(error, dict):
        raise from_wire(error)
    raise ServiceError(f"malformed error reply: {reply!r}")


class RouteQueryClient:
    """One connection to a :class:`~repro.service.server.RouteQueryServer`.

    Use :meth:`connect`; every RPC accepts an optional per-call
    ``timeout`` (seconds) overriding ``default_timeout`` — an expired
    wait raises :class:`~repro.service.errors.RequestTimeoutError`.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        default_timeout: float = 10.0,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.default_timeout = float(default_timeout)
        self._next_id = 0
        self._broken = False

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        default_timeout: float = 10.0,
        connect_timeout: float = 10.0,
        codec: str = "binary",
    ) -> "RouteQueryClient":
        """Open a connection.

        ``codec`` only accepts ``"binary"``, the one wire codec; any
        other value raises :class:`ValueError`.  The keyword stays
        because ``perfbench/workloads.py`` passes ``codec="binary"``;
        it goes once the next benchmark change drops that argument.
        """
        if codec != "binary":
            raise ValueError(f"unknown codec {codec!r} (want 'binary')")
        # A stream limit at the frame ceiling keeps the transport from
        # pausing and resuming while a large reply frame arrives.
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(
                host, port, limit=wire.MAX_FRAME_BYTES
            ),
            timeout=connect_timeout,
        )
        return cls(reader, writer, default_timeout=default_timeout)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "RouteQueryClient":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    @property
    def broken(self) -> bool:
        """Whether this connection has been poisoned by a desync (a
        client-side timeout or a reply-id mismatch) and must be
        replaced with a fresh :meth:`connect`."""
        return self._broken

    def _poison(self) -> None:
        """Mark the connection unusable and close it.

        After a client-side timeout the un-consumed reply is still in
        the socket buffer; the next request would read that stale
        reply and mis-match ids forever.  A broken client fails fast
        instead of looking usable while permanently desynced.
        """
        self._broken = True
        self._writer.close()

    def _ensure_usable(self) -> None:
        if self._broken:
            raise ServiceError(
                "connection is desynchronized (an earlier request "
                "timed out or mismatched reply ids); open a new client"
            )

    def _make_request(self, op: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        req = {"id": self._next_id, "op": op}
        self._next_id += 1
        req.update(payload)
        return req

    async def _read_message(self, timeout: Optional[float]) -> Any:
        """One decoded reply message: a dict, or (batch reply) a list
        of dicts, read under one client-side deadline.  On expiry the
        connection is poisoned and a typed timeout raised."""
        deadline = self.default_timeout if timeout is None else float(timeout)
        try:
            body = await asyncio.wait_for(
                wire.read_frame(self._reader), timeout=deadline
            )
        except asyncio.TimeoutError:
            self._poison()
            raise RequestTimeoutError(
                f"no reply within {deadline}s (client-side deadline); "
                f"connection closed — reconnect to continue"
            )
        except asyncio.IncompleteReadError:
            raise ServiceError(
                "connection closed before a full reply frame arrived"
            )
        except WireProtocolError as exc:
            if not exc.data.get("recoverable"):
                self._poison()
            raise
        if body is None:
            raise ServiceError(
                "connection closed before a reply arrived"
            )
        reply = wire.decode_payload(body)
        if not isinstance(reply, (dict, list)):
            raise ServiceError(f"reply is not an object: {reply!r}")
        return reply

    async def _read_reply(self, timeout: Optional[float]) -> Dict[str, Any]:
        reply = await self._read_message(timeout)
        if not isinstance(reply, dict):
            self._poison()
            raise ServiceError(
                f"expected a single reply object, got a batch of "
                f"{len(reply)}"
            )
        return reply

    @staticmethod
    def _stream_level_error(reply: Dict[str, Any]) -> bool:
        """An ``id: null`` error reply reports a message-level failure
        (unparseable body, oversized frame).  The server consumed
        the whole offending frame before replying, so the stream is
        still in sync — raise typed, do *not* poison."""
        return reply.get("id") is None and not reply.get("ok")

    async def request(
        self,
        op: str,
        timeout: Optional[float] = None,
        **payload: Any,
    ) -> Dict[str, Any]:
        """Send one request; return the ok-reply body or raise its
        typed error."""
        self._ensure_usable()
        req = self._make_request(op, payload)
        self._writer.write(wire.encode_frame(req))
        await self._writer.drain()
        reply = await self._read_reply(timeout)
        if self._stream_level_error(reply):
            return raise_typed(reply)
        if reply.get("id") != req["id"]:
            self._poison()
            raise ServiceError(
                f"reply id {reply.get('id')!r} does not match "
                f"request id {req['id']}"
            )
        return raise_typed(reply)

    async def request_batch(
        self,
        requests: Sequence[Tuple[str, Dict[str, Any]]],
        timeout: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Pipeline a batch of ``(op, payload)`` requests as a single
        frame; returns the raw reply dicts in order (errors are
        *not* raised — inspect ``reply["ok"]`` or pass through
        :func:`raise_typed` per element).  A *stream-level* failure
        (the whole batch was rejected before parsing) raises its typed
        error without poisoning the connection.  ``timeout`` bounds the
        whole batch: one client-side deadline covers every reply."""
        return await self._send_batch(
            [self._make_request(op, payload) for op, payload in requests],
            timeout,
        )

    async def _send_batch(
        self, reqs: List[Dict[str, Any]], timeout: Optional[float]
    ) -> List[Dict[str, Any]]:
        """Write ``reqs`` (ids already assigned) as one batch frame and
        return the matched replies."""
        if not reqs:
            raise MalformedRequestError("empty batch")
        self._ensure_usable()
        self._writer.write(wire.encode_frame(reqs))
        await self._writer.drain()
        return self._match_batch(reqs, await self._read_message(timeout))

    def _match_batch(
        self, reqs: List[Dict[str, Any]], message: Any
    ) -> List[Dict[str, Any]]:
        """Validate a batch reply frame against the batch."""
        if isinstance(message, dict):
            if self._stream_level_error(message):
                raise_typed(message)
            self._poison()
            raise ServiceError(
                f"expected a batch reply, got a single reply with id "
                f"{message.get('id')!r}"
            )
        if len(message) != len(reqs):
            self._poison()
            raise ServiceError(
                f"batch reply has {len(message)} elements for "
                f"{len(reqs)} requests"
            )
        for req, reply in zip(reqs, message):
            if not isinstance(reply, dict) or reply.get("id") != req["id"]:
                self._poison()
                raise ServiceError(
                    f"reply id "
                    f"{reply.get('id') if isinstance(reply, dict) else reply!r}"
                    f" does not match request id {req['id']}"
                )
        return message

    # ------------------------------------------------------------------
    # Typed RPCs
    # ------------------------------------------------------------------
    async def ping(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return await self.request("ping", timeout=timeout)

    async def compile(
        self, faults: FaultSet, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Compile (or cache-fetch) the artifact for ``faults``."""
        return await self.request(
            "compile", timeout=timeout, faults=faults_to_dict(faults)
        )

    async def delta(
        self,
        node_faults: Sequence[Sequence[int]] = (),
        link_faults: Sequence[Tuple[Sequence[int], Sequence[int]]] = (),
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Report newly detected faults; triggers an incremental
        recompile and an epoch bump."""
        return await self.request(
            "delta",
            timeout=timeout,
            node_faults=[list(int(x) for x in v) for v in node_faults],
            link_faults=[
                [list(int(x) for x in u), list(int(x) for x in w)]
                for (u, w) in link_faults
            ],
        )

    async def query(
        self,
        source: Sequence[int],
        dest: Sequence[int],
        epoch: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Resolve one route (optionally pinned to ``epoch``)."""
        payload: Dict[str, Any] = {
            "source": [int(x) for x in source],
            "dest": [int(x) for x in dest],
        }
        if epoch is not None:
            payload["epoch"] = int(epoch)
        return await self.request("query", timeout=timeout, **payload)

    async def query_batch(
        self,
        pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
        epoch: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Pipeline many route queries in one round trip (raw replies,
        see :meth:`request_batch`)."""
        pin = None if epoch is None else int(epoch)
        first = self._next_id
        reqs: List[Dict[str, Any]] = []
        for k, (source, dest) in enumerate(pairs):
            req: Dict[str, Any] = {
                "id": first + k,
                "op": "query",
                "source": [int(x) for x in source],
                "dest": [int(x) for x in dest],
            }
            if pin is not None:
                req["epoch"] = pin
            reqs.append(req)
        self._next_id = first + len(reqs)
        return await self._send_batch(reqs, timeout)

    async def stats(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return await self.request("stats", timeout=timeout)

    async def shutdown(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Ask the server to drain gracefully."""
        return await self.request("shutdown", timeout=timeout)
