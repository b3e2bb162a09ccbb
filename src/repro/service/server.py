"""Asyncio route-query server: the slow control path as a service.

Every connection speaks length-prefixed binary frames (see
:mod:`repro.service.wire`) whose body is canonical JSON: one request
object, or a JSON *array* of requests for a pipelined batch.  A batch
frame gets **one** reply frame carrying the array of replies, written
zero-copy.  Its body is the replies' canonical encodings joined by
:func:`~repro.service.wire.join_payloads`, so it equals
:func:`~repro.service.wire.encode_payload` of the reply list.

Each run of consecutive ``query`` requests is served by one read of
the current artifact, and an ok query reply is spliced from memoized
bytes of its route entry plus its epoch and id: no per-reply
``json.dumps``.  The memo belongs to the live routing table and is
dropped when that table changes.

Batches are processed against live state, so a ``delta`` inside a
batch bumps the epoch for the requests behind it (queries pinned to
the old epoch then get typed ``stale-epoch`` replies).  Replies echo
the request ``id``: ``{"id": 7, "ok": true, ...}`` on success,
``{"id": 7, "ok": false, "error": {"code", "message", "data"}}`` on a
typed failure (see :mod:`repro.service.errors`).  A frame body over
``max_frame_bytes`` is consumed in full and answered with a typed
``wire-protocol`` reply (``id: null``) — the connection stays usable.
A bad frame header (say, JSON text instead of a frame) draws the same
reply with ``recoverable: false``, and the connection is closed.

Operations: ``ping``, ``compile``, ``delta``, ``query``, ``stats``,
``shutdown``.

Compiles are offloaded to a worker thread so queries on other
connections keep flowing while the lamb pipeline runs.  Shutdown is a
**graceful drain**: the listener closes, in-flight requests (including
running compiles) are awaited to completion, and only then do
connections drop —
:attr:`RouteQueryServer.orphaned_compiles` stays 0 unless the drain
timeout expires.
"""

from __future__ import annotations

import asyncio
import json
from itertools import groupby
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.routing_table import RouteEntry, RoutingTable
from ..mesh.serialization import faults_from_dict
from . import wire
from .compiler import Query, ReconfigurationCompiler
from .errors import (
    MalformedRequestError,
    RequestTimeoutError,
    ServiceError,
    ServiceUnavailableError,
    UnknownOperationError,
    WireProtocolError,
    to_wire,
)
from .metrics import ServiceMetrics

__all__ = ["RouteQueryServer", "WIRE_VERSION"]

WIRE_VERSION = 1

#: Floor for the drain waits in :meth:`RouteQueryServer.stop`.  An
#: already-expired deadline must still wait a beat: ``asyncio.wait(...,
#: timeout=0.0)`` means "poll once", which reports compile threads as
#: orphaned even though they finish microseconds later.
_DRAIN_WAIT_FLOOR_S = 0.1

#: Placeholder values for the per-reply slots of a memoized query
#: reply (:meth:`RouteQueryServer._route_pieces`), and their encodings.
#: The NUL makes them unlike any key or value of a route reply.
_EPOCH_SLOT = "\x00epoch"
_ID_SLOT = "\x00id"
_EPOCH_MARK = wire.encode_payload(_EPOCH_SLOT)
_ID_MARK = wire.encode_payload(_ID_SLOT)

#: A memoized query reply: the route entry (pinning its ``id()``, the
#: memo key) and the ``head``, ``mid`` and ``tail`` bytes around the
#: reply's epoch and id.
_Pieces = Tuple[RouteEntry, bytes, bytes, bytes]


class RouteQueryServer:
    """Serve compile/query traffic for one machine.

    Parameters
    ----------
    compiler:
        The :class:`~repro.service.compiler.ReconfigurationCompiler`
        owning artifact state.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read
        :attr:`port` after :meth:`start`).
    request_timeout:
        Deadline in seconds for ``compile`` and ``delta``, the ops that
        wait on a worker thread; an expired one gets a typed
        ``request-timeout`` reply instead of a hung connection.  Read
        ops are answered inline and need no deadline.
    drain_timeout:
        How long :meth:`stop` waits for in-flight work before cutting
        connections loose.
    max_frame_bytes:
        Ceiling on one request frame body.  An oversized frame is
        consumed and answered with a typed ``wire-protocol`` error;
        the connection survives.
    """

    def __init__(
        self,
        compiler: ReconfigurationCompiler,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float = 30.0,
        drain_timeout: float = 10.0,
        max_frame_bytes: int = wire.MAX_FRAME_BYTES,
    ) -> None:
        self.compiler = compiler
        self.metrics: ServiceMetrics = compiler.metrics
        self.host = host
        self.port = port
        self.request_timeout = float(request_timeout)
        self.drain_timeout = float(drain_timeout)
        self.max_frame_bytes = int(max_frame_bytes)
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set["asyncio.Task[None]"] = set()
        #: Executor futures of running compiles.  These track the
        #: worker *threads* — a request timeout abandons the awaiting
        #: coroutine but never the thread, so drain bookkeeping must
        #: hang off the future itself.
        self._compile_futures: Set["asyncio.Future[Any]"] = set()
        self._inflight_compiles = 0
        self.orphaned_compiles = 0
        self._draining = False
        self._shutdown_event: Optional[asyncio.Event] = None
        #: Encoded query-reply pieces of the live routing table, keyed
        #: by ``id()`` of the route entry (see :meth:`_memo_for`).
        self._memo_table: Optional[RoutingTable] = None
        self._memo: Dict[int, _Pieces] = {}

    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)``."""
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connect, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` request arrives, then drain."""
        assert self._shutdown_event is not None, "call start() first"
        await self._shutdown_event.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight requests
        *and compile threads*, close connections.

        Compiles whose awaiting request already timed out keep running
        in their worker thread and will still activate an epoch when
        they finish — the drain waits for those threads too (within
        ``drain_timeout``), so :attr:`orphaned_compiles` counts threads
        actually left running.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        # The floor matters when the deadline has already elapsed:
        # ``timeout=0.0`` is "poll once" to asyncio.wait, which counts
        # a compile thread finishing microseconds later as orphaned.
        pending = {t for t in self._conn_tasks if not t.done()}
        if pending:
            done, still = await asyncio.wait(
                pending,
                timeout=max(_DRAIN_WAIT_FLOOR_S, deadline - loop.time()),
            )
            for t in still:
                t.cancel()
            if still:
                await asyncio.gather(*still, return_exceptions=True)
        compiles = {f for f in self._compile_futures if not f.done()}
        if compiles:
            _, orphaned = await asyncio.wait(
                compiles,
                timeout=max(_DRAIN_WAIT_FLOOR_S, deadline - loop.time()),
            )
            self.orphaned_compiles = len(orphaned)
        else:
            self.orphaned_compiles = 0

    # ------------------------------------------------------------------
    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections.inc()
        while not self._draining:
            try:
                body = await wire.read_frame(
                    reader, max_frame_bytes=self.max_frame_bytes
                )
            except asyncio.IncompleteReadError:
                return  # truncated frame: the peer died mid-message
            except WireProtocolError as exc:
                self.metrics.wire_protocol_errors.inc()
                self._write_frame(writer, self._error_obj(None, exc))
                await writer.drain()
                if not exc.data.get("recoverable"):
                    return  # corrupt header: no next frame boundary
                continue
            if body is None:
                return  # clean EOF
            requests, is_batch, decode_error = self._decode_payload(body)
            if decode_error is not None:
                self.metrics.malformed_requests.inc()
                self._write_frame(writer, self._error_obj(None, decode_error))
                await writer.drain()
                continue
            parts, shutdown = await self._replies_for(requests)
            self._write_body(
                writer, wire.join_payloads(parts) if is_batch else parts[0]
            )
            await writer.drain()
            if shutdown:
                assert self._shutdown_event is not None
                self._shutdown_event.set()
                return
            await asyncio.sleep(0)  # one yield per message (fairness)

    @classmethod
    def _write_frame(cls, writer: asyncio.StreamWriter, obj: Any) -> None:
        """Serialize once, write header + body view (no copy)."""
        cls._write_body(writer, wire.encode_payload(obj))

    @staticmethod
    def _write_body(writer: asyncio.StreamWriter, body: bytes) -> None:
        header, view = wire.reply_views(body)
        writer.write(header)
        writer.write(view)

    # ------------------------------------------------------------------
    def _decode_payload(
        self, raw: bytes
    ) -> Tuple[List[Dict[str, Any]], bool, Optional[ServiceError]]:
        """Parse one message into ``(requests, is_batch, error)``."""
        try:
            payload = json.loads(raw)
        except ValueError:
            return [], False, MalformedRequestError(
                "request is not valid JSON"
            )
        is_batch = isinstance(payload, list)
        batch = payload if is_batch else [payload]
        if not batch:
            return [], True, MalformedRequestError("empty request batch")
        for req in batch:
            if not isinstance(req, dict):
                return [], is_batch, MalformedRequestError(
                    "each request must be a JSON object"
                )
        return batch, is_batch, None

    # ------------------------------------------------------------------
    async def _replies_for(
        self, requests: List[Dict[str, Any]]
    ) -> Tuple[List[bytes], bool]:
        """The encoded replies to one message's requests, in order, and
        whether one of them was ``shutdown`` (never raises).

        Requests run in order against live state, so a ``delta`` bumps
        the epoch for the requests behind it.  Each maximal run of
        consecutive ``query`` requests is answered by
        :meth:`_query_run`.  Only ``compile`` and ``delta`` await (a
        worker thread), under ``request_timeout``; every other op is a
        plain call that a deadline could never cut short, so it is
        answered inline with no task or timer.
        """
        parts: List[bytes] = []
        shutdown = False
        for is_query, group in groupby(requests, key=_is_query):
            if is_query:
                parts.extend(self._query_run(list(group)))
                continue
            for req in group:
                req_id = req.get("id")
                self.metrics.requests.inc()
                op = req.get("op")
                try:
                    if op == "compile" or op == "delta":
                        body = await self._handle_write(op, req)
                    else:
                        body = self._handle_read(op, req)
                except Exception as exc:
                    parts.append(self._error_body(req_id, exc))
                    continue
                self.metrics.replies_ok.inc()
                reply = {"id": req_id, "ok": True}
                reply.update(body)
                parts.append(wire.encode_payload(reply))
                shutdown = shutdown or op == "shutdown"
        return parts, shutdown

    def _query_run(self, run: List[Dict[str, Any]]) -> List[bytes]:
        """The encoded replies to a run of ``query`` requests, all
        served by one read of the current artifact
        (:meth:`~repro.service.compiler.ReconfigurationCompiler.\
route_batch`), so each reply's ``epoch`` is that of the artifact
        whose table produced its route.

        An ok reply is spliced from the memoized pieces of its route
        entry (:meth:`_route_pieces`) plus its epoch and id; error
        replies are encoded whole.
        """
        self.metrics.requests.inc(len(run))
        parts: List[bytes] = [b""] * len(run)
        queries: List[Query] = []
        slots: List[int] = []
        for k, req in enumerate(run):
            try:
                queries.append(self._parse_query(req))
            except MalformedRequestError as exc:
                parts[k] = self._error_body(req.get("id"), exc)
                continue
            slots.append(k)
        if not queries:
            return parts
        try:
            artifact, results = self.compiler.route_batch(queries)
        except Exception as exc:  # no artifact yet, or a surprise
            for k in slots:
                parts[k] = self._error_body(run[k].get("id"), exc)
            return parts
        epoch = b"%d" % artifact.epoch
        memo = self._memo_for(artifact.table)
        ok = 0
        for k, result in zip(slots, results):
            req_id = run[k].get("id")
            if isinstance(result, ServiceError):
                parts[k] = self._error_body(req_id, result)
                continue
            pieces = memo.get(id(result))
            if pieces is None:
                pieces = memo[id(result)] = self._route_pieces(result)
            _, head, mid, tail = pieces
            parts[k] = b"".join((head, epoch, mid, _encode_id(req_id), tail))
            ok += 1
        if ok:
            self.metrics.replies_ok.inc(ok)
        return parts

    def _memo_for(self, table: RoutingTable) -> Dict[int, _Pieces]:
        """The reply-piece memo of ``table``; a new live table drops the
        previous table's memo."""
        if table is not self._memo_table:
            self._memo_table = table
            self._memo = {}
        return self._memo

    @staticmethod
    def _route_pieces(entry: RouteEntry) -> _Pieces:
        """The canonical bytes of an ok reply to a query for ``entry``,
        cut around its two per-reply values: the reply body is
        ``head + epoch + mid + id + tail``.  The pieces come from
        encoding the reply with placeholder strings in those two slots,
        so they hold the ``sort_keys`` layout of
        :func:`~repro.service.wire.encode_payload` by construction.
        The entry itself is kept first: it pins the ``id()`` the memo
        is keyed on."""
        body = wire.encode_payload({
            "id": _ID_SLOT,
            "ok": True,
            "epoch": _EPOCH_SLOT,
            "source": list(entry.source),
            "dest": list(entry.dest),
            "intermediates": [list(v) for v in entry.intermediates],
            "rounds_used": entry.rounds_used,
            "hops": entry.hops,
            "turns": entry.turns,
        })
        head, rest = body.split(_EPOCH_MARK)
        mid, tail = rest.split(_ID_MARK)
        return entry, head, mid, tail

    def _error_body(self, req_id: Any, err: Exception) -> bytes:
        """The encoded error reply to one request; an exception that is
        not a :class:`ServiceError` is reported as one (typed even when
        surprised)."""
        if not isinstance(err, ServiceError):
            err = ServiceError(str(err))
        elif isinstance(err, MalformedRequestError):
            self.metrics.malformed_requests.inc()
        return wire.encode_payload(self._error_obj(req_id, err))

    def _error_obj(self, req_id: Any, err: Exception) -> Dict[str, Any]:
        self.metrics.replies_error.inc()
        return {"id": req_id, "ok": False, "error": to_wire(err)}

    # ------------------------------------------------------------------
    def _handle_read(self, op: Any, req: Dict[str, Any]) -> Dict[str, Any]:
        if op == "ping":
            return {
                "pong": True,
                "epoch": self.compiler.current_epoch,
                "wire_version": WIRE_VERSION,
            }
        if op == "stats":
            return {
                "stats": self.metrics.snapshot(),
                "store": self.compiler.store.stats(),
                "telemetry": self.metrics.registry.snapshot(),
            }
        if op == "shutdown":
            return {"draining": True}
        if not isinstance(op, str):
            raise MalformedRequestError("request is missing 'op'")
        raise UnknownOperationError(f"unknown operation {op!r}")

    async def _handle_write(
        self, op: str, req: Dict[str, Any]
    ) -> Dict[str, Any]:
        handler = (
            self._handle_compile if op == "compile" else self._handle_delta
        )
        try:
            return await asyncio.wait_for(
                handler(req), timeout=self.request_timeout
            )
        except asyncio.TimeoutError:
            self.metrics.timeouts.inc()
            raise RequestTimeoutError(
                f"'{op}' exceeded the server deadline of "
                f"{self.request_timeout}s"
            ) from None

    async def _handle_compile(self, req: Dict[str, Any]) -> Dict[str, Any]:
        if self._draining:
            raise ServiceUnavailableError("server is draining")
        spec = req.get("faults")
        if not isinstance(spec, dict):
            raise MalformedRequestError(
                "'compile' needs a 'faults' fault-set record"
            )
        try:
            faults = faults_from_dict(spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRequestError(f"bad fault-set record: {exc}")
        artifact, source = await self._run_compile(
            self.compiler.compile, faults
        )
        body = artifact.summary()
        body["cache_hit"] = source != "compiled"
        body["source"] = source
        return body

    async def _handle_delta(self, req: Dict[str, Any]) -> Dict[str, Any]:
        if self._draining:
            raise ServiceUnavailableError("server is draining")
        try:
            nodes = [
                tuple(int(x) for x in v)
                for v in req.get("node_faults", [])
            ]
            links = [
                (tuple(int(x) for x in u), tuple(int(x) for x in w))
                for (u, w) in req.get("link_faults", [])
            ]
        except (TypeError, ValueError) as exc:
            raise MalformedRequestError(f"bad fault delta: {exc}")
        artifact, source = await self._run_compile(
            self.compiler.apply_delta, nodes, links
        )
        body = artifact.summary()
        body["cache_hit"] = source != "compiled"
        body["source"] = source
        return body

    async def _run_compile(self, fn: Any, *args: Any) -> Any:
        """Offload a compile to a worker thread, tracked for drain.

        The bookkeeping hangs off the executor *future*, not the
        awaiting coroutine: when a request timeout cancels the await,
        the thread keeps running, so ``_inflight_compiles`` must only
        drop when the thread actually finishes.  ``asyncio.shield``
        keeps the cancellation from reaching the future itself (a
        cancelled future would fire the done-callback while the thread
        is still alive — exactly the undercount being prevented).
        """
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(None, fn, *args)
        self._inflight_compiles += 1
        self._compile_futures.add(future)

        def _on_done(fut: "asyncio.Future[Any]") -> None:
            self._inflight_compiles -= 1
            self._compile_futures.discard(fut)
            if not fut.cancelled():
                # Mark a late failure as retrieved: after a timeout
                # nobody awaits this future any more, and its typed
                # error was already reported to the client as a
                # request-timeout reply.
                fut.exception()

        future.add_done_callback(_on_done)
        return await asyncio.shield(future)

    @staticmethod
    def _parse_query(req: Dict[str, Any]) -> Query:
        """A ``query`` request's ``(source, dest, epoch)``, endpoints
        as int tuples (the table lookup then converts nothing again)."""
        source = req.get("source")
        dest = req.get("dest")
        if not isinstance(source, list) or not isinstance(dest, list):
            raise MalformedRequestError(
                "'query' needs 'source' and 'dest' coordinate lists"
            )
        epoch = req.get("epoch")
        if epoch is not None and not isinstance(epoch, int):
            raise MalformedRequestError("'epoch' must be an integer")
        try:
            return tuple(map(int, source)), tuple(map(int, dest)), epoch
        except (TypeError, ValueError) as exc:
            raise MalformedRequestError(f"bad coordinates: {exc}")


def _is_query(req: Dict[str, Any]) -> bool:
    return req.get("op") == "query"


def _encode_id(req_id: Any) -> bytes:
    """The canonical JSON of a request id (ints, the common case, by
    ``%d``; ``bool`` is not ``int`` here, so ``true`` stays ``true``)."""
    if type(req_id) is int:
        return b"%d" % req_id
    return wire.encode_payload(req_id)
