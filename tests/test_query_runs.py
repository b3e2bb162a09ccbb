"""Query runs answered from spliced replies, checked byte for byte.

The server answers each run of consecutive ``query`` requests with one
read of the current artifact and splices every ok reply from memoized
bytes of its route entry.  A seeded mixed stream pins what that must
not change: every reply frame is canonical JSON
(``wire.encode_payload`` of its own decoding), and the transcript of
all frames, with the timing fields of ``stats`` replies zeroed, hashes
to the digest of the bytes the server wrote when it encoded one reply
dict at a time.  The stream covers int, string, float, bool, object,
null and missing ids; a stale epoch, malformed coordinates and
non-survivor endpoints mid-run; ``ping``, ``stats`` and an unknown op
between runs; a ``delta`` and a re-activating ``compile`` mid-batch;
and single, non-batch queries.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.mesh import Mesh, random_node_faults
from repro.mesh.serialization import faults_to_dict
from repro.obs.metrics import Histogram
from repro.routing import repeated, xy
from repro.service import ReconfigurationCompiler, wire
from repro.service.errors import ServiceError
from repro.service.server import RouteQueryServer
from repro.service.store import ArtifactStore

#: sha256 of :func:`_transcript`'s frames joined by newlines, captured
#: from the server that encoded each reply dict with ``json.dumps``.
TRANSCRIPT_SHA256 = (
    "9b7cbae883ef4389d5925feb795510013ba78aee450f28300d74e8f8e6b1fdbe"
)

#: The closing ``stats`` reply's counters, from the same server.
FINAL_COUNTERS: Dict[str, int] = {
    "compiles": 2,
    "connections": 1,
    "degraded_compiles": 0,
    "incremental_compiles": 1,
    "malformed_requests": 8,
    "queries": 131,
    "replies_error": 18,
    "replies_ok": 133,
    "requests": 152,
    "stale_epoch_rejections": 9,
    "timeouts": 0,
    "wire_protocol_errors": 0,
}

Node = Tuple[int, int]


def _redact(obj: Any) -> Any:
    """``obj`` with every duration-valued field (``*_s``) zeroed."""
    if isinstance(obj, dict):
        return {
            k: 0.0 if k.endswith("_s") else _redact(v)
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return [_redact(v) for v in obj]
    return obj


def _id_for(k: int) -> Dict[str, Any]:
    """Request id fields cycling through every JSON id shape."""
    kind = k % 8
    if kind == 0:
        return {"id": k}
    if kind == 1:
        return {"id": f"q-{k}"}
    if kind == 2:
        return {"id": None}
    if kind == 3:
        return {}  # no id: the reply's is null
    if kind == 4:
        return {"id": k + 0.5}
    if kind == 5:
        return {"id": bool(k % 3)}
    if kind == 6:
        return {"id": {"n": k, "a": [k, "xé"]}}  # sort_keys, escapes
    return {"id": -k}


class _Stream:
    """The seeded request stream and the raw reply frames it drew."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, 29])
        self.mesh = Mesh.square(2, 16)
        self.base = random_node_faults(self.mesh, 8, self.rng)
        self.bodies: List[bytes] = []
        self.k = 0

    def _query(self, pair: Tuple[Node, Node],
               epoch: Optional[int]) -> Dict[str, Any]:
        req: Dict[str, Any] = {"op": "query", "source": list(pair[0]),
                               "dest": list(pair[1])}
        if epoch is not None:
            req["epoch"] = epoch
        req.update(_id_for(self.k))
        self.k += 1
        return req

    def _pairs(self, survivors: List[Node],
               n: int) -> List[Tuple[Node, Node]]:
        pairs = []
        for _ in range(n):
            a, b = self.rng.choice(len(survivors), size=2, replace=False)
            pairs.append((survivors[int(a)], survivors[int(b)]))
        return pairs

    async def _send(self, reader, writer, obj: Any) -> Any:
        writer.write(wire.encode_frame(obj))
        await writer.drain()
        body = await wire.read_frame(reader)
        assert body is not None
        self.bodies.append(body)
        return json.loads(body)

    async def run(self, host: str, port: int) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await self._drive(reader, writer)
        finally:
            writer.close()
            await writer.wait_closed()

    async def _drive(self, reader, writer) -> None:
        faulty = sorted(self.base.node_faults)
        compiled = await self._send(reader, writer, {
            "id": "c0", "op": "compile", "faults": faults_to_dict(self.base),
        })
        e0 = compiled["epoch"]
        lambs = sorted(tuple(v) for v in compiled["lamb_nodes"])
        unusable = set(faulty) | set(lambs)
        survivors = [v for v in self.mesh.nodes() if v not in unusable]
        first = self._pairs(survivors, 40)
        q = self._query

        # Two runs around ping / stats / an unknown op, with errors
        # mid-run: stale epoch, bad coordinates, non-survivor endpoints.
        run_a = [q(p, e0 if i % 2 else None) for i, p in enumerate(first)]
        run_a[9]["epoch"] = e0 + 7
        run_a[14]["source"] = [1, "x"]
        run_a[19]["source"] = list(faulty[0])
        run_a[23]["dest"] = "0,0"
        run_a[27]["epoch"] = "3"
        if lambs:
            run_a[31]["dest"] = list(lambs[0])
        middle = [{"id": "p", "op": "ping"}, {"id": "s", "op": "stats"},
                  {"id": "w", "op": "warp"}, {"op": None}]
        run_b = [q(p, e0) for p in first[::3] + self._pairs(survivors, 20)]
        await self._send(reader, writer, run_a + middle + run_b)

        # A delta mid-batch: pinned queries behind it are stale, the
        # rest are served from the new table.
        victim = survivors[int(self.rng.integers(len(survivors)))]
        before = [q(p, e0) for p in first[:20]]
        delta = {"id": "d", "op": "delta", "node_faults": [list(victim)]}
        tail = first[:20] + [(victim, survivors[0])]
        after = [q(p, e0 if i % 3 == 0 else None)
                 for i, p in enumerate(tail)]
        replies = await self._send(reader, writer, before + [delta] + after)
        e1 = replies[len(before)]["epoch"]

        # Single, non-batch queries: ok, stale, non-survivor endpoint.
        await self._send(reader, writer, q(first[0], None))
        await self._send(reader, writer, q(first[1], e0))
        await self._send(reader, writer, q(((0, 0), (99, 99)), e1))

        # Memo hits on the new table, then the base config compiled
        # again (its cached artifact re-activated under a fresh epoch)
        # mid-batch, then queries on the old table once more.
        again = [q(p, None) for p in first[20:30] + first[20:25]]
        recompile = {"id": "c1", "op": "compile",
                     "faults": faults_to_dict(self.base)}
        back = [q(p, None) for p in first[:10]]
        await self._send(reader, writer, again + [recompile] + back
                         + [{"id": "s2", "op": "stats"}])
        await self._send(reader, writer, {"id": "end", "op": "stats"})


def _transcript(seed: int = 0) -> Tuple[List[bytes], List[bytes]]:
    """``(raw frame bodies, redacted canonical bodies)`` of the seeded
    stream against a fresh server."""
    stream = _Stream(seed)

    async def main() -> None:
        compiler = ReconfigurationCompiler(
            stream.mesh, repeated(xy(), 2), store=ArtifactStore(),
            slow_query_seconds=3600.0, slow_compile_seconds=3600.0,
        )
        server = RouteQueryServer(compiler)
        host, port = await server.start()
        try:
            await stream.run(host, port)
        finally:
            await server.stop()

    asyncio.run(main())
    redacted = [
        wire.encode_payload(_redact(json.loads(body)))
        for body in stream.bodies
    ]
    return stream.bodies, redacted


@pytest.fixture(scope="module")
def transcript() -> Tuple[List[bytes], List[bytes]]:
    return _transcript()


def test_every_frame_is_canonical_json(transcript):
    raw, _ = transcript
    assert len(raw) == 8
    for body in raw:
        assert wire.encode_payload(json.loads(body)) == body


def test_transcript_matches_the_one_reply_at_a_time_bytes(transcript):
    _, redacted = transcript
    digest = hashlib.sha256(b"\n".join(redacted)).hexdigest()
    assert digest == TRANSCRIPT_SHA256


def test_final_stats_counters(transcript):
    raw, _ = transcript
    final = json.loads(raw[-1])
    assert final["stats"]["counters"] == FINAL_COUNTERS
    telemetry = final["telemetry"]
    assert telemetry["histograms"]["service_query_seconds"]["count"] == (
        final["stats"]["query_latency"]["count"]
    )


def test_stream_covers_the_cases(transcript):
    """The stream reaches what it claims to: every error code, every
    id shape, both epochs and a re-activation."""
    raw, _ = transcript
    replies = []
    for body in raw:
        msg = json.loads(body)
        replies.extend(msg if isinstance(msg, list) else [msg])
    codes = {r["error"]["code"] for r in replies if not r["ok"]}
    assert {"stale-epoch", "malformed-request",
            "unknown-operation"} <= codes
    ids = {type(r["id"]).__name__ for r in replies}
    assert {"int", "str", "float", "bool", "dict", "NoneType"} <= ids
    epochs = {r["epoch"] for r in replies if r["ok"] and "hops" in r}
    assert len(epochs) == 3


class TestHistogramObserveMany:
    # Bucket bounds (0.0001, 0.25, 10.0) included: a value on a bound
    # lands in that bound's bucket.
    VALUES = [0.0, 3e-5, 0.0001, 0.0004, 0.002, 0.25, 0.3, 0.3, 9.0,
              10.0, 12.0, 1e-7, 0.0001]

    def test_equals_repeated_observe(self):
        one, many = Histogram(), Histogram()
        for v in self.VALUES:
            one.observe(v)
        many.observe_many(self.VALUES[:4])
        many.observe_many([])
        many.observe_many(self.VALUES[4:])
        assert many.snapshot() == one.snapshot()
        assert (many.counts, many.overflow, many.total, many.sum,
                many.max) == (one.counts, one.overflow, one.total,
                              one.sum, one.max)

    def test_a_negative_value_raises_and_records_nothing(self):
        h = Histogram()
        h.observe(0.001)
        before = h.snapshot()
        with pytest.raises(ValueError, match="negative"):
            h.observe_many([0.002, -1e-9, 0.003])
        assert h.snapshot() == before
        assert h.sum == 0.001


class TestColdRuns:
    """A run on a cold table routes its misses as one batch in query
    order: the routes equal one-query-at-a-time routing, the counters
    and histograms count what they did before, and a miss's latency
    carries its share of the batch."""

    @staticmethod
    def _compiled(**kwargs: Any):
        mesh = Mesh.square(2, 12)
        faults = random_node_faults(mesh, 6, np.random.default_rng(4))
        compiler = ReconfigurationCompiler(
            mesh, repeated(xy(), 2), store=ArtifactStore(), **kwargs
        )
        artifact, _ = compiler.compile(faults)
        return compiler, artifact

    @staticmethod
    def _queries(artifact) -> List[Tuple[Node, Node, Optional[int]]]:
        """Six distinct misses, repeats of three of them, a non-survivor
        endpoint and a stale epoch, in one run."""
        result = artifact.result
        survivors = [v for v in result.mesh.nodes() if result.is_survivor(v)]
        p = [(survivors[i], survivors[-1 - 3 * i]) for i in range(6)]
        faulty = sorted(result.faults.node_faults)[0]
        live = artifact.epoch
        return [
            (*p[0], None), (*p[1], live), (*p[0], live), (faulty, p[2][1], None),
            (*p[2], live), (*p[3], live + 1), (*p[1], None), (*p[3], None),
            (p[4][0], faulty, live), (*p[4], None), (*p[2], None), (*p[5], live),
        ]

    def test_routes_equal_one_query_at_a_time(self):
        compiler, artifact = self._compiled()
        queries = self._queries(artifact)
        _, batch = compiler.route_batch(queries)
        reference, _ = self._compiled()
        one_by_one = [reference.route_batch([q])[1][0] for q in queries]
        assert [type(r) for r in batch] == [type(r) for r in one_by_one]
        for got, want in zip(batch, one_by_one):
            if isinstance(want, ServiceError):
                assert str(got) == str(want)
            else:
                assert got == want
        assert [type(r).__name__ for r in batch].count("RouteEntry") == 9
        assert len(artifact.table) == 6

    def test_counters_and_histograms(self):
        compiler, artifact = self._compiled(slow_query_seconds=3600.0)
        _, results = compiler.route_batch(self._queries(artifact))
        answered = sum(not isinstance(r, ServiceError) for r in results)
        metrics, reg = compiler.metrics, compiler.metrics.registry
        assert answered == 9
        assert metrics.queries.value == 11  # every query but the stale one
        assert metrics.stale_epoch_rejections.value == 1
        assert metrics.query_latency.total == answered
        op = reg.histogram("op_seconds", op="service.query")
        assert op.total == answered
        assert reg.counter("slow_ops_total", op="service.query").value == 0

    def test_a_miss_carries_its_share_of_the_batch(self, monkeypatch):
        """The run's replies leave together, so its lookup stage (the
        batch resolve) is charged in equal shares to the answered
        queries: with the stage slowed to 0.3 s, each of the 11 routable
        queries carries 0.3 / 11 s, and the 9 answered ones are logged
        as slow past a 0.02 s threshold, with the run's epoch."""
        compiler, artifact = self._compiled(slow_query_seconds=0.02)
        table = artifact.table
        resolve = table.resolve

        def slow_resolve(pairs):
            time.sleep(0.3)
            return resolve(pairs)

        monkeypatch.setattr(table, "resolve", slow_resolve)
        compiler.route_batch(self._queries(artifact))
        reg = compiler.metrics.registry
        assert reg.histogram("op_seconds", op="service.query").total == 9
        assert reg.counter("slow_ops_total", op="service.query").value == 9
        slow = [e for e in reg.events()
                if e["kind"] == "slow_op" and e["op"] == "service.query"]
        assert all(e["s"] >= 0.3 / 11 for e in slow)
        assert {e["epoch"] for e in slow} == {artifact.epoch}
        latency = compiler.metrics.query_latency
        assert latency.total == 9 and latency.sum >= 9 * 0.3 / 11
