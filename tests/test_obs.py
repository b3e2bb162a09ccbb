"""The unified telemetry layer: spans, registry, exporters, CLI.

Four properties pinned here, matching the observability contract:

1. **Deterministic span identity** — span ids derive from
   ``blake2b(name:seq)``, not clocks, so two runs of the same seeded
   workload emit byte-identical redacted event streams; nesting
   (parent/depth) follows the contextvar scoping, and spans opened on
   worker threads never see another thread's span as a parent.
2. **Exporter output on the seeded smoke** — the Prometheus text,
   NDJSON, and JSON renders of :func:`run_telemetry_smoke` contain the
   lamb-phase / simulator / control-plane / trial-engine series the
   docs promise, and are byte-identical across two runs under
   ``redact_timings=True`` (the invariant ``make obs-smoke`` diffs).
3. **Thread safety** — counters, histograms, and the event log take
   concurrent mutation from many threads (including compiler route
   workers sharing one registry) without losing updates.
4. **CLI round-trip** — ``repro stats --telemetry PREFIX`` writes all
   three export files and each parses back to the same registry state.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.mesh import Mesh
from repro.mesh.faults import FaultSet
from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    TelemetryRegistry,
    events_to_ndjson,
    export_all,
    get_registry,
    run_telemetry_smoke,
    snapshot_to_json,
    to_prometheus,
    use_registry,
)
from repro.routing.ordering import repeated, xy
from repro.service.compiler import ReconfigurationCompiler
from repro.service.metrics import ServiceMetrics

#: Shared smoke parameters: small enough to keep the suite quick,
#: large enough that the mid-run fault still tears out live messages.
SMOKE_KW = dict(seed=0, messages=40)


@pytest.fixture(scope="module")
def smoke_pair():
    """Two independent runs of the seeded smoke (for byte-diffing)."""
    return run_telemetry_smoke(**SMOKE_KW), run_telemetry_smoke(**SMOKE_KW)


# ----------------------------------------------------------------------
# 1. Spans: nesting, determinism, thread isolation
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_records_parent_and_depth(self):
        reg = TelemetryRegistry()
        with reg.span("outer") as outer:
            with reg.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.depth == 1
            with reg.span("sibling") as sibling:
                assert sibling.parent_id == outer.span_id
        events = {e["name"]: e for e in reg.events() if e["kind"] == "span"}
        assert events["inner"]["parent"] == events["outer"]["id"]
        assert events["sibling"]["parent"] == events["outer"]["id"]
        assert events["outer"]["parent"] is None
        assert events["outer"]["depth"] == 0
        # Exiting restores the enclosing scope: a span opened after
        # the outer closes is a root again.
        with reg.span("later") as later:
            assert later.parent_id is None

    def test_span_seconds_populated_after_exit(self):
        reg = TelemetryRegistry()
        with reg.span("timed") as sp:
            pass
        assert sp.seconds >= 0.0
        hist = reg.histogram("span_seconds", span="timed")
        assert hist.total == 1
        assert reg.counter("spans_total", span="timed").value == 1

    def test_span_ids_are_seeded_deterministic(self):
        def emit(reg):
            with reg.span("a", k=2):
                with reg.span("b"):
                    pass
            with reg.span("a", k=2):
                pass
            return reg

        a = emit(TelemetryRegistry())
        b = emit(TelemetryRegistry())
        # Identical redacted event streams => identical ids, parents,
        # sequence numbers, attrs.
        assert events_to_ndjson(a, redact_timings=True) == events_to_ndjson(
            b, redact_timings=True
        )
        # Same name, later sequence number => different id (ids encode
        # position, not just the label).
        ids = [e["id"] for e in a.events() if e["name"] == "a"]
        assert len(ids) == 2 and ids[0] != ids[1]

    def test_spans_on_worker_threads_nest_independently(self):
        reg = TelemetryRegistry()
        seen = {}

        def worker():
            with reg.span("thread-root") as sp:
                seen["parent"] = sp.parent_id
                seen["depth"] = sp.depth

        with reg.span("main-root"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # The contextvar does not leak across threads: the worker's
        # span is a root even though main had one open.
        assert seen == {"parent": None, "depth": 0}

    def test_span_attrs_land_in_event(self):
        reg = TelemetryRegistry()
        with reg.span("attrs", method="bipartite", f=3):
            pass
        (event,) = [e for e in reg.events() if e["kind"] == "span"]
        assert event["attr_method"] == "bipartite"
        assert event["attr_f"] == 3


# ----------------------------------------------------------------------
# Registry plumbing: event cap, slow ops, ambient scoping, reset
# ----------------------------------------------------------------------
class TestRegistry:
    def test_event_log_cap_counts_drops(self):
        reg = TelemetryRegistry(max_events=3)
        for i in range(5):
            reg.event("tick", i=i)
        snap = reg.snapshot()
        assert snap["events"]["recorded"] == 3
        assert snap["events"]["dropped"] == 2

    def test_slow_op_thresholding(self):
        reg = TelemetryRegistry()
        assert not reg.slow_op("fast", 0.001, threshold=1.0)
        assert reg.slow_op("slow", 2.0, threshold=1.0, digest="abc")
        # Both observe op_seconds; only the slow one logs + counts.
        assert reg.histogram("op_seconds", op="fast").total == 1
        assert reg.counter("slow_ops_total", op="slow").value == 1
        assert reg.counter("slow_ops_total", op="fast").value == 0
        (event,) = [e for e in reg.events() if e["kind"] == "slow_op"]
        assert event["op"] == "slow"
        assert event["digest"] == "abc"
        assert event["threshold_s"] == 1.0

    def test_use_registry_installs_and_restores(self):
        before = get_registry()
        with use_registry() as reg:
            assert get_registry() is reg
            assert reg is not before
        assert get_registry() is before

    def test_reset_is_idempotent_and_total(self):
        reg = TelemetryRegistry()
        reg.inc("c")
        reg.observe("h", 0.1)
        reg.event("e")
        reg.reset()
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}
        assert snap["events"] == {"dropped": 0, "recorded": 0}

    def test_metric_primitives_guard_invalid_input(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)
        with pytest.raises(ValueError):
            Histogram().observe(-0.5)
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)
        g = Gauge()
        g.set(7)
        assert g.value == 7.0
        assert DEFAULT_BUCKETS == tuple(sorted(DEFAULT_BUCKETS))


# ----------------------------------------------------------------------
# 2. Exporters: format shape + smoke determinism
# ----------------------------------------------------------------------
class TestExporters:
    def _tiny_registry(self):
        reg = TelemetryRegistry()
        reg.inc("requests_total", 3, route="xy")
        reg.gauge("epoch", value=4.0)
        reg.observe("latency_seconds", 0.003, op="route")
        return reg

    def test_prometheus_suffixes_go_before_labels(self):
        text = to_prometheus(self._tiny_registry())
        assert '# TYPE requests_total counter' in text
        assert 'requests_total{route="xy"} 3' in text
        assert "# TYPE epoch gauge" in text
        assert "epoch 4" in text
        assert "# TYPE latency_seconds histogram" in text
        # The histogram suffix lands on the family name, not after the
        # label braces.
        assert 'latency_seconds_bucket{op="route",le="+Inf"} 1' in text
        assert 'latency_seconds_count{op="route"} 1' in text
        assert 'latency_seconds_sum{op="route"}' in text
        assert "{op=\"route\"}_bucket" not in text

    def test_prometheus_redaction_collapses_buckets(self):
        text = to_prometheus(self._tiny_registry(), redact_timings=True)
        # Bucket placement is timing information: redacted output keeps
        # only the +Inf total.
        assert 'latency_seconds_bucket{op="route",le="+Inf"} 1' in text
        assert 'latency_seconds_sum{op="route"} 0.0' in text
        for line in text.splitlines():
            if "_bucket" in line and '+Inf' not in line:
                assert line.endswith(" 0")

    def test_ndjson_lines_parse_and_redact(self):
        reg = TelemetryRegistry()
        with reg.span("x"):
            pass
        reg.slow_op("op", 5.0, threshold=1.0)
        lines = events_to_ndjson(reg, redact_timings=True).splitlines()
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            assert record["s"] == 0.0
        assert json.loads(lines[1])["threshold_s"] == 0.0

    def test_snapshot_json_round_trips(self):
        reg = self._tiny_registry()
        snap = json.loads(snapshot_to_json(reg))
        assert snap["counters"]['requests_total{route="xy"}'] == 3
        assert snap["gauges"]["epoch"] == 4.0
        hist = snap["histograms"]['latency_seconds{op="route"}']
        assert hist["count"] == 1

    def test_export_all_writes_three_formats(self, tmp_path):
        prefix = str(tmp_path / "tel")
        reg = self._tiny_registry()
        reg.event("marker", note="export")
        written = export_all(reg, prefix)
        assert sorted(written) == ["json", "ndjson", "prom"]
        for fmt, path in written.items():
            assert path == f"{prefix}.{fmt}"
            with open(path) as fh:
                assert fh.read()


class TestSmokeDeterminism:
    """The seeded smoke behind ``repro stats`` / ``make obs-smoke``."""

    def test_redacted_exports_byte_identical(self, smoke_pair):
        a, b = smoke_pair
        for render in (to_prometheus, events_to_ndjson, snapshot_to_json):
            assert render(a, redact_timings=True) == render(
                b, redact_timings=True
            ), f"{render.__name__} differs between seeded runs"

    def test_prometheus_contains_every_layer(self, smoke_pair):
        text = to_prometheus(smoke_pair[0], redact_timings=True)
        expected = (
            # lamb pipeline phase spans (Fig. 14 stages)
            'span_seconds_bucket{span="lamb.partition",le="+Inf"}',
            'span_seconds_bucket{span="lamb.reachability",le="+Inf"}',
            'span_seconds_bucket{span="lamb.wvc",le="+Inf"}',
            # once directly + once per fresh compile (miss + delta)
            'spans_total{span="lamb.find_lamb_set"} 3',
            "lamb_runs_total",
            # simulator per-run counters
            "sim_cycles_total ",
            "sim_stall_cycles_total ",
            "sim_park_events_total ",
            'sim_aborts_total{reason="endpoint-failed"} 1',
            "sim_retries_total ",
            # control plane (ServiceMetrics fronting the registry)
            "service_compiles_total 2",
            "service_incremental_compiles_total 1",
            'service_cache_total{result="hit"} 1',
            'service_cache_total{result="miss"} 2',  # fresh + delta
            "service_queries_total 1",
            # registry self-accounting
            "telemetry_events_dropped 0",
        )
        for needle in expected:
            assert needle in text, f"missing series: {needle}"

    def test_ndjson_smoke_spans_nest_under_pipeline(self, smoke_pair):
        records = [
            json.loads(line)
            for line in events_to_ndjson(smoke_pair[0]).splitlines()
        ]
        spans = {r["name"]: r for r in records if r["kind"] == "span"}
        root = spans["lamb.find_lamb_set"]
        for phase in ("lamb.partition", "lamb.reachability", "lamb.wvc"):
            assert spans[phase]["parent"] == root["id"]
            assert spans[phase]["depth"] == root["depth"] + 1

    def test_snapshot_matches_stats_rpc_shape(self, smoke_pair):
        snap = json.loads(snapshot_to_json(smoke_pair[0]))
        assert set(snap) == {"counters", "events", "gauges", "histograms"}
        assert snap["gauges"]["service_epoch"] >= 1.0  # delta bumped it


# ----------------------------------------------------------------------
# 3. Thread safety
# ----------------------------------------------------------------------
class TestThreadSafety:
    def test_concurrent_counter_and_histogram_updates_exact(self):
        reg = TelemetryRegistry()
        threads, per = 16, 500

        def hammer(i):
            for _ in range(per):
                reg.inc("hammer_total", worker=i % 4)
                reg.observe("hammer_seconds", 0.001)
            return i

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(hammer, range(threads)))
        total = sum(
            reg.counter("hammer_total", worker=w).value for w in range(4)
        )
        assert total == threads * per
        assert reg.histogram("hammer_seconds").total == threads * per

    def test_concurrent_events_respect_cap_exactly(self):
        reg = TelemetryRegistry(max_events=100)

        def emit(i):
            for j in range(50):
                reg.event("tick", i=i, j=j)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(emit, range(8)))
        snap = reg.snapshot()
        assert snap["events"]["recorded"] == 100
        assert snap["events"]["dropped"] == 8 * 50 - 100

    def test_compiler_route_workers_share_one_registry(self):
        """Route queries from many threads against one compiler must
        account exactly in the shared registry (the serve deployment
        shape: worker threads + one ambient registry)."""
        reg = TelemetryRegistry()
        mesh = Mesh((8, 8))
        orderings = repeated(xy(), 2)
        compiler = ReconfigurationCompiler(
            mesh, orderings, metrics=ServiceMetrics(registry=reg)
        )
        faults = FaultSet(mesh, ((1, 1),))
        compiler.compile(faults)
        art = compiler.current
        assert art is not None
        survivors = [
            v
            for v in mesh.nodes()
            if not art.result.faults.node_is_faulty(v)
            and v not in art.result.lambs
        ]
        threads, per = 8, 25

        def query(i):
            src = survivors[i % len(survivors)]
            dst = survivors[-1 - (i % (len(survivors) - 1))]
            for _ in range(per):
                compiler.route(src, dst)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(query, range(threads)))
        expected = threads * per
        assert compiler.metrics.queries.value == expected
        assert reg.counter("service_queries_total").value == expected
        assert reg.histogram("service_query_seconds").total == expected
        # Every route also feeds the generic slow-op histogram.
        assert (
            reg.histogram("op_seconds", op="service.query").total == expected
        )


# ----------------------------------------------------------------------
# 4. CLI --telemetry round-trip
# ----------------------------------------------------------------------
class TestCliRoundTrip:
    def test_stats_telemetry_exports_parse_back(self, tmp_path, capsys):
        from repro.cli import main

        prefix = str(tmp_path / "tel")
        rc = main(
            [
                "stats",
                "--redact-timings",
                "--format",
                "json",
                "--messages",
                "20",
                "--telemetry",
                prefix,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # stdout carries the JSON snapshot followed by the export log.
        body, _, tail = out.partition("telemetry: wrote ")
        printed = json.loads(body)
        with open(prefix + ".json") as fh:
            exported = json.load(fh)
        assert exported == printed
        assert exported["counters"]["service_compiles_total"] == 2
        assert tail  # at least one "telemetry: wrote" line
        with open(prefix + ".prom") as fh:
            prom = fh.read()
        assert "# TYPE span_seconds histogram" in prom
        assert "sim_cycles_total" in prom
        with open(prefix + ".ndjson") as fh:
            for line in fh:
                record = json.loads(line)
                if "s" in record:
                    assert record["s"] == 0.0

    def test_stats_redacted_runs_are_byte_identical(self, tmp_path, capsys):
        """The exact invariant ``make obs-smoke`` enforces, through
        the CLI entry point."""
        from repro.cli import main

        outputs = []
        for tag in ("a", "b"):
            prefix = str(tmp_path / tag)
            assert (
                main(
                    [
                        "stats",
                        "--redact-timings",
                        "--format",
                        "prom",
                        "--messages",
                        "20",
                        "--telemetry",
                        prefix,
                    ]
                )
                == 0
            )
            capsys.readouterr()
            files = {}
            for ext in ("prom", "ndjson", "json"):
                with open(f"{prefix}.{ext}") as fh:
                    files[ext] = fh.read()
            outputs.append(files)
        assert outputs[0] == outputs[1]
