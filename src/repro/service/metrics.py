"""Control-plane metrics, fronting the shared telemetry registry.

:class:`ServiceMetrics` keeps its historical attribute API — named
counters (``metrics.compiles.inc()``), latency histograms, an epoch
gauge, and the deterministic JSON snapshot served by the ``stats``
RPC — but since the unified observability layer landed it *allocates*
every primitive through a :class:`repro.obs.TelemetryRegistry` instead
of owning private ones.  The primitives themselves (``Counter``,
``Gauge``, ``Histogram``) live in :mod:`repro.obs.metrics`.

By default each :class:`ServiceMetrics` gets a *private* fresh
registry, so unit tests that assert exact counts stay isolated.  Pass
``registry=repro.obs.get_registry()`` (the CLI's ``serve`` path does)
to publish the control-plane series into the ambient process-wide
registry alongside the lamb-pipeline spans and simulator counters.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..obs.registry import TelemetryRegistry

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """Everything the control plane measures about itself.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.TelemetryRegistry` to allocate the
        primitives through.  ``None`` (default) creates a private
        fresh registry — exact-count isolation for tests; the serve
        CLI passes the ambient registry so ``stats`` and the
        ``--telemetry`` exporters see one coherent set of series.
    """

    def __init__(self, registry: Optional[TelemetryRegistry] = None) -> None:
        reg = TelemetryRegistry() if registry is None else registry
        self.registry = reg
        self.requests = reg.counter("service_requests_total")
        self.replies_ok = reg.counter("service_replies_total", status="ok")
        self.replies_error = reg.counter(
            "service_replies_total", status="error"
        )
        self.cache_hits = reg.counter("service_cache_total", result="hit")
        self.cache_misses = reg.counter("service_cache_total", result="miss")
        self.compiles = reg.counter("service_compiles_total")
        self.incremental_compiles = reg.counter(
            "service_incremental_compiles_total"
        )
        self.degraded_compiles = reg.counter("service_degraded_compiles_total")
        self.queries = reg.counter("service_queries_total")
        self.stale_epoch_rejections = reg.counter(
            "service_stale_epoch_rejections_total"
        )
        self.malformed_requests = reg.counter(
            "service_malformed_requests_total"
        )
        self.timeouts = reg.counter("service_timeouts_total")
        self.connections = reg.counter("service_connections_total")
        self.wire_protocol_errors = reg.counter(
            "service_wire_protocol_errors_total"
        )
        self.compile_latency = reg.histogram("service_compile_seconds")
        self.query_latency = reg.histogram("service_query_seconds")
        self.epoch = reg.gauge("service_epoch", value=-1.0)

    def hit_rate(self) -> float:
        total = self.cache_hits.value + self.cache_misses.value
        return self.cache_hits.value / total if total else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic JSON-able readout (the ``stats`` RPC body)."""
        return {
            "cache": {
                "hit_rate": round(self.hit_rate(), 4),
                "hits": self.cache_hits.value,
                "misses": self.cache_misses.value,
            },
            "compile_latency": self.compile_latency.snapshot(),
            "counters": {
                "compiles": self.compiles.value,
                "connections": self.connections.value,
                "degraded_compiles": self.degraded_compiles.value,
                "incremental_compiles": self.incremental_compiles.value,
                "malformed_requests": self.malformed_requests.value,
                "queries": self.queries.value,
                "replies_error": self.replies_error.value,
                "replies_ok": self.replies_ok.value,
                "requests": self.requests.value,
                "stale_epoch_rejections": self.stale_epoch_rejections.value,
                "timeouts": self.timeouts.value,
                "wire_protocol_errors": self.wire_protocol_errors.value,
            },
            "epoch": int(self.epoch.value),
            "query_latency": self.query_latency.snapshot(),
        }
