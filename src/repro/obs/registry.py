"""The unified telemetry registry: spans, counters, gauges, histograms.

One :class:`TelemetryRegistry` holds everything a process measures
about itself.  Library layers grab the ambient registry at *call* time
(:func:`get_registry`) and record into it:

- the lamb pipeline wraps its three phases (Find-SES-Partition,
  Find-Reachability, WVC) in :meth:`TelemetryRegistry.span`;
- the wormhole simulator publishes per-run counters (cycles, stall
  cycles, park/wake events, aborts by reason, retries);
- the control plane's :class:`repro.service.metrics.ServiceMetrics`
  allocates its counters/histograms *through* a registry.

Design constraints
------------------
*Low overhead*: a span costs two ``perf_counter`` calls, one contextvar
set/reset, and one appended event; a counter bump is a dict lookup
plus a lock.  Nothing in the per-cycle simulator hot loop touches the
registry — the simulator aggregates plain ints and publishes deltas
once per ``run()``.

*Deterministic identity*: span ids are **seeded-deterministic** — they
derive from ``blake2b(name : sequence-number)``, not from a clock or a
PRNG, so two runs of the same seeded workload produce byte-identical
event streams once duration fields are redacted
(``snapshot(redact_timings=True)``; ``make obs-smoke`` pins this).

*Thread safety*: all mutation goes through one re-entrant lock; the
contextvar scoping means spans opened on different threads (or asyncio
tasks) nest independently and never see each other as parents.

*Bounded memory*: the event log is capped (``max_events``); past the
cap events are counted in ``events_dropped`` instead of appended —
the same contract as the simulator's :class:`repro.wormhole.Tracer`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .metrics import Counter, Gauge, Histogram

__all__ = [
    "Span",
    "TelemetryRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: The innermost open span of the current thread/task (contextvar, so
#: worker threads and asyncio tasks nest independently).
_CURRENT_SPAN: ContextVar[Optional["Span"]] = ContextVar(
    "repro_obs_current_span", default=None
)

#: Label key/value pairs in canonical (sorted) order.
LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(name: str, items: LabelItems) -> str:
    """Canonical ``name{k="v",...}`` identity (Prometheus exposition
    syntax, also used as the JSON snapshot key)."""
    if not items:
        return name
    body = ",".join(f'{k}="{v}"' for k, v in items)
    return f"{name}{{{body}}}"


class Span:
    """One timed, named region (context manager).

    Created via :meth:`TelemetryRegistry.span`.  After ``__exit__``,
    :attr:`seconds` holds the measured wall time — callers that also
    want the number (e.g. ``find_lamb_set``'s ``timings`` dict) read
    it instead of timing twice.
    """

    __slots__ = (
        "registry", "name", "attrs", "span_id", "parent_id", "depth",
        "seconds", "_start", "_token",
    )

    def __init__(
        self, registry: "TelemetryRegistry", name: str,
        attrs: Dict[str, Any],
    ) -> None:
        self.registry = registry
        self.name = name
        self.attrs = attrs
        self.span_id = ""
        self.parent_id: Optional[str] = None
        self.depth = 0
        self.seconds = 0.0
        self._start = 0.0
        self._token: Any = None

    def __enter__(self) -> "Span":
        parent = _CURRENT_SPAN.get()
        if parent is not None:
            self.parent_id = parent.span_id
            self.depth = parent.depth + 1
        self.span_id = self.registry._allocate_span_id(self.name)
        self._token = _CURRENT_SPAN.set(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.seconds = time.perf_counter() - self._start
        _CURRENT_SPAN.reset(self._token)
        self.registry._finish_span(self)


class TelemetryRegistry:
    """Everything one process measures about itself.

    Parameters
    ----------
    max_events:
        Event-log capacity; events past it are dropped (counted in
        :attr:`events_dropped`), never silently lost.
    slow_op_seconds:
        Default threshold for :meth:`slow_op` when the caller does not
        pass one.
    """

    def __init__(
        self, max_events: int = 200_000, slow_op_seconds: float = 1.0
    ) -> None:
        self.max_events = int(max_events)
        self.slow_op_seconds = float(slow_op_seconds)
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._events: List[Dict[str, Any]] = []
        self.events_dropped = 0
        self._seq = 0

    # ------------------------------------------------------------------
    # Metric accessors (create on first use, shared thereafter)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        """The (shared) counter ``name{labels}``."""
        key = _render_key(name, _label_items(labels))
        with self._lock:
            c = self._counters.get(key)
            if c is None:
                c = self._counters[key] = Counter()
            return c

    def gauge(self, name: str, value: Optional[float] = None,
              **labels: Any) -> Gauge:
        """The (shared) gauge ``name{labels}``; ``value`` sets it."""
        key = _render_key(name, _label_items(labels))
        with self._lock:
            g = self._gauges.get(key)
            if g is None:
                g = self._gauges[key] = Gauge()
            if value is not None:
                g.set(value)
            return g

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The (shared) histogram ``name{labels}``."""
        key = _render_key(name, _label_items(labels))
        with self._lock:
            h = self._histograms.get(key)
            if h is None:
                h = self._histograms[key] = Histogram()
            return h

    def inc(self, name: str, n: int = 1, **labels: Any) -> None:
        """Bump the counter ``name{labels}`` by ``n``."""
        self.counter(name, **labels).inc(n)

    def observe(self, name: str, seconds: float, **labels: Any) -> None:
        """Record ``seconds`` into the histogram ``name{labels}``."""
        self.histogram(name, **labels).observe(seconds)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """A timed region: ``with reg.span("lamb.partition"): ...``.

        Nesting is tracked through a contextvar, so spans opened inside
        the ``with`` body (same thread/task) record this span as their
        parent.  On exit the duration lands in the
        ``span_seconds{span=name}`` histogram, ``spans_total{span=name}``
        is bumped, and a ``span`` event is appended.
        """
        return Span(self, name, attrs)

    def _allocate_span_id(self, name: str) -> str:
        """Seeded-deterministic id: a digest of (name, sequence)."""
        with self._lock:
            self._seq += 1
            n = self._seq
        return hashlib.blake2b(
            f"{name}:{n}".encode("utf-8"), digest_size=6
        ).hexdigest()

    def _finish_span(self, span: Span) -> None:
        self.observe("span_seconds", span.seconds, span=span.name)
        self.inc("spans_total", span=span.name)
        fields: Dict[str, Any] = {
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "depth": span.depth,
            "s": round(span.seconds, 9),
        }
        for k in sorted(span.attrs):
            fields[f"attr_{k}"] = span.attrs[k]
        self.event("span", **fields)

    # ------------------------------------------------------------------
    # Event log (NDJSON)
    # ------------------------------------------------------------------
    def event(self, kind: str, **fields: Any) -> None:
        """Append one structured event to the (capped) log."""
        with self._lock:
            if len(self._events) >= self.max_events:
                self.events_dropped += 1
                return
            self._seq += 1
            record: Dict[str, Any] = {"seq": self._seq, "kind": kind}
            record.update(fields)
            self._events.append(record)

    def events(self) -> List[Dict[str, Any]]:
        """A snapshot copy of the event log."""
        with self._lock:
            return list(self._events)

    def histograms(self) -> Dict[str, Histogram]:
        """The live histograms, keyed by rendered name, in sorted
        order (exporters walk the buckets directly)."""
        with self._lock:
            return dict(sorted(self._histograms.items()))

    # ------------------------------------------------------------------
    # Slow-op log
    # ------------------------------------------------------------------
    def slow_op(
        self,
        op: str,
        seconds: float,
        threshold: Optional[float] = None,
        **fields: Any,
    ) -> bool:
        """Record ``op`` took ``seconds``; log it as slow past the
        threshold.

        Always observes ``op_seconds{op=...}``.  When ``seconds``
        meets ``threshold`` (default: the registry's
        ``slow_op_seconds``), additionally bumps
        ``slow_ops_total{op=...}`` and appends a ``slow_op`` event
        carrying the threshold and any extra fields.  Returns whether
        the op was logged as slow.
        """
        limit = self.slow_op_seconds if threshold is None else float(threshold)
        self.observe("op_seconds", seconds, op=op)
        if seconds < limit:
            return False
        self.inc("slow_ops_total", op=op)
        self.event(
            "slow_op", op=op, s=round(seconds, 9),
            threshold_s=limit, **fields,
        )
        return True

    # ------------------------------------------------------------------
    # Readouts
    # ------------------------------------------------------------------
    def snapshot(self, redact_timings: bool = False) -> Dict[str, Any]:
        """Deterministic JSON-able readout of every metric.

        ``redact_timings`` zeroes duration-valued fields (histogram
        sums/quantiles) while keeping all counts — byte-identical
        across two runs of the same seeded workload.
        """
        with self._lock:
            counters = {k: c.value for k, c in sorted(self._counters.items())}
            gauges = {k: g.value for k, g in sorted(self._gauges.items())}
            histograms = {
                k: h.snapshot(redact_timings=redact_timings)
                for k, h in sorted(self._histograms.items())
            }
            return {
                "counters": counters,
                "events": {
                    "dropped": self.events_dropped,
                    "recorded": len(self._events),
                },
                "gauges": gauges,
                "histograms": histograms,
            }

    def reset(self) -> None:
        """Drop every metric and event (tests; idempotent)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._events.clear()
            self.events_dropped = 0
            self._seq = 0


# ----------------------------------------------------------------------
# Ambient registry
# ----------------------------------------------------------------------
_global_registry = TelemetryRegistry()


def get_registry() -> TelemetryRegistry:
    """The ambient process-wide registry (what the instrumented layers
    record into when no explicit registry is supplied)."""
    return _global_registry


def set_registry(registry: TelemetryRegistry) -> TelemetryRegistry:
    """Install ``registry`` as the ambient one; returns the previous."""
    global _global_registry
    previous = _global_registry
    _global_registry = registry
    return previous


@contextmanager
def use_registry(
    registry: Optional[TelemetryRegistry] = None,
) -> Iterator[TelemetryRegistry]:
    """Temporarily install a (fresh, by default) ambient registry —
    the test/smoke isolation primitive."""
    reg = TelemetryRegistry() if registry is None else registry
    previous = set_registry(reg)
    try:
        yield reg
    finally:
        set_registry(previous)
