"""Unified observability for the lamb pipeline and its runtime layers.

The paper's headline complexity claim — ``Lamb1`` runs in
O(k d^3 f^3 + |Λ|) *independent of mesh size N* (Theorem 6.8) — and
the ROADMAP's production north star both need the same substrate: the
ability to answer "where did the time/cycles go, and what failed?".
This package is that substrate:

- :mod:`repro.obs.metrics` — thread-safe :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` primitives (promoted from the
  PR-4 control plane so every layer shares one implementation);
- :mod:`repro.obs.registry` — the :class:`TelemetryRegistry`:
  contextvar-scoped :meth:`~TelemetryRegistry.span` timers with
  seeded-deterministic ids, labelled counters/gauges/histograms, a
  capped structured event log, and a threshold-gated slow-op log;
- :mod:`repro.obs.exporters` — Prometheus text exposition, NDJSON
  event log, and JSON snapshot renderers (``redact_timings`` makes
  seeded runs byte-identical for determinism diffs);
- :mod:`repro.obs.smoke` — the seeded end-to-end scenario behind
  ``repro stats`` and ``make obs-smoke``.

Instrumented layers (they call :func:`get_registry` at call time, so
:func:`use_registry` scopes a test or a CLI run):

- :func:`repro.core.find_lamb_set` — spans per pipeline phase
  (``lamb.partition`` = Find-SES/DES-Partition, ``lamb.reachability``
  = the boolean matrix products, ``lamb.wvc`` = the vertex-cover
  reduction);
- :class:`repro.wormhole.WormholeSimulator` — per-run cycle / stall /
  park / wake / abort / retry counters;
- :class:`repro.service.ServiceMetrics` — the control-plane metrics,
  now allocated through a registry.

See ``docs/observability.md`` for the full API and the phase-timing
glossary keyed to the paper's algorithm names.
"""

from .exporters import (
    events_to_ndjson,
    export_all,
    snapshot_to_json,
    to_prometheus,
)
from .metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram
from .registry import (
    Span,
    TelemetryRegistry,
    get_registry,
    set_registry,
    use_registry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "Span",
    "TelemetryRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "to_prometheus",
    "events_to_ndjson",
    "snapshot_to_json",
    "export_all",
    "run_telemetry_smoke",
]


def __getattr__(name: str) -> object:
    # The smoke pulls in the simulator and the service compiler;
    # import lazily so ``import repro.obs`` stays light.
    if name == "run_telemetry_smoke":
        from .smoke import run_telemetry_smoke

        return run_telemetry_smoke
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
