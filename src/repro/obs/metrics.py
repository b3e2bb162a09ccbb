"""Thread-safe metric primitives: counters, gauges, histograms.

These are the building blocks of the unified telemetry layer
(:mod:`repro.obs.registry`).  They originated in the control plane's
``repro.service.metrics`` (PR 4) and were promoted here so every layer
— the lamb pipeline, the wormhole simulator and the service — shares
one implementation and one registry.

Dependency-free (no prometheus client in the image) but shaped like
one: a :class:`Counter` only goes up, a :class:`Gauge` is a
point-in-time value, and a :class:`Histogram` is fixed-bucket with
pessimistic quantile estimation.

All primitives are thread-safe: the control-plane compiler increments
counters and observes latencies from executor worker threads
concurrently with the event loop serving ``stats``, and an unguarded
``+=`` loses updates under that interleaving.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "DEFAULT_BUCKETS"]


class Counter:
    """A monotonically increasing event count (thread-safe)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += n


class Gauge:
    """A point-in-time value (e.g. the current reconfiguration epoch)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = float(value)

    def set(self, value: float) -> None:
        self.value = float(value)


#: Default latency buckets (seconds): ~100us .. ~10s, log-spaced.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """A fixed-bucket latency histogram with quantile estimation.

    ``observe`` is O(log buckets); quantiles are estimated from the
    bucket counts (upper bound of the containing bucket — pessimistic,
    which is the right bias for an SLO readout).  ``observe`` is
    thread-safe (compile latencies arrive from worker threads).
    """

    __slots__ = (
        "buckets", "counts", "overflow", "total", "sum", "max", "_lock",
    )

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if list(buckets) != sorted(buckets) or not buckets:
            raise ValueError("buckets must be a nonempty ascending sequence")
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * len(self.buckets)
        self.overflow = 0
        self.total = 0
        self.sum = 0.0
        self.max = 0.0
        self._lock = threading.Lock()

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        if seconds < 0:
            raise ValueError("latencies cannot be negative")
        i = bisect.bisect_left(self.buckets, seconds)
        with self._lock:
            if i >= len(self.buckets):
                self.overflow += 1
            else:
                self.counts[i] += 1
            self.total += 1
            self.sum += seconds
            self.max = max(self.max, seconds)

    def observe_many(self, values: Sequence[float]) -> None:
        """``observe`` each of ``values`` under one lock acquisition
        (the route-query server publishes a whole query run at once).
        The result equals one ``observe`` per value, in order; a
        negative value raises before anything is recorded.

        The values are sorted once and each bucket's count read off
        with one bisection, instead of one bisection per value."""
        seconds = list(map(float, values))
        if not seconds:
            return
        if any(map((0.0).__gt__, seconds)):
            raise ValueError("latencies cannot be negative")
        ordered = sorted(seconds)
        with self._lock:
            # observe's bucket for s is the first bound >= s.
            below = 0
            for i, bound in enumerate(self.buckets):
                upto = bisect.bisect_right(ordered, bound, below)
                self.counts[i] += upto - below
                below = upto
            self.overflow += len(ordered) - below
            self.total += len(seconds)
            total = self.sum
            for s in seconds:  # the same float additions as observe's
                total += s
            self.sum = total
            self.max = max(self.max, ordered[-1])

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (upper bucket bound); 0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if self.total == 0:
            return 0.0
        rank = q * self.total
        seen = 0
        for bound, count in zip(self.buckets, self.counts):
            seen += count
            if seen >= rank:
                return bound
        return self.max

    def snapshot(self, redact_timings: bool = False) -> Dict[str, Any]:
        """JSON-able readout; ``redact_timings`` zeroes every
        duration-valued field (the counts stay) so two seeded runs can
        be diffed byte for byte."""
        if redact_timings:
            return {
                "count": self.total,
                "max_s": 0.0,
                "mean_s": 0.0,
                "overflow": self.overflow,
                "p50_s": 0.0,
                "p95_s": 0.0,
                "p99_s": 0.0,
            }
        return {
            "count": self.total,
            "max_s": round(self.max, 6),
            "mean_s": round(self.mean, 6),
            "overflow": self.overflow,
            "p50_s": round(self.quantile(0.50), 6),
            "p95_s": round(self.quantile(0.95), 6),
            "p99_s": round(self.quantile(0.99), 6),
        }
