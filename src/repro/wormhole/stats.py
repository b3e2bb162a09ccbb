"""Aggregate statistics for wormhole simulation runs."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..core.reachability import _ragged_ranges
from .packets import Message

__all__ = ["SimStats"]


def _batched_turn_counts(messages: Sequence[Message]) -> np.ndarray:
    """Vectorized :func:`repro.routing.turns.count_turns` over many
    messages: one flat coordinate array, per-hop direction codes, one
    ``reduceat`` for the per-message direction-change counts.  Every
    message must have at least one hop."""
    counts = np.zeros(len(messages), dtype=np.int64)
    if not messages:
        return counts
    pts = []
    nhops = np.empty(len(messages), dtype=np.int64)
    for i, m in enumerate(messages):
        p = m.path_nodes()
        nhops[i] = len(p) - 1
        pts.extend(p)
    P = np.asarray(pts, dtype=np.int64)
    D = P[1:] - P[:-1]
    # Message i's points start at pt_starts[i]; its hop vectors are the
    # D-rows [pt_starts[i], pt_starts[i] + nhops[i]) — the row joining
    # two consecutive messages is never selected.
    pt_starts = np.zeros(len(messages), dtype=np.intp)
    np.cumsum(nhops[:-1] + 1, out=pt_starts[1:])
    H = D[_ragged_ranges(pt_starts, nhops)]
    if np.any(np.abs(H).sum(axis=1) != 1):
        raise ValueError("path contains a non-unit hop")
    dim = np.argmax(H != 0, axis=1)
    sign = H[np.arange(H.shape[0]), dim]
    code = 2 * dim + (sign > 0)
    hseg = np.zeros(len(messages), dtype=np.intp)
    np.cumsum(nhops[:-1], out=hseg[1:])
    change = np.empty(code.shape[0], dtype=np.int64)
    change[0] = 0
    change[1:] = code[1:] != code[:-1]
    change[hseg] = 0  # a message's first hop has no previous direction
    return np.add.reduceat(change, hseg)


@dataclass(frozen=True)
class SimStats:
    """Summary of a drained (or partially drained) simulation.

    Attributes
    ----------
    cycles:
        Total simulated cycles.
    delivered:
        Number of fully delivered messages.
    total_messages:
        Number of messages submitted.
    avg_latency, p95_latency, max_latency:
        Injection-to-tail-delivery latency statistics (cycles) over
        delivered messages (final attempt).
    throughput_flits_per_cycle:
        Delivered flits divided by simulated cycles.
    avg_hops, avg_turns, max_turns:
        Route-shape statistics (turns are the paper's requirement (iv)
        metric).
    aborted:
        Messages permanently given up on, each with an explicit
        ``abort_reason`` (live-fault chaos runs; 0 otherwise).
    in_flight:
        Messages neither delivered nor aborted (0 after a full drain).
    retried_delivered:
        Delivered messages that needed at least one live-fault retry.
    total_retries:
        Re-injections summed over all messages.
    abort_reasons:
        Sorted ``(reason, count)`` pairs over aborted messages.
    avg_total_latency:
        Mean first-injection-to-delivery latency, *including* cycles
        lost to aborts, backoff and retries.
    """

    cycles: int
    delivered: int
    total_messages: int
    avg_latency: float
    p95_latency: float
    max_latency: int
    throughput_flits_per_cycle: float
    avg_hops: float
    avg_turns: float
    max_turns: int
    aborted: int = 0
    in_flight: int = 0
    retried_delivered: int = 0
    total_retries: int = 0
    abort_reasons: Tuple[Tuple[str, int], ...] = ()
    avg_total_latency: float = 0.0

    @property
    def all_accounted(self) -> bool:
        """No silent loss: every submitted message is delivered or
        aborted-with-reason (i.e. nothing is still dangling)."""
        return self.delivered + self.aborted == self.total_messages

    @classmethod
    def from_messages(cls, cycles: int, messages: Sequence[Message]) -> "SimStats":
        done = [m for m in messages if m.is_delivered]
        aborted = [m for m in messages if m.is_aborted]
        latencies = [m.latency for m in done if m.latency is not None]
        total_latencies = [
            m.total_latency for m in done if m.total_latency is not None
        ]
        flits = sum(m.num_flits for m in done)
        turns = _batched_turn_counts([m for m in done if m.num_hops > 0])
        hops = [m.num_hops for m in done]
        reasons = Counter(m.abort_reason for m in aborted)
        return cls(
            cycles=cycles,
            delivered=len(done),
            total_messages=len(messages),
            avg_latency=float(np.mean(latencies)) if latencies else 0.0,
            p95_latency=float(np.percentile(latencies, 95)) if latencies else 0.0,
            max_latency=int(max(latencies)) if latencies else 0,
            throughput_flits_per_cycle=(flits / cycles) if cycles else 0.0,
            avg_hops=float(np.mean(hops)) if hops else 0.0,
            avg_turns=float(np.mean(turns)) if turns.size else 0.0,
            max_turns=int(turns.max()) if turns.size else 0,
            aborted=len(aborted),
            in_flight=len(messages) - len(done) - len(aborted),
            retried_delivered=sum(1 for m in done if m.was_retried),
            total_retries=sum(m.attempts - 1 for m in messages),
            abort_reasons=tuple(sorted(reasons.items())),
            avg_total_latency=(
                float(np.mean(total_latencies)) if total_latencies else 0.0
            ),
        )
