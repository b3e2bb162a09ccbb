"""Chaos experiments: graceful degradation under live fault arrival.

The paper reconfigures for a *static* fault set; the chaos engine
replays the full deployment loop — faults arriving mid-flight,
checkpoint/rollback epochs, retries with backoff, quarantine as the
last rung of the degradation ladder.  This sweep measures what that
robustness costs:

- :func:`fault_arrival_sweep` — delivered / retried-then-delivered /
  aborted counts and latency (with and without retry time) as the
  number of mid-flight fault events grows.

Each trial is a fully seeded, self-contained
:func:`repro.wormhole.seeded_chaos_run`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..wormhole.chaos import seeded_chaos_run
from .harness import SweepResult, TrialSeries, default_trials

__all__ = ["fault_arrival_sweep"]


def fault_arrival_sweep(
    event_counts: Sequence[int] = (0, 1, 2, 4, 6),
    trials: int = 0,
    seed: int = 0,
    widths: Tuple[int, ...] = (8, 8),
    initial_faults: int = 2,
    num_messages: int = 120,
    num_flits: int = 4,
    inject_window: int = 80,
    cycle_span: Tuple[int, int] = (20, 260),
    max_cycles: int = 100_000,
) -> SweepResult:
    """Message-fate accounting vs. live-fault arrival count.

    Every trial is a fully seeded :func:`seeded_chaos_run`; the series
    record, per injected-message population: ``delivered``,
    ``retried_delivered``, ``aborted``, ``epochs``, the plain
    ``avg_latency`` (final attempt) and ``avg_total_latency``
    (including abort/backoff/retry time), and ``accounted`` (1.0 iff
    no message was silently lost — must pin at 1.0).
    """
    trials = trials or default_trials(5)
    out = SweepResult(
        figure="chaos-fault-arrival",
        description=f"message fate vs. mid-flight fault events, "
        f"{'x'.join(str(w) for w in widths)} mesh, "
        f"{initial_faults} initial faults, {num_messages} messages",
        x_label="fault events",
        meta={
            "trials": trials,
            "num_flits": num_flits,
            "inject_window": inject_window,
        },
    )
    for events in event_counts:
        series = TrialSeries(x=events)
        for t in range(trials):
            report = seeded_chaos_run(
                widths=tuple(widths),
                initial_faults=initial_faults,
                num_messages=num_messages,
                num_events=events,
                seed=(seed * 1_000_003 + 7919 * events + t),
                num_flits=num_flits,
                inject_window=inject_window,
                cycle_span=tuple(cycle_span),
                max_cycles=max_cycles,
            )
            s = report.stats
            series.add(
                delivered=s.delivered,
                retried_delivered=s.retried_delivered,
                aborted=s.aborted,
                epochs=report.num_epochs,
                avg_latency=s.avg_latency,
                avg_total_latency=s.avg_total_latency,
                accounted=1.0 if report.fully_accounted else 0.0,
            )
        out.series.append(series)
    return out
