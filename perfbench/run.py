"""Benchmark entry point.

    python3 perfbench/run.py --workload fig26_3d --seed 1 --seconds 20 --trace 0

Runs one workload from the root of a checkout against the program in
``src/``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones.  ``--workload all`` runs every workload both ways and prints a
table of every metric.  See ``perfbench/README.md``.

A run has three parts:

1. set-up from the seed, then ``warmup_ops`` untimed ops;
2. the untraced phase: ops in a closed loop for ``--seconds`` (half of
   it with ``--trace 1``), and at least the workload's ``exact_ops``,
   the ops the exact metrics cover.  With ``--trace 0`` a second
   instance of the workload repeats the set-up between ops, spread
   evenly over the phase, until there are ``setup_reps`` set-ups in all
   (``setup_s`` is their median);
3. with ``--trace 1``, the traced phase: the op sequence starts over
   for the other half with every layer boundary wrapped in spans.
   The spans are written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

_clock = time.perf_counter

#: Per-layer span names whose busy / self time is reported, with the
#: metric that reads them.
_BUSY = (
    ("core.partition", "core.partition.busy_s"),
    ("core.reachability.one_round", "core.reachability.one_round.busy_s"),
    ("core.reachability.intersections",
     "core.reachability.intersections.busy_s"),
    ("core.reachability.products", "core.reachability.products.busy_s"),
    ("graphs.wvc", "graphs.wvc.busy_s"),
    ("routing.route", "routing.route.busy_s"),
    ("wormhole.run", "wormhole.run.busy_s"),
    ("service.wire", "service.wire.busy_s"),
    ("service.compiler.apply_delta", "service.compiler.apply_delta.busy_s"),
)
_SELF = (
    ("core.reachability", "core.reachability.self_s"),
    ("core.lamb", "core.lamb.self_s"),
    ("wormhole.send", "wormhole.send.self_s"),
    ("wormhole.op", "wormhole.op.self_s"),
    ("core.routing_table.lookup", "core.routing_table.lookup.self_s"),
    ("service.request", "service.request.other_s"),
)
_COUNTS = ("cycles", "flits_delivered", "park_events", "wake_events")

#: Units of every reported metric.
UNITS: Dict[str, str] = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "lambs_mean": "nodes",
    "sim_latency_avg_cycles": "cycles",
    "sim_accepted_flits_per_cycle": "flits/cycle",
    "delta_p50_ms": "ms",
    "routing.route.calls": "count",
    "core.routing_table.lookup.calls": "count",
    "core.routing_table.hit_ratio": "ratio",
    "trace.overhead_pct": "%",
    "trace.layer_sum_ratio": "ratio",
    "trace.telemetry_ratio": "ratio",
}
UNITS.update({metric: "s" for _, metric in _BUSY + _SELF})
UNITS.update({f"wormhole.{c}": "count" for c in _COUNTS})

END_TO_END = ("setup_s", "throughput_per_s", "p50_ms", "p90_ms")

#: Median seconds of one :func:`calibration_kernel` on the reference
#: host (README, "Host").
REFERENCE_KERNEL_S = 0.0012
#: Measure the kernel at most this often while ops run.
PROBE_EVERY_S = 0.05


def calibration_kernel() -> float:
    """A fixed interpreter loop that builds small tuples, a set and a
    dict, the kind of work the program does (benchmark code, never the
    program's); returns its host seconds."""
    t0 = _clock()
    seen = set()
    for i in range(3000):
        seen.add((i % 181, i // 181))
    len({v: i for i, v in enumerate(frozenset(seen))})
    return _clock() - t0


class HostSpeed:
    """Tracks how fast the host runs while a run measures.

    This host's core speed drifts by ±30 % over seconds to minutes
    (README, "Host").  :func:`calibration_kernel` is timed between ops,
    outside every op's timing, at most every :data:`PROBE_EVERY_S` and
    once more at the end of each phase.  Host-time metrics are reported
    in reference-host seconds: an op's time is multiplied by the
    reference kernel time divided by the mean of the two kernel times
    that bracket the op.
    """

    def __init__(self) -> None:
        for _ in range(3):  # first calls pay one-off costs
            calibration_kernel()
        self.samples: List[float] = []
        self._last = float("-inf")

    def probe(self) -> int:
        """Time the kernel; returns the index of the new sample."""
        self.samples.append(calibration_kernel())
        self._last = _clock()
        return len(self.samples) - 1

    def maybe_probe(self) -> int:
        """Probe if due; returns the index of the latest sample."""
        if _clock() - self._last >= PROBE_EVERY_S:
            return self.probe()
        return len(self.samples) - 1

    def factor(self, before: int) -> float:
        """Scale for an op that ran after sample ``before``."""
        bracket = self.samples[before:before + 2]
        return REFERENCE_KERNEL_S * len(bracket) / sum(bracket)

    def overall(self) -> float:
        """Scale for figures summed over the whole run."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)


def host_fingerprint() -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def run_phase(wl: Any, seconds: float, ops: Optional[int], min_ops: int,
              tracer: Any, speed: HostSpeed,
              between: Optional[Tuple[int, Callable[[], None]]] = None,
              ) -> List[Any]:
    """Ops ``0, 1, ...`` for ``seconds`` of wall time (and at least
    ``min_ops``), or exactly ``ops`` when given.  ``between = (count,
    fn)`` calls ``fn`` ``count`` times between ops, spread evenly over
    the phase; that time counts towards ``seconds``."""
    outcomes: List[Any] = []
    probes_before: List[int] = []
    count, fn = between if between else (0, lambda: None)
    done = 0
    start = _clock()
    deadline = start + seconds
    step = seconds / count if count else 0.0
    while True:
        while done < count and _clock() >= start + (done + 0.5) * step:
            fn()
            done += 1
        if ops is not None:
            if len(outcomes) >= ops:
                break
        elif len(outcomes) >= min_ops and _clock() >= deadline:
            break
        probes_before.append(speed.maybe_probe())
        outcomes.append(wl.op(len(outcomes), tracer))
    for _ in range(done, count):
        fn()
    speed.probe()
    for outcome, before in zip(outcomes, probes_before):
        outcome.scale = speed.factor(before)
    return outcomes


def _percentile_ms(samples: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q)) * 1e3 if samples else 0.0


def _seconds(o: Any, scaled: bool) -> float:
    return o.seconds * o.scale if scaled else o.seconds


def _throughput(outcomes: List[Any], scaled: bool = True) -> float:
    busy = sum(_seconds(o, scaled) for o in outcomes)
    return sum(o.work for o in outcomes) / busy if busy else 0.0


def measure(wl: Any, seed: int, seconds: float, trace: bool,
            ops: Optional[int] = None, trace_path: Optional[str] = None,
            spare: Any = None) -> Dict[str, Any]:
    """Run one workload; returns the result object the CLI prints.

    ``spare``, a second instance of the workload, repeats the set-up
    during the untraced phase, so that ``setup_s`` is the median over
    the whole phase rather than over the host's state at its start.
    """
    from repro.obs import TelemetryRegistry, use_registry

    from tracer import Tracer, instrument

    setup_runs: List[Tuple[float, int]] = []  # (seconds, probe before)
    speed = HostSpeed()

    def timed_setup(target: Any) -> None:
        gc.collect()
        before = speed.probe()
        t0 = _clock()
        target.setup(seed)
        setup_runs.append((_clock() - t0, before))
        speed.probe()

    def spare_setup() -> None:
        try:
            timed_setup(spare)
        finally:
            spare.teardown()

    with use_registry():
        try:
            timed_setup(wl)
            for k in range(wl.warmup_ops):
                wl.op(k, None)
            share = 0.5 if trace else 1.0
            repeats = (wl.setup_reps - 1, spare_setup) if spare else None
            plain = run_phase(wl, seconds * share, ops, wl.exact_ops, None,
                              speed, repeats)
            traced: List[Any] = []
            if trace:
                tracer = Tracer()
                registry = TelemetryRegistry()
                with use_registry(registry), instrument(tracer):
                    traced = run_phase(wl, seconds * share, ops, 1, tracer,
                                       speed)
        finally:
            wl.teardown()
    setup_times = [(t, speed.factor(k)) for t, k in setup_runs]
    outcomes = plain + traced
    failed = sum(1 for o in outcomes if o.problems)
    for o in outcomes:
        for problem in o.problems[:1]:
            print(f"perfbench: {wl.name}: {problem}", file=sys.stderr)
    correct = failed == 0
    if trace:
        metrics = per_layer_metrics(wl, plain, traced, tracer, registry,
                                    speed.overall())
        for name, lo, hi in (("trace.layer_sum_ratio", 0.9, 1.1),
                             ("trace.telemetry_ratio", 0.9, 1.1)):
            value = metrics[name]
            if value and not lo <= value <= hi:
                print(f"perfbench: {wl.name}: {name} = {value:.4f} is "
                      f"outside [{lo}, {hi}]", file=sys.stderr)
                correct = False
        misnested = tracer.misnested()
        if misnested:
            print(f"perfbench: {wl.name}: {misnested} spans leave their "
                  f"parent or overlap their siblings", file=sys.stderr)
            correct = False
        if metrics.pop("trace.telemetry_mismatch"):
            print(f"perfbench: {wl.name}: the program's own telemetry "
                  f"disagrees with the benchmark's spans or SimStats",
                  file=sys.stderr)
            correct = False
        if trace_path is not None:
            tracer.write_jsonl(trace_path)
    else:
        metrics = end_to_end_metrics(setup_times, plain, scaled=True)
        print(f"perfbench: {wl.name}: host kernel median "
              f"{statistics.median(speed.samples) * 1e3:.4f} ms over "
              f"{len(speed.samples)} probes; unscaled "
              + json.dumps(end_to_end_metrics(setup_times, plain,
                                              scaled=False)),
              file=sys.stderr)
    return {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }


def end_to_end_metrics(setup_times: List[Tuple[float, float]],
                       plain: List[Any], scaled: bool) -> Dict[str, float]:
    reads = [_seconds(o, scaled) for o in plain if o.kind in ("op", "batch")]
    return {
        "setup_s": statistics.median(
            t * f if scaled else t for t, f in setup_times
        ),
        "throughput_per_s": _throughput(plain, scaled),
        "p50_ms": _percentile_ms(reads, 50),
        "p90_ms": _percentile_ms(reads, 90),
    }


def _registry_counter(registry: Any, name: str) -> int:
    counters = registry.snapshot()["counters"]
    return sum(v for k, v in counters.items()
               if k == name or k.startswith(name + "{"))


def _registry_span_seconds(registry: Any, span: str) -> float:
    hist = registry.histograms().get(f'span_seconds{{span="{span}"}}')
    return hist.sum if hist is not None else 0.0


def _overhead_pct(plain: List[Any], traced: List[Any]) -> float:
    """How much slower the traced ops ran.  Cycling workloads compare
    each configuration with itself (summed over the configurations both
    phases ran); the control plane compares throughput."""
    untraced_by_slot: Dict[int, List[float]] = {}
    for o in plain:
        if o.slot is not None:
            untraced_by_slot.setdefault(o.slot, []).append(_seconds(o, True))
    matched = [(_seconds(o, True), sum(untraced_by_slot[o.slot])
                / len(untraced_by_slot[o.slot]))
               for o in traced if o.slot in untraced_by_slot]
    if matched:
        return 100.0 * (sum(t for t, _ in matched)
                        / sum(u for _, u in matched) - 1.0)
    thr_plain, thr_traced = _throughput(plain), _throughput(traced)
    return 100.0 * (thr_plain - thr_traced) / thr_plain if thr_plain else 0.0


def per_layer_metrics(wl: Any, plain: List[Any], traced: List[Any],
                      tracer: Any, registry: Any,
                      scale: float) -> Dict[str, float]:
    """Per-op layer figures of the traced phase.  Layer times are host
    time, scaled by the run's overall :class:`HostSpeed` factor."""
    table = tracer.layer_table()
    n = max(1, len(traced))

    def row(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0.0)

    out: Dict[str, float] = {}
    for span, metric in _BUSY:
        out[metric] = row(span, "busy_s") * scale / n
    for span, metric in _SELF:
        out[metric] = row(span, "self_s") * scale / n
    route_calls = row("routing.route", "calls")
    lookups = row("core.routing_table.lookup", "calls")
    computed = tracer.calls_under("routing.route", "core.routing_table.lookup")
    out["routing.route.calls"] = route_calls / n
    out["core.routing_table.lookup.calls"] = lookups / n
    out["core.routing_table.hit_ratio"] = (
        1.0 - computed / lookups if lookups else 0.0
    )
    counts = {c: sum(o.counts.get(c, 0) for o in traced) for c in _COUNTS}
    for c in _COUNTS:
        out[f"wormhole.{c}"] = counts[c] / n
    out.update(wl.exact_metrics())
    out.setdefault("sim_latency_avg_cycles", 0.0)
    out.setdefault("sim_accepted_flits_per_cycle", 0.0)
    out["delta_p50_ms"] = _percentile_ms(
        [_seconds(o, True) for o in plain if o.kind == "delta"], 50
    )
    out["trace.overhead_pct"] = _overhead_pct(plain, traced)
    # The workload's layer metrics must add up to its op wall time (as
    # the op timed itself): a listed layer that nests another listed
    # one, a layer left out, or spans charged to the wrong parent all
    # move this off 1.
    wall = sum(o.seconds for o in traced) * scale / n
    layer_sum = sum(out[metric] for metric in wl.layers)
    out["trace.layer_sum_ratio"] = layer_sum / wall if wall else 0.0
    # Cross-check against the telemetry the program emits itself: its
    # lamb.* phase spans against the benchmark's core.lamb spans, and
    # its sim_* counters against SimStats.
    # The program's lamb.reachability span wraps exactly the call the
    # benchmark's core.reachability span wraps; its lamb.partition and
    # lamb.wvc spans contain the benchmark's partition and WVC spans.
    mismatch = False
    ours_reach = row("core.reachability", "busy_s")
    if ours_reach:
        out["trace.telemetry_ratio"] = (
            _registry_span_seconds(registry, "lamb.reachability") / ours_reach
        )
        mismatch = (
            _registry_span_seconds(registry, "lamb.partition")
            < row("core.partition", "busy_s")
            or _registry_span_seconds(registry, "lamb.wvc")
            < row("graphs.wvc", "busy_s")
        )
    elif counts["cycles"]:
        out["trace.telemetry_ratio"] = (
            _registry_counter(registry, "sim_cycles_total") / counts["cycles"]
        )
        mismatch = any(
            _registry_counter(registry, f"sim_{c}_total") != counts[c]
            for c in ("cycles", "park_events", "wake_events")
        )
    else:
        out["trace.telemetry_ratio"] = 0.0
    out["trace.telemetry_mismatch"] = float(mismatch)
    return out


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _prepare_imports() -> None:
    """Import the program from the checkout's ``src/`` only."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _print_table(name: str, result: Dict[str, Any]) -> None:
    print(f"== {name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, v in result["metrics"].items():
        print(f"   {metric:40s} {v['value']:>16.6g} {v['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _prepare_imports()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r} "
                         f"(want one of {', '.join(WORKLOADS)} or all)")
    # Pay every lazy import before any clock starts.
    import repro.routing.turns  # noqa: F401
    import repro.wormhole.chaos  # noqa: F401

    print("perfbench: host " + json.dumps(host_fingerprint()),
          file=sys.stderr)
    out_dir = os.path.join(ROOT, ".perfbench")
    results: Dict[str, Any] = {}
    for name in names:
        for trace in ((0, 1) if args.workload == "all" else (args.trace,)):
            trace_path = None
            if trace:
                os.makedirs(out_dir, exist_ok=True)
                trace_path = os.path.join(
                    out_dir, f"spans-{name}-seed{args.seed}.jsonl"
                )
            spare = None if trace else WORKLOADS[name]()
            result = measure(WORKLOADS[name](), args.seed, args.seconds,
                             bool(trace), trace_path=trace_path, spare=spare)
            results[f"{name}/trace{trace}"] = result
            if args.workload == "all":
                _print_table(f"{name} --trace {trace}", result)
    if args.workload == "all":
        print(json.dumps(results))
        ok = all(r["correct"] for r in results.values())
    else:
        (result,) = results.values()
        print(json.dumps(result))
        ok = True
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
