"""Machine-readable perf-regression harness.

Runs a small curated benchmark subset — the lamb pipeline, the
one-round reachability kernel, the wormhole
simulator under saturation, the seeded chaos scenario, the parallel
trial engine, the route-query service data path, and the workflow
engine's checkpoint-replay overhead — and writes ``BENCH_<date>.json``
rows of ``{bench, mesh, wall_s, cycles_per_s / trials_per_s /
queries_per_s}``.  A comparator mode diffs a fresh run against the
latest committed baseline and fails on a >25% wall-clock regression;
rows with an embedded ``speedup`` ratio (sharded vs single-process
service) must additionally stay above ``SPEEDUP_FLOOR`` on every host.

Usage (from the repo root, ``PYTHONPATH=src``)::

    python benchmarks/bench_to_json.py                # write BENCH_<date>.json
    python benchmarks/bench_to_json.py --check        # compare vs baseline, exit 1 on regression
    python benchmarks/bench_to_json.py --check --auto # CI mode: warn-and-pass when
                                                      # no baseline / foreign host

or ``make bench-json`` / ``make bench-check``.

Noise control: every bench runs ``--repeats`` times (default 3) and
keeps the *minimum* wall time; the comparator additionally passes with
a warning when the baseline was recorded on a different host
fingerprint (CPU count / machine / Python), since absolute wall times
do not transfer between machines.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import sys
import time
from datetime import date
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import find_lamb_set
from repro.core.reachability import one_round_reachability_matrix
from repro.experiments.harness import lamb_trials
from repro.experiments.parallel import available_cpu_count, engine_jobs
from repro.mesh import Mesh, random_node_faults
from repro.mesh.faults import FaultSet
from repro.routing import LineFaultIndex, repeated, xy, xyz
from repro.wormhole.chaos import seeded_chaos_run
from repro.wormhole.simulator import WormholeSimulator

#: Comparator threshold: fail when a bench is more than this much
#: slower than the committed baseline.
REGRESSION_TOLERANCE = 0.25

#: Acceptance floor for rows that embed a ``speedup`` field (the sharded
#: service row): the optimized path must stay at least this many times
#: faster than its baseline — a host-independent ratio, so it is
#: enforced even when wall-clock comparisons are skipped.
SPEEDUP_FLOOR = 5.0

SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# The curated subset
# ----------------------------------------------------------------------
def _bench_lamb_pipeline() -> Dict[str, object]:
    """Full Find-Lamb pipeline on M3(32) with f = 160 (Section 6)."""
    mesh = Mesh.square(3, 32)
    faults = random_node_faults(mesh, 160, np.random.default_rng(0))
    orderings = repeated(xyz(), 2)
    index = LineFaultIndex(faults)
    t0 = time.perf_counter()
    result = find_lamb_set(faults, orderings, index=index)
    wall = time.perf_counter() - t0
    assert result.num_ses > 0
    return {"bench": "lamb_pipeline", "mesh": "M3(32) f=160",
            "wall_s": wall, "trials_per_s": 1.0 / wall}


def _bench_reachability_product() -> Dict[str, object]:
    """One-round reachability kernel at paper-scale representative
    counts: p = q = (2d-1)f + 1 on M3(32), f = 160."""
    mesh = Mesh.square(3, 32)
    f = 160
    faults = random_node_faults(mesh, f, np.random.default_rng(1))
    index = LineFaultIndex(faults)
    rng = np.random.default_rng(2)
    good = np.array(
        [v for v in mesh.nodes() if not faults.node_is_faulty(tuple(v))],
        dtype=np.int64,
    )
    p = (2 * mesh.d - 1) * f + 1
    S = good[rng.choice(good.shape[0], size=p, replace=False)]
    D = good[rng.choice(good.shape[0], size=p, replace=False)]
    t0 = time.perf_counter()
    R = one_round_reachability_matrix(index, xyz(), S, D)
    wall = time.perf_counter() - t0
    assert R.shape == (p, p)
    return {"bench": "reachability_product", "mesh": f"M3(32) p=q={p}",
            "wall_s": wall, "trials_per_s": 1.0 / wall}


def _bench_sim_saturation() -> Dict[str, object]:
    """Wormhole simulator (frontier engine) under staggered uniform
    traffic on a fault-free M2(16): 400 messages x 8 flits."""
    mesh = Mesh.square(2, 16)
    sim = WormholeSimulator(FaultSet(mesh), repeated(xy(), 2), seed=0)
    nodes = [tuple(int(x) for x in v) for v in mesh.nodes()]
    rng = np.random.default_rng(7)
    for _ in range(400):
        s, d = rng.choice(len(nodes), size=2, replace=False)
        sim.send(nodes[s], nodes[d], num_flits=8,
                 inject_cycle=int(rng.integers(0, 2000)))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {"bench": "sim_saturation", "mesh": "M2(16) 400 msgs",
            "wall_s": wall, "cycles_per_s": sim.cycle / wall}


def _bench_chaos_smoke() -> Dict[str, object]:
    """The acceptance chaos scenario: 8x8 mesh, 120 messages, 3
    mid-flight fault events with rollback/reconfigure epochs."""
    t0 = time.perf_counter()
    report = seeded_chaos_run(widths=(8, 8), initial_faults=2,
                              num_messages=120, num_events=3, seed=0)
    wall = time.perf_counter() - t0
    assert report.fully_accounted
    return {"bench": "chaos_smoke", "mesh": "M2(8) 3 events",
            "wall_s": wall, "cycles_per_s": report.stats.cycles / wall}


def _bench_trial_engine() -> Dict[str, object]:
    """Seeded lamb trials through the ambient trial engine (serial
    here; the point is tracking per-trial throughput)."""
    mesh = Mesh.square(2, 32)
    trials = 6
    t0 = time.perf_counter()
    series = lamb_trials(mesh, 31, trials=trials, seed=0, tag=17)
    wall = time.perf_counter() - t0
    assert len(series.values["lambs"]) == trials
    return {"bench": "trial_engine", "mesh": "M2(32) f=31 x6",
            "wall_s": wall, "trials_per_s": trials / wall}


def _bench_trial_engine_executor(executor: str) -> Dict[str, object]:
    """The same seeded lamb sweep fanned over a worker pool.  On a
    multi-core host the process rows should show ~jobs-times the
    thread rows' throughput (the sweep is pure-Python and GIL-bound);
    on a 1-core host both collapse to the serial timing."""
    # jobs=None: inherit the ambient engine installed by the wrapper
    # (that is what carries the executor choice).
    jobs = min(4, available_cpu_count())
    mesh = Mesh.square(2, 32)
    trials = 12
    t0 = time.perf_counter()
    series = lamb_trials(mesh, 31, trials=trials, seed=0, tag=17)
    wall = time.perf_counter() - t0
    assert len(series.values["lambs"]) == trials
    return {"bench": f"trial_engine_{executor}s",
            "mesh": f"M2(32) f=31 x{trials} j{jobs}",
            "wall_s": wall, "trials_per_s": trials / wall}


def _bench_trial_engine_threads() -> Dict[str, object]:
    with engine_jobs(min(4, available_cpu_count()), executor="thread"):
        return _bench_trial_engine_executor("thread")


def _bench_trial_engine_procs() -> Dict[str, object]:
    with engine_jobs(min(4, available_cpu_count()), executor="process"):
        return _bench_trial_engine_executor("proc")


def _bench_reliability_campaign() -> Dict[str, object]:
    """Seeded Poisson reliability campaign on M2(8): timeline sampling
    + per-interval compile through the content-addressed cache +
    connectivity scoring (serial, so the row tracks the per-trial
    cost, not pool startup)."""
    from repro.reliability import CampaignConfig, run_campaign

    cfg = CampaignConfig(
        widths=(8, 8), rate=1.5, mttr=0.3, horizon=2.0, trials=4, seed=0,
    )
    t0 = time.perf_counter()
    report = run_campaign(cfg, jobs=1)
    wall = time.perf_counter() - t0
    assert report.accounting.all_accounted
    return {"bench": "reliability_campaign", "mesh": "M2(8) x4 trials",
            "wall_s": wall, "trials_per_s": cfg.trials / wall}


def _bench_service_throughput() -> Dict[str, object]:
    """Route-query service data path: real TCP on localhost, 1000
    pipelined queries (batches of 100) against a pre-compiled 16x16
    artifact.  Times only the query phase — the compile is the control
    path and has its own bench (``lamb_pipeline``)."""
    import asyncio

    from repro.service.client import RouteQueryClient
    from repro.service.compiler import ReconfigurationCompiler
    from repro.service.server import RouteQueryServer

    mesh = Mesh.square(2, 16)
    faults = random_node_faults(mesh, 5, np.random.default_rng(4))
    queries = 1000

    async def run() -> float:
        compiler = ReconfigurationCompiler(mesh, repeated(xy(), 2))
        server = RouteQueryServer(compiler)
        host, port = await server.start()
        client = await RouteQueryClient.connect(
            host, port, default_timeout=120.0
        )
        compiled = await client.compile(faults)
        excluded = {
            tuple(v)
            for v in list(compiled["lamb_nodes"])
            + list(compiled["quarantined"])
        }
        survivors = [
            v
            for v in mesh.nodes()
            if not faults.node_is_faulty(v) and v not in excluded
        ]
        rng = np.random.default_rng(9)
        pairs = []
        while len(pairs) < queries:
            i = int(rng.integers(len(survivors)))
            j = int(rng.integers(len(survivors)))
            if i != j:
                pairs.append((survivors[i], survivors[j]))
        # Warm the route cache is *not* wanted here: the first pass IS
        # the measurement (cold lookups are the realistic case).
        t0 = time.perf_counter()
        for at in range(0, queries, 100):
            replies = await client.query_batch(
                pairs[at:at + 100], epoch=compiled["epoch"]
            )
            assert all(r.get("ok") for r in replies)
        wall = time.perf_counter() - t0
        await client.close()
        await server.stop()
        return wall

    wall = asyncio.run(run())
    return {"bench": "service_throughput", "mesh": "M2(16) 1000 q",
            "wall_s": wall, "queries_per_s": queries / wall}


def _bench_service_throughput_sharded() -> Dict[str, object]:
    """The sharded plane in its production regime: 3 replica workers
    behind a router, binary codec, warmed routing tables, pipelined
    batches over 2 connections.  The ``speedup`` ratio is sharded
    warm qps over the single-process *cold-lookup* qps measured
    moments earlier on the same host (the ``service_throughput``
    regime), so the CI floor (>= SPEEDUP_FLOOR) holds regardless of
    how fast the machine is.  The headroom comes from warm tables +
    one-frame batch serialization, not core count — a 1-CPU runner
    still clears the floor; multi-core hosts go far past it."""
    import asyncio

    from repro.service.loadgen import LoadgenConfig, run_loadgen
    from repro.service.shard import ShardRouter

    single = _bench_service_throughput()
    single_qps = float(single["queries_per_s"])

    async def run() -> Dict[str, object]:
        router = ShardRouter(dims=(16, 16), rounds=2, num_shards=3)
        host, port = await router.start()
        try:
            return await run_loadgen(
                LoadgenConfig(
                    host=host, port=port, codec="binary",
                    connections=2, batches=20, batch_size=250,
                    warmup_batches=2,
                )
            )
        finally:
            await router.stop()

    report = asyncio.run(run())
    sharded_qps = float(report["throughput"]["qps"])
    return {
        "bench": "service_throughput_sharded",
        "mesh": "M2(16) 3sh 5000 q",
        "wall_s": float(report["throughput"]["wall_s"]),
        "queries_per_s": sharded_qps,
        "single_queries_per_s": round(single_qps, 3),
        "speedup": sharded_qps / single_qps,
    }


def _bench_workflow_resume() -> Dict[str, object]:
    """Checkpoint-replay overhead: a fully-populated reliability-slo
    checkpoint store resumed by fresh runner processes.  Every step is
    a cache hit, so the wall time is pure workflow-engine overhead —
    digest computation + ArtifactStore reads — which is what a killed
    campaign pays before doing new work."""
    import shutil
    import tempfile

    from repro.service.store import ArtifactStore
    from repro.workflow import WorkflowRunner

    overrides = {
        "sample-timeline": {"horizon": 1.0},
        "run-campaign": {"horizon": 1.0, "trials": 2},
    }
    root = tempfile.mkdtemp(prefix="wf-bench-")
    try:
        first = WorkflowRunner(store=ArtifactStore(root=root)).run(
            "reliability-slo", overrides=overrides
        )
        assert first.executed_steps == 3
        resumes = 20
        t0 = time.perf_counter()
        for _ in range(resumes):
            outcome = WorkflowRunner(store=ArtifactStore(root=root)).run(
                "reliability-slo", overrides=overrides
            )
            assert outcome.executed_steps == 0
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"bench": "workflow_resume_overhead",
            "mesh": f"reliability-slo x{resumes}",
            "wall_s": wall, "trials_per_s": resumes / wall}


BENCHES: Tuple[Callable[[], Dict[str, object]], ...] = (
    _bench_lamb_pipeline,
    _bench_reachability_product,
    _bench_sim_saturation,
    _bench_chaos_smoke,
    _bench_trial_engine,
    _bench_trial_engine_threads,
    _bench_trial_engine_procs,
    _bench_reliability_campaign,
    _bench_service_throughput,
    _bench_service_throughput_sharded,
    _bench_workflow_resume,
)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def host_fingerprint() -> Dict[str, object]:
    """Identity of the machine a baseline was recorded on.

    ``cpu_count`` is the affinity-aware count — in a cgroup-limited CI
    container that is the number of cores the benches can actually
    use, which is what makes wall times comparable; the raw host core
    count is kept alongside for context.
    """
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "cpu_count": available_cpu_count(),
        "cpu_count_raw": os.cpu_count(),
    }


def run_benches(repeats: int = 3) -> List[Dict[str, object]]:
    """Run every bench ``repeats`` times, keeping the fastest repeat
    (rate metrics are rescaled to the kept wall time)."""
    rows: List[Dict[str, object]] = []
    for fn in BENCHES:
        best: Optional[Dict[str, object]] = None
        for _ in range(max(1, repeats)):
            row = fn()
            if best is None or row["wall_s"] < best["wall_s"]:
                best = row
        best["wall_s"] = round(float(best["wall_s"]), 6)
        for key in ("cycles_per_s", "trials_per_s", "queries_per_s",
                    "speedup"):
            if key in best:
                best[key] = round(float(best[key]), 3)
        rows.append(best)
        print(f"  {best['bench']:<22} {best['mesh']:<18} "
              f"{best['wall_s']:>9.3f} s", file=sys.stderr)
    return rows


def payload(rows: List[Dict[str, object]]) -> Dict[str, object]:
    return {
        "schema": SCHEMA_VERSION,
        "generated": date.today().isoformat(),
        "host": host_fingerprint(),
        "benches": rows,
    }


def find_baseline(root: str = ".") -> Optional[str]:
    """Latest committed ``BENCH_<date>.json`` (lexicographic order is
    chronological for ISO dates)."""
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    return paths[-1] if paths else None


def compare(
    baseline: Dict[str, object],
    current: List[Dict[str, object]],
    tolerance: float = REGRESSION_TOLERANCE,
) -> Tuple[List[str], List[str]]:
    """Compare runs; returns (regressions, notes)."""
    regressions: List[str] = []
    notes: List[str] = []
    base_by_name = {row["bench"]: row for row in baseline.get("benches", [])}
    for row in current:
        name = row["bench"]
        base = base_by_name.get(name)
        if base is None:
            notes.append(f"{name}: no baseline entry (new bench)")
            continue
        old, new = float(base["wall_s"]), float(row["wall_s"])
        ratio = new / old if old > 0 else float("inf")
        verdict = (f"{name}: {old:.3f}s -> {new:.3f}s ({ratio:.2f}x)")
        if ratio > 1.0 + tolerance:
            regressions.append(verdict + f"  REGRESSION (> {tolerance:.0%})")
        else:
            notes.append(verdict)
    return regressions, notes


def check_speedups(
    rows: List[Dict[str, object]], floor: float = SPEEDUP_FLOOR
) -> List[str]:
    """Rows embedding a ``speedup`` ratio must meet the floor."""
    failures: List[str] = []
    for row in rows:
        if "speedup" in row and float(row["speedup"]) < floor:
            failures.append(
                f"{row['bench']}: speedup {float(row['speedup']):.2f}x "
                f"< required {floor:.0f}x"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None,
                    help="output path (default: BENCH_<today>.json)")
    ap.add_argument("--check", action="store_true",
                    help="compare a fresh run against the latest committed "
                         "BENCH_*.json instead of writing a new file")
    ap.add_argument("--auto", action="store_true",
                    help="with --check: warn-and-pass when no baseline "
                         "exists yet or it was recorded on another host "
                         "(first-run CI mode)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="repeats per bench, fastest kept (default 3)")
    args = ap.parse_args(argv)

    print("running perf subset "
          f"({len(BENCHES)} benches x {args.repeats} repeats)...",
          file=sys.stderr)
    rows = run_benches(repeats=args.repeats)

    if not args.check:
        out = args.out or f"BENCH_{date.today().isoformat()}.json"
        with open(out, "w") as fh:
            json.dump(payload(rows), fh, indent=2)
            fh.write("\n")
        print(f"wrote {out}")
        return 0

    # The speedup floor is a ratio measured inside one run, so it is
    # host-independent — enforce it even when the wall-clock baseline
    # comparison is skipped (no baseline / foreign host).
    speedup_failures = check_speedups(rows)
    for line in speedup_failures:
        print(f"  FAIL {line}", file=sys.stderr)
    if speedup_failures:
        return 1

    base_path = find_baseline()
    if base_path is None:
        msg = "no committed BENCH_*.json baseline found"
        if args.auto:
            print(f"WARNING: {msg}; passing (run `make bench-json` and "
                  "commit the result to arm the perf gate)")
            return 0
        print(f"ERROR: {msg}", file=sys.stderr)
        return 1
    with open(base_path) as fh:
        baseline = json.load(fh)
    if baseline.get("host") != host_fingerprint():
        print(f"WARNING: baseline {base_path} was recorded on a different "
              f"host ({baseline.get('host')} vs {host_fingerprint()}); "
              "wall-clock comparison is not meaningful — passing")
        return 0
    regressions, notes = compare(baseline, rows)
    for line in notes:
        print(f"  ok  {line}")
    for line in regressions:
        print(f"  FAIL {line}", file=sys.stderr)
    if regressions:
        print(f"perf regression vs {base_path}", file=sys.stderr)
        return 1
    print(f"no perf regression vs {base_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
