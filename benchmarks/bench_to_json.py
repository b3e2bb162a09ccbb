"""Machine-readable perf-regression harness.

Runs a small curated benchmark subset — the lamb pipeline, the
one-round reachability kernel, the wormhole simulator under
saturation, the seeded chaos scenario and the route-query service
data path — and writes ``BENCH_<date>.json`` rows of ``{bench, mesh,
wall_s, cycles_per_s / trials_per_s / queries_per_s}``.  A comparator
mode diffs a fresh run against the latest committed baseline and
fails on a >25% wall-clock regression.

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
from repro.mesh import Mesh, random_node_faults
from repro.mesh.faults import FaultSet
from repro.routing import LineFaultIndex, repeated, xy, xyz
from repro.wormhole.chaos import seeded_chaos_run
from repro.wormhole.simulator import WormholeSimulator

#: Comparator threshold: fail when a bench is more than this much
#: slower than the committed baseline.
REGRESSION_TOLERANCE = 0.25

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
    """Wormhole simulator (event-driven step loop, run-level flit
    kernel) under staggered uniform traffic on a fault-free M2(16):
    400 messages x 8 flits."""
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


def _bench_service_throughput() -> Dict[str, object]:
    """Route-query service data path: real TCP on localhost, 1000
    pipelined queries (batches of 100, one binary frame each) against a
    pre-compiled 16x16 artifact.  Times only the query phase — the
    compile is the control path and has its own bench
    (``lamb_pipeline``).  The ledger's recorded value was measured over
    the since-deleted NDJSON codec, so a fresh run is not like for like
    with it."""
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


BENCHES: Tuple[Callable[[], Dict[str, object]], ...] = (
    _bench_lamb_pipeline,
    _bench_reachability_product,
    _bench_sim_saturation,
    _bench_chaos_smoke,
    _bench_service_throughput,
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
    probe = getattr(os, "process_cpu_count", None)  # Python 3.13+
    if probe is not None:
        cpus = probe()
    elif hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "cpu_count": cpus or 1,
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
        for key in ("cycles_per_s", "trials_per_s", "queries_per_s"):
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
