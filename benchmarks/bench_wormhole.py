"""Wormhole simulator benchmarks: deadlock-free lamb routing under
load, and turn counts vs the fault-ring baseline.

Covers the paper's system-level claims: (i) 2-round DOR on 2 VCs
drains arbitrary survivor traffic without deadlock on a faulty mesh
with a lamb set; (ii) route turns stay within k(d-1) + (k-1), while a
fault-ring router's turns grow linearly with the mesh on ladder
faults.
"""

import numpy as np

from repro.baselines import BlockFaultRouter
from repro.baselines.block_fault import comb_blocks
from repro.core import build_reach_index, find_lamb_set
from repro.mesh import Mesh, random_node_faults
from repro.routing import (
    count_turns,
    count_turns_multiround,
    find_k_round_route,
    max_turns_bound,
    repeated,
    xy,
    xyz,
)
from repro.wormhole import WormholeSimulator, uniform_random_traffic

from conftest import run_once


def _drain_3d(num_messages=200):
    mesh = Mesh.square(3, 8)
    rng = np.random.default_rng(5)
    faults = random_node_faults(mesh, 15, rng)
    orderings = repeated(xyz(), 2)
    result = find_lamb_set(faults, orderings)
    endpoints = [v for v in mesh.nodes() if result.is_survivor(v)]
    sim = WormholeSimulator(faults, orderings, seed=5)
    for inj in uniform_random_traffic(endpoints, num_messages, rng, num_flits=8):
        sim.send(inj.source, inj.dest, inj.num_flits, inj.inject_cycle)
    return sim.run(max_cycles=500_000)


def test_survivor_traffic_drains_3d(benchmark, show):
    stats = run_once(benchmark, _drain_3d)
    show(
        f"3D drain: {stats.delivered}/{stats.total_messages} messages, "
        f"{stats.cycles} cycles, avg latency {stats.avg_latency:.1f}, "
        f"max turns {stats.max_turns}\n"
    )
    assert stats.delivered == stats.total_messages
    assert stats.max_turns <= max_turns_bound(3, 2)


def _turns_sweep():
    rows = []
    orderings = repeated(xy(), 2)
    for n in (16, 32, 64):
        mesh = Mesh((n, n))
        router = BlockFaultRouter(mesh, comb_blocks(mesh, column=n // 2))
        src, dst = (n // 2, 0), (n // 2, n - 1)
        ring_turns = count_turns(router.route(src, dst))
        faults = router.fault_set()
        index = build_reach_index(faults, orderings)
        paths = find_k_round_route(index, src, dst)
        lamb_turns = count_turns_multiround(paths)
        rows.append((n, ring_turns, lamb_turns))
    return rows


def test_turns_vs_fault_rings(benchmark, show):
    rows = run_once(benchmark, _turns_sweep)
    lines = [f"{'n':>4} {'ring turns':>11} {'lamb turns':>11}"]
    for n, rt, lt in rows:
        lines.append(f"{n:>4} {rt:>11} {lt:>11}")
    show("\n".join(lines) + "\n")
    # Ring turns grow ~linearly; lamb turns bounded by 3 (2D, k=2).
    assert rows[-1][1] >= 2 * rows[0][1]
    for _, rt, lt in rows:
        assert lt <= max_turns_bound(2, 2)
        assert rt > lt
