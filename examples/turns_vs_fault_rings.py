#!/usr/bin/env python
"""Lambs vs fault-ring routing vs inactivation.

Reproduces the qualitative comparisons of Section 1:

1. **Turns.** On the 'ladder' fault pattern, a Boppana-Chalasani-style
   fault-ring router serpentines around every rung — a constant times
   n turns — while 2-round lamb routing needs at most 3 turns on 2D.
2. **Sacrificed nodes.** On random faults, rectangularizing the fault
   regions (so ring-based schemes apply) inactivates far more good
   nodes than the lamb approach sacrifices — the paper's open question,
   answered empirically.

Run:  python examples/turns_vs_fault_rings.py
"""

import numpy as np

from repro import FaultSet, Mesh, find_lamb_set, repeated, xy
from repro.baselines import BlockFaultRouter, inactivated_nodes
from repro.baselines.block_fault import comb_blocks
from repro.routing import count_turns, count_turns_multiround, find_k_round_route


def turn_comparison() -> None:
    print("=== turns: fault-ring router vs 2-round lamb routing ===")
    orderings = repeated(xy(), 2)
    print(f"{'n':>4} {'rungs':>6} {'ring turns':>11} {'lamb turns':>11}")
    for n in (16, 32, 64):
        mesh = Mesh((n, n))
        blocks = comb_blocks(mesh, column=n // 2)
        router = BlockFaultRouter(mesh, blocks)
        src, dst = (n // 2, 0), (n // 2, n - 1)
        ring_turns = count_turns(router.route(src, dst))

        faults = router.fault_set()
        result = find_lamb_set(faults, orderings)
        assert result.is_survivor(src) and result.is_survivor(dst)
        paths = find_k_round_route(result.reach_index, src, dst)
        assert paths is not None
        lamb_turns = count_turns_multiround(paths)
        print(f"{n:>4} {len(blocks):>6} {ring_turns:>11} {lamb_turns:>11}")
    print("ring turns grow linearly with n; lamb routing is bounded by 3.\n")


def sacrifice_comparison() -> None:
    print("=== sacrificed nodes: inactivation vs lambs (random faults) ===")
    from repro import xyz

    mesh = Mesh.square(3, 16)  # the paper's 3D regime
    orderings = repeated(xyz(), 2)
    rng = np.random.default_rng(11)
    print(f"{'faults':>7} {'%N':>5} {'inactivated':>12} {'lambs':>6}")
    for f in (20, 41, 82, 123):  # 0.5% .. 3% of 4096 nodes
        inact_counts, lamb_counts = [], []
        for _ in range(3):
            faults = FaultSet(mesh, mesh.random_nodes(f, rng))
            inact_counts.append(inactivated_nodes(faults).num_inactivated)
            lamb_counts.append(find_lamb_set(faults, orderings).size)
        print(f"{f:>7} {100 * f / mesh.num_nodes:>5.1f} "
              f"{np.mean(inact_counts):>12.1f} {np.mean(lamb_counts):>6.1f}")
    print(
        "In 3D the bounding boxes chain-merge catastrophically (at 3% faults\n"
        "rectangularization kills thousands of good nodes; lambs: a handful).\n"
        "Caveat: on 2D meshes with faults beyond the bisection width the\n"
        "comparison flips — see benchmarks/bench_ablation_inactivation.py."
    )


if __name__ == "__main__":
    turn_comparison()
    sacrifice_comparison()
