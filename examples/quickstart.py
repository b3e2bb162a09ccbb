#!/usr/bin/env python
"""Quickstart: the paper's Section 5 worked example, end to end.

Builds the 12x12 mesh with three faults (Fig. 2), finds the SES/DES
partitions (Figs. 3-4), prints the reachability matrices R (Table 1)
and R^(2) (Table 2), computes the lamb set Λ = {(11,10), (10,11)}
(Fig. 10), verifies it against the definition, and materializes a
2-round route between two survivors.

Run:  python examples/quickstart.py
"""

from repro import FaultSet, Mesh, find_lamb_set, repeated, xy
from repro.core import is_lamb_set
from repro.experiments import render_matrix, worked_example
from repro.routing import count_turns_multiround, find_k_round_route


def main() -> None:
    mesh = Mesh((12, 12))
    faults = FaultSet(mesh, [(9, 1), (11, 6), (10, 10)])
    orderings = repeated(xy(), 2)  # two rounds of XY routing, one VC each

    print(f"mesh: {mesh}, faults: {list(faults.node_faults)}")

    result = find_lamb_set(faults, orderings)
    print(f"\nSES partition: {result.num_ses} sets (paper: 9)")
    print(f"DES partition: {result.num_des} sets (paper: 7)")
    print(f"lamb set: {sorted(result.lambs)} (paper: [(10,11), (11,10)])")
    print(f"cover weight: {result.cover_weight} (paper: 2)")
    print(f"additional damage |lambs|/f: {result.additional_damage():.2f}")

    # The published tables, regenerated with the paper's numbering.
    we = worked_example()
    print("\nTable 1 (one-round reachability R):")
    print(render_matrix(we.R))
    print("Table 2 (two-round reachability R^(2)):")
    print(render_matrix(we.R2))
    print(f"exactly matches the paper: {we.matches_paper()}")

    # Certify Λ directly against Definition 2.6 (brute force).
    print(f"is a valid lamb set: {is_lamb_set(faults, orderings, result.lambs)}")

    # Materialize a concrete 2-round route between two survivors that
    # cannot reach each other in one round, from the lamb run's own
    # SES/DES rectangles and reachability matrices.
    src, dst = (0, 1), (9, 2)
    paths = find_k_round_route(result.reach_index, src, dst)
    assert paths is not None
    print(f"\n2-round route {src} -> {dst}:")
    for t, p in enumerate(paths):
        print(f"  round {t + 1} ({len(p) - 1} hops): {p[0]} .. {p[-1]}")
    print(f"  turns: {count_turns_multiround(paths)} (2-round 2D bound: 3)")


if __name__ == "__main__":
    main()
