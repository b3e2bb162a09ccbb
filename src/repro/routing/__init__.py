"""Routing substrate: orderings, dimension-ordered routes, reachability."""

from .dor import (
    dor_path,
    dor_segments,
    one_round_reachable,
    path_is_fault_free,
    torus_dor_path,
    torus_one_round_reachable,
)
from .linefaults import LineFaultIndex
from .multiround import (
    FaultGrids,
    k_round_reachable,
    multi_source_reach_sets,
    reach_set_k_rounds,
    reach_set_one_round,
    reverse_reach_set_one_round,
)
from .ordering import KRoundOrdering, Ordering, ascending, repeated, xy, xyz
from .reachindex import ReachIndex, find_k_round_route
from .turns import count_turns, count_turns_multiround, max_turns_bound

__all__ = [
    "Ordering",
    "KRoundOrdering",
    "ascending",
    "repeated",
    "xy",
    "xyz",
    "LineFaultIndex",
    "dor_path",
    "dor_segments",
    "one_round_reachable",
    "path_is_fault_free",
    "torus_dor_path",
    "torus_one_round_reachable",
    "FaultGrids",
    "reach_set_one_round",
    "reverse_reach_set_one_round",
    "reach_set_k_rounds",
    "multi_source_reach_sets",
    "k_round_reachable",
    "ReachIndex",
    "find_k_round_route",
    "count_turns",
    "count_turns_multiround",
    "max_turns_bound",
]
