"""Core of the reproduction: the lamb-set machinery of Sections 4-7."""

from .bounds import (
    one_round_expected_lamb_lower_bound,
    partition_size_bound,
    partition_size_bound_loose,
)
from .equivalence import (
    dec_partition,
    is_des,
    is_partition_of_good_nodes,
    is_ses,
    one_round_reach_matrix,
    sec_partition,
)
from .generic import (
    generic_lamb_set,
    k_round_matrix_from_relation,
    torus_lamb_set,
    torus_reach_matrix,
)
from .lamb import METHODS, LambResult, build_reach_index, find_lamb_set
from .partition import (
    find_des_partition,
    find_ses_partition,
    partition_representatives,
)
from .reachability import (
    ReachabilityData,
    bool_matmul,
    density,
    find_reachability,
    one_round_reachability_matrix,
)
from .reconfigure import (
    Epoch,
    ReconfigurationError,
    ReconfigurationManager,
    largest_good_component,
)
from .routing_table import RouteEntry, RoutingTable, build_routing_table
from .validate import (
    full_reach_matrix,
    is_lamb_set,
    is_survivor_set,
    survivor_violations,
)

__all__ = [
    "find_lamb_set",
    "build_reach_index",
    "LambResult",
    "METHODS",
    "find_ses_partition",
    "find_des_partition",
    "partition_representatives",
    "one_round_reachability_matrix",
    "find_reachability",
    "ReachabilityData",
    "bool_matmul",
    "density",
    "sec_partition",
    "dec_partition",
    "is_ses",
    "is_des",
    "is_partition_of_good_nodes",
    "one_round_reach_matrix",
    "full_reach_matrix",
    "is_lamb_set",
    "is_survivor_set",
    "survivor_violations",
    "partition_size_bound",
    "partition_size_bound_loose",
    "one_round_expected_lamb_lower_bound",
    "generic_lamb_set",
    "ReconfigurationManager",
    "ReconfigurationError",
    "largest_good_component",
    "Epoch",
    "RoutingTable",
    "RouteEntry",
    "build_routing_table",
    "k_round_matrix_from_relation",
    "torus_lamb_set",
    "torus_reach_matrix",
]
