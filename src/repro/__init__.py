"""repro — fault-tolerant wormhole routing via sacrificial lamb nodes.

A production-grade reproduction of Ho & Stockmeyer, *A New Approach to
Fault-Tolerant Wormhole Routing for Mesh-Connected Parallel Computers*
(IPDPS 2002).

Quickstart
----------
>>> from repro import Mesh, FaultSet, find_lamb_set, repeated, xy
>>> mesh = Mesh((12, 12))
>>> faults = FaultSet(mesh, [(9, 1), (11, 6), (10, 10)])
>>> result = find_lamb_set(faults, repeated(xy(), 2))
>>> sorted(result.lambs)
[(10, 11), (11, 10)]

See :mod:`repro.experiments` for the paper's figure/table
reproductions and :mod:`repro.wormhole` for the flit-level simulator.
"""

from .core import (
    LambResult,
    ReconfigurationManager,
    RoutingTable,
    build_reach_index,
    build_routing_table,
    find_des_partition,
    find_lamb_set,
    find_ses_partition,
    is_lamb_set,
    one_round_expected_lamb_lower_bound,
    partition_size_bound,
    torus_lamb_set,
)
from .mesh import FaultSet, Mesh, Rect, Torus, random_node_faults
from .routing import (
    KRoundOrdering,
    Ordering,
    ascending,
    dor_path,
    find_k_round_route,
    repeated,
    xy,
    xyz,
)

__version__ = "1.0.0"

__all__ = [
    "Mesh",
    "Torus",
    "FaultSet",
    "Rect",
    "random_node_faults",
    "Ordering",
    "KRoundOrdering",
    "ascending",
    "repeated",
    "xy",
    "xyz",
    "dor_path",
    "find_k_round_route",
    "build_reach_index",
    "find_lamb_set",
    "LambResult",
    "ReconfigurationManager",
    "RoutingTable",
    "build_routing_table",
    "find_ses_partition",
    "find_des_partition",
    "is_lamb_set",
    "partition_size_bound",
    "one_round_expected_lamb_lower_bound",
    "torus_lamb_set",
    "__version__",
]
