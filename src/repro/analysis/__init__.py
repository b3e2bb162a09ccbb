"""Analytic models: blocking probabilities and executable proofs."""

from .blocking import (
    expected_one_round_reachable_fraction,
    expected_pair_survival,
    expected_route_length,
    route_survival_probability,
)
from .theorem31 import (
    disjointness_holds,
    route_hits_fault,
    set_A,
    set_B,
    simulated_one_round_lower_bound,
)

__all__ = [
    "route_survival_probability",
    "expected_one_round_reachable_fraction",
    "expected_pair_survival",
    "expected_route_length",
    "set_A",
    "set_B",
    "disjointness_holds",
    "route_hits_fault",
    "simulated_one_round_lower_bound",
]
