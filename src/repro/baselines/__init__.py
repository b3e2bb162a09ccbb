"""Baseline comparators: one-round routing, fault-ring routing,
node inactivation."""

from .block_fault import BlockFaultRouter, FaultBlock, comb_blocks, staircase_blocks
from .inactivation import InactivationResult, inactivated_nodes, rectangularize
from .one_round import OneVsTwoRounds, compare_one_vs_two_rounds, one_round_lamb

__all__ = [
    "one_round_lamb",
    "compare_one_vs_two_rounds",
    "OneVsTwoRounds",
    "BlockFaultRouter",
    "FaultBlock",
    "staircase_blocks",
    "comb_blocks",
    "rectangularize",
    "inactivated_nodes",
    "InactivationResult",
]
