"""Static verification layer.

Two prongs, both run *before* any simulation cycle:

- :mod:`repro.analysis.static.cdg` — the channel-dependency-graph
  deadlock prover.  Builds the extended Dally–Seitz CDG for a
  (mesh, fault set, k-round ordering, VC assignment) configuration and
  proves acyclicity, or emits a minimal dependency cycle as a
  counterexample artifact.
- :mod:`repro.analysis.static.lint` — the AST-based domain lint
  engine behind ``repro analyze`` / ``make lint``, with rules for
  unseeded randomness, hash-order-dependent iteration and mutable
  default arguments (see :mod:`repro.analysis.static.rules`).
"""

from .cdg import (
    CdgReport,
    DependencyCycle,
    StaticDeadlockError,
    assert_deadlock_free,
    build_cdg,
    find_dependency_cycle,
    prove_deadlock_free,
)
from .cycles import find_minimal_cycle
from .lint import LintEngine, Violation, analyze_paths
from .rules import ALL_RULES, KNOWN_RULE_IDS, LintRule

__all__ = [
    "CdgReport",
    "DependencyCycle",
    "StaticDeadlockError",
    "assert_deadlock_free",
    "build_cdg",
    "find_dependency_cycle",
    "find_minimal_cycle",
    "prove_deadlock_free",
    "LintEngine",
    "Violation",
    "analyze_paths",
    "ALL_RULES",
    "KNOWN_RULE_IDS",
    "LintRule",
]
