"""Static verification layer.

Three prongs, all run *before* any simulation cycle:

- :mod:`repro.analysis.static.cdg` — the channel-dependency-graph
  deadlock prover.  Builds the extended Dally–Seitz CDG for a
  (mesh, fault set, k-round ordering, VC assignment) configuration and
  proves acyclicity, or emits a minimal dependency cycle as a
  counterexample artifact.
- :mod:`repro.analysis.static.lint` — the AST-based domain lint
  engine behind ``repro analyze`` / ``make lint``, with rules for
  unseeded randomness, hash-order-dependent iteration, mutable default
  arguments and bare ``except`` (see :mod:`repro.analysis.static.rules`).
- :mod:`repro.analysis.static.concurrency` — the interprocedural
  concurrency-soundness pass behind ``repro analyze --concurrency``:
  lock-order deadlock certificates (REP201), asyncio blocking-call
  detection (REP202), lock-held-across-await (REP204) and unguarded
  shared writes (REP205), sharing the CDG prover's minimal-cycle search
  (:mod:`repro.analysis.static.cycles`).
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
from .concurrency import (
    ConcurrencyFinding,
    ConcurrencyReport,
    LockOrderCycle,
    analyze_concurrency,
    analyze_sources,
    apply_baseline,
    load_baseline,
)
from .cycles import find_minimal_cycle
from .lint import LintEngine, Violation, analyze_paths
from .rules import ALL_RULES, CONCURRENCY_RULES, KNOWN_RULE_IDS, LintRule

__all__ = [
    "CdgReport",
    "DependencyCycle",
    "StaticDeadlockError",
    "assert_deadlock_free",
    "build_cdg",
    "find_dependency_cycle",
    "find_minimal_cycle",
    "prove_deadlock_free",
    "ConcurrencyFinding",
    "ConcurrencyReport",
    "LockOrderCycle",
    "analyze_concurrency",
    "analyze_sources",
    "apply_baseline",
    "load_baseline",
    "LintEngine",
    "Violation",
    "analyze_paths",
    "ALL_RULES",
    "CONCURRENCY_RULES",
    "KNOWN_RULE_IDS",
    "LintRule",
]
