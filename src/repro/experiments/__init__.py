"""Reproduction harness for every table and figure of the paper."""

from .figures import (
    PERCENTS,
    fig17,
    fig18,
    fig19,
    fig20,
    fig21,
    fig22,
    fig23,
    fig24,
    fig25,
    fig26,
    section3_one_vs_two_rounds,
)
from .chaos_experiments import fault_arrival_sweep
from .harness import SweepResult, TrialSeries, default_trials, lamb_trials
from .link_faults import link_fault_sweep, link_vs_node_conversion
from .parallel import (
    TrialEngine,
    engine_jobs,
    get_default_engine,
    resolve_jobs,
    set_default_jobs,
)
from .wormhole_experiments import (
    CascadeResult,
    injection_rate_sweep,
    lambs_must_route,
)
from .report import render_matrix, render_sweep, sweep_to_markdown
from .tables import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    WorkedExample,
    worked_example,
)

__all__ = [
    "PERCENTS",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "fig22",
    "fig23",
    "fig24",
    "fig25",
    "fig26",
    "section3_one_vs_two_rounds",
    "SweepResult",
    "TrialSeries",
    "TrialEngine",
    "default_trials",
    "engine_jobs",
    "get_default_engine",
    "lamb_trials",
    "resolve_jobs",
    "set_default_jobs",
    "link_fault_sweep",
    "link_vs_node_conversion",
    "injection_rate_sweep",
    "lambs_must_route",
    "CascadeResult",
    "fault_arrival_sweep",
    "render_sweep",
    "render_matrix",
    "sweep_to_markdown",
    "worked_example",
    "WorkedExample",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
]
