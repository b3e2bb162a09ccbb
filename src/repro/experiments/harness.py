"""Seeded multi-trial experiment runner.

All Section 8 experiments share one shape: fix a mesh and a fault
count, repeat ``trials`` times with fresh random faults, record
statistics of the lamb run.  The paper uses 1000 trials per point; the
default here is smaller so the full suite regenerates in minutes —
set the ``REPRO_TRIALS`` environment variable (or pass ``trials=``)
to restore the paper's counts.

Determinism: trial ``t`` of a sweep point draws faults from
``numpy.random.default_rng((seed, tag, t))``, so every number in
EXPERIMENTS.md is exactly reproducible.  Trials run serially: the
Fig. 26 column times each Lamb1 run, and a worker pool contending for
the CPU would inflate those timings without changing any count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np
from scipy import stats as _scipy_stats

from ..core.lamb import LambResult, find_lamb_set
from ..mesh.faults import random_node_faults
from ..mesh.geometry import Mesh
from ..routing.ordering import KRoundOrdering, ascending, repeated

__all__ = ["TrialSeries", "SweepResult", "default_trials", "lamb_trials"]


def default_trials(fallback: int) -> int:
    """Trial count: ``REPRO_TRIALS`` env var if set, else ``fallback``."""
    raw = os.environ.get("REPRO_TRIALS", "")
    if raw:
        n = int(raw)
        if n < 1:
            raise ValueError("REPRO_TRIALS must be positive")
        return n
    return fallback


@dataclass
class TrialSeries:
    """Per-trial measurements at one sweep point."""

    x: float
    values: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, **measurements: float) -> None:
        for k, v in measurements.items():
            self.values.setdefault(k, []).append(float(v))

    def avg(self, key: str) -> float:
        return float(np.mean(self.values[key]))

    def max(self, key: str) -> float:
        return float(np.max(self.values[key]))

    def min(self, key: str) -> float:
        return float(np.min(self.values[key]))

    def std(self, key: str) -> float:
        return float(np.std(self.values[key], ddof=1)) if self.trials > 1 else 0.0

    def ci95(self, key: str) -> float:
        """Half-width of the 95% t-confidence interval on the mean
        (0 for fewer than two trials)."""
        n = len(self.values[key])
        if n < 2:
            return 0.0
        sem = self.std(key) / np.sqrt(n)
        return float(_scipy_stats.t.ppf(0.975, n - 1) * sem)

    @property
    def trials(self) -> int:
        return len(next(iter(self.values.values()))) if self.values else 0


#: Aggregations accepted by :meth:`SweepResult.column`.
_AGGS: Dict[str, Callable[[TrialSeries, str], float]] = {
    "avg": TrialSeries.avg,
    "max": TrialSeries.max,
    "min": TrialSeries.min,
    "std": TrialSeries.std,
    "ci95": TrialSeries.ci95,
}


@dataclass
class SweepResult:
    """One figure/table worth of data: a sweep over x with per-point
    trial series plus derived columns."""

    figure: str
    description: str
    x_label: str
    series: List[TrialSeries] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def column(self, key: str, agg: str = "avg") -> List[float]:
        fn = _AGGS.get(agg)
        if fn is None:
            raise ValueError(
                f"unknown agg {agg!r}; expected one of {sorted(_AGGS)}"
            )
        return [fn(s, key) for s in self.series]

    @property
    def xs(self) -> List[float]:
        return [s.x for s in self.series]


def lamb_trials(
    mesh: Mesh,
    num_faults: int,
    trials: int,
    seed: int = 0,
    tag: int = 0,
    orderings: Optional[KRoundOrdering] = None,
    method: str = "bipartite",
    extra: Optional[Callable[[LambResult], Mapping[str, float]]] = None,
) -> TrialSeries:
    """Run ``trials`` lamb computations with fresh random node faults.

    Trial ``t`` draws its faults from ``default_rng((seed, tag, t))``.
    Records per trial: ``lambs`` (|Λ|), ``num_ses``, ``num_des``,
    ``seconds`` (total pipeline wall clock), plus anything returned by
    ``extra(result)``.
    """
    if orderings is None:
        orderings = repeated(ascending(mesh.d), 2)
    series = TrialSeries(x=num_faults)
    for t in range(trials):
        rng = np.random.default_rng((seed, tag, t))
        faults = random_node_faults(mesh, num_faults, rng)
        result = find_lamb_set(faults, orderings, method=method)
        row: Dict[str, float] = {
            "lambs": result.size,
            "num_ses": result.num_ses,
            "num_des": result.num_des,
            "seconds": result.timings["total"],
        }
        if extra is not None:
            row.update(extra(result))
        series.add(**row)
    return series
