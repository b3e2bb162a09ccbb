"""System-level wormhole experiments.

Beyond the paper's combinatorial simulations, these experiments
exercise the *machine* the lamb sets are for:

- :func:`injection_rate_sweep` — the classic latency/throughput
  saturation curve of the reconfigured network under open-loop
  uniform traffic, for any fault set + lamb set;
- :func:`lambs_must_route` — an ablation certifying the core design
  point that lambs keep *routing*: if the lamb nodes were inactivated
  outright (treated as faults), the lamb computation cascades — more
  good nodes must be sacrificed, sometimes repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.lamb import LambResult, find_lamb_set
from ..mesh.faults import FaultSet
from ..routing.ordering import KRoundOrdering
from ..wormhole.simulator import WormholeSimulator
from .harness import SweepResult, TrialSeries

__all__ = ["injection_rate_sweep", "lambs_must_route", "CascadeResult"]


def injection_rate_sweep(
    result: LambResult,
    rates: Sequence[float] = (0.01, 0.02, 0.04, 0.08, 0.16),
    window: int = 300,
    num_flits: int = 8,
    seed: int = 0,
    max_cycles: int = 2_000_000,
) -> SweepResult:
    """Latency vs offered load on the reconfigured machine.

    ``rates`` are offered loads in messages per cycle (network-wide);
    message arrivals are Bernoulli per cycle over a ``window``-cycle
    injection phase, after which the network drains.  Each rate point
    is an independent simulation seeded from ``(seed, rate)``.
    """
    mesh = result.mesh
    survivors = [v for v in mesh.nodes() if result.is_survivor(v)]
    if len(survivors) < 2:
        raise ValueError("need at least two survivors")
    out = SweepResult(
        figure="saturation",
        description=f"latency vs offered load, {mesh}, "
        f"{result.faults.f} faults, {result.size} lambs",
        x_label="offered load (msgs/cycle)",
        meta={"window": window, "num_flits": num_flits},
    )
    for rate in rates:
        rng = np.random.default_rng((seed, int(rate * 1e6)))
        sim = WormholeSimulator(result.faults, result.orderings, seed=seed)
        injected = 0
        for cycle in range(window):
            for _ in range(rng.poisson(rate)):
                i = int(rng.integers(len(survivors)))
                j = int(rng.integers(len(survivors) - 1))
                if j >= i:
                    j += 1
                sim.send(survivors[i], survivors[j], num_flits, cycle)
                injected += 1
        if injected == 0:
            continue
        stats = sim.run(max_cycles=max_cycles)
        series = TrialSeries(x=rate)
        series.add(
            avg_latency=stats.avg_latency,
            p95_latency=stats.p95_latency,
            throughput=stats.throughput_flits_per_cycle,
            delivered=stats.delivered,
        )
        out.series.append(series)
    return out


@dataclass
class CascadeResult:
    """Outcome of the lambs-must-route ablation.

    ``rounds`` lists, per cascade step, the number of *additional*
    good nodes sacrificed when the previous step's lambs are
    inactivated (turned into faults) instead of kept as routers.
    """

    base_lambs: int
    rounds: List[int]
    total_sacrificed: int

    @property
    def cascade_factor(self) -> float:
        """Total sacrificed nodes relative to the lamb approach."""
        if self.base_lambs == 0:
            return 1.0
        return self.total_sacrificed / self.base_lambs


def lambs_must_route(
    faults: FaultSet,
    orderings: KRoundOrdering,
    max_rounds: int = 10,
) -> CascadeResult:
    """What if lambs could not route?

    Inactivating a lamb (removing it from the network entirely) can
    break paths other survivors depended on, forcing further
    sacrifices.  This iterates lamb computation with each step's lambs
    converted to faults until a fixed point, reporting the cascade.
    """
    base = find_lamb_set(faults, orderings)
    rounds: List[int] = []
    current = faults
    lambs = base.lambs
    total = len(lambs)
    rounds.append(len(lambs))
    for _ in range(max_rounds):
        if not lambs:
            break
        current = current.with_nodes_as_faults(lambs)
        step = find_lamb_set(current, orderings)
        lambs = step.lambs
        if lambs:
            rounds.append(len(lambs))
            total += len(lambs)
    return CascadeResult(
        base_lambs=base.size, rounds=rounds, total_sacrificed=total
    )
