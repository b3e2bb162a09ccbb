"""Monte Carlo reliability campaigns: renewal faults in, SLO verdict out.

One campaign answers the fleet question the paper's one-shot
evaluation cannot: *what fault rate can this mesh sustain at a given
survivor-connectivity floor?*  Per trial ``t`` (seeded from
``(seed, tag, t)`` like every sweep in the repo):

1. sample a fail/repair :class:`~repro.reliability.FaultTimeline`
   from the configured arrival/repair processes;
2. walk its piecewise-constant down-sets; for each interval, compile
   the fault configuration through the PR-4
   :class:`~repro.service.ReconfigurationCompiler` — the full
   degradation ladder, with the content-addressed artifact cache
   turning repaired/re-failed (recurring) configs into cache hits;
3. score survivor connectivity: the largest connected component of
   non-faulty, non-lamb nodes as a fraction of the whole machine; an
   interval is *up* when the compile succeeded and connectivity meets
   the SLO floor (a failed compile — ladder exhausted — is down time);
4. time-weight up intervals into per-trial availability.

The campaign runs its trials serially and pools them into a
:class:`CampaignReport` with availability, observed MTTF/MTTR, and a
Wilson-bounded :class:`~repro.reliability.SLOVerdict`.

Determinism: the report's JSON is a pure function of the
:class:`CampaignConfig`.  Cache-hit counts are included *per trial*
(each trial owns a fresh in-memory store, so its hit pattern is
seeded-deterministic); wall-clock never enters the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.reconfigure import largest_good_component
from ..mesh.faults import FaultSet
from ..mesh.geometry import Mesh
from ..mesh.torus import Torus
from ..obs import get_registry
from ..routing.ordering import ascending, repeated
from ..service.compiler import ReconfigurationCompiler
from ..service.errors import CompileError
from ..service.store import ArtifactStore
from .processes import arrival_process, generate_timeline, repair_model
from .slo import SLOTarget, SLOVerdict

__all__ = ["CampaignConfig", "CampaignReport", "run_campaign"]


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign depends on: the config *is* the
    campaign's identity."""

    widths: Tuple[int, ...] = (8, 8)
    torus: bool = False
    k: int = 2
    arrival: str = "poisson"  # "poisson" | "weibull"
    rate: float = 1.0  # Poisson: faults per time unit
    shape: float = 1.0  # Weibull shape
    scale: float = 1.0  # Weibull scale
    repair: str = "deterministic"  # "deterministic" | "exponential"
    mttr: float = 0.25
    horizon: float = 4.0
    trials: int = 8
    seed: int = 0
    tag: int = 0
    method: str = "bipartite"
    lamb_budget: Optional[int] = None
    max_extra_rounds: int = 1
    slo: SLOTarget = field(default_factory=SLOTarget)

    def __post_init__(self) -> None:
        widths = tuple(int(w) for w in self.widths)
        if len(widths) < 2 or any(w < 2 for w in widths):
            raise ValueError(f"bad mesh widths {self.widths}")
        object.__setattr__(self, "widths", widths)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # Fail fast on bad process parameters (the factories validate).
        arrival_process(self.arrival, self.rate, self.shape, self.scale)
        repair_model(self.repair, self.mttr)

    def build_mesh(self) -> Mesh:
        return Torus(self.widths) if self.torus else Mesh(self.widths)

    def mesh_spec(self) -> str:
        spec = "x".join(str(w) for w in self.widths)
        return f"torus:{spec}" if self.torus else spec

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mesh": self.mesh_spec(),
            "k": self.k,
            "arrival": self.arrival,
            "rate": self.rate,
            "shape": self.shape,
            "scale": self.scale,
            "repair": self.repair,
            "mttr": self.mttr,
            "horizon": self.horizon,
            "trials": self.trials,
            "seed": self.seed,
            "tag": self.tag,
            "method": self.method,
            "lamb_budget": self.lamb_budget,
            "max_extra_rounds": self.max_extra_rounds,
            "slo": {
                "connectivity": self.slo.connectivity,
                "availability": self.slo.availability,
            },
        }


def _campaign_trial(cfg: CampaignConfig, mesh: Mesh, t: int) -> Dict[str, Any]:
    """One trial: timeline -> per-interval compile -> availability.

    The compiler and its artifact store are *fresh per trial*: the
    compiler adopts escalated orderings across compiles, so sharing
    one across trials would make a trial's result depend on the
    trials before it.
    """
    arrival = arrival_process(cfg.arrival, cfg.rate, cfg.shape, cfg.scale)
    repair = repair_model(cfg.repair, cfg.mttr)
    rng = np.random.default_rng((cfg.seed, cfg.tag, t))
    timeline = generate_timeline(mesh, arrival, repair, cfg.horizon, rng)
    compiler = ReconfigurationCompiler(
        mesh,
        repeated(ascending(mesh.d), cfg.k),
        store=ArtifactStore(),
        method=cfg.method,
        lamb_budget=cfg.lamb_budget,
        max_extra_rounds=cfg.max_extra_rounds,
    )
    up_time = 0.0
    down_time = 0.0
    epochs = 0
    epochs_up = 0
    compiles = 0
    cache_hits = 0
    degraded = 0
    compile_failures = 0
    worst_lambs = 0
    min_connectivity = 1.0
    weighted_connectivity = 0.0
    max_concurrent_faults = 0
    for t0, t1, down in timeline.intervals():
        weight = t1 - t0
        epochs += 1
        max_concurrent_faults = max(max_concurrent_faults, len(down))
        if not down:
            connectivity = 1.0
        else:
            faults = FaultSet(mesh, down)
            try:
                artifact, source = compiler.compile(faults)
            except CompileError:
                compile_failures += 1
                connectivity = 0.0
            else:
                compiles += 1
                if source in ("current", "memory", "store"):
                    cache_hits += 1
                if artifact.degraded:
                    degraded += 1
                worst_lambs = max(worst_lambs, artifact.num_lambs)
                best, _rest = largest_good_component(artifact.result.faults)
                alive = best - artifact.result.lambs
                connectivity = len(alive) / mesh.num_nodes
        min_connectivity = min(min_connectivity, connectivity)
        weighted_connectivity += connectivity * weight
        if connectivity >= cfg.slo.connectivity:
            up_time += weight
            epochs_up += 1
        else:
            down_time += weight
    return {
        "trial": t,
        "availability": up_time / cfg.horizon,
        "up_time": up_time,
        "down_time": down_time,
        "epochs": epochs,
        "epochs_up": epochs_up,
        "faults": timeline.num_faults,
        "repairs": timeline.num_repairs,
        "max_concurrent_faults": max_concurrent_faults,
        "observed_mttf": timeline.observed_mttf,
        "observed_mttr": timeline.observed_mttr,
        "repair_latencies": list(timeline.repair_durations),
        "compiles": compiles,
        "cache_hits": cache_hits,
        "degraded_epochs": degraded,
        "compile_failures": compile_failures,
        "worst_lambs": worst_lambs,
        "min_connectivity": min_connectivity,
        "mean_connectivity": weighted_connectivity / cfg.horizon,
    }


@dataclass
class CampaignReport:
    """Pooled campaign results + SLO verdict."""

    config: CampaignConfig
    verdict: SLOVerdict
    trials: List[Dict[str, Any]]

    # ------------------------------------------------------------------
    def _mean(self, key: str) -> Optional[float]:
        values = [
            row[key] for row in self.trials if row.get(key) is not None
        ]
        if not values:
            return None
        return sum(values) / len(values)

    @property
    def availability(self) -> float:
        return self.verdict.availability

    @property
    def fleet_mttf(self) -> Optional[float]:
        return self._mean("observed_mttf")

    @property
    def fleet_mttr(self) -> Optional[float]:
        return self._mean("observed_mttr")

    @property
    def total_faults(self) -> int:
        return sum(row["faults"] for row in self.trials)

    @property
    def total_compile_failures(self) -> int:
        return sum(row["compile_failures"] for row in self.trials)

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic report body: a pure function of the config,
        with no wall-clock."""

        def r(x: Optional[float]) -> Optional[float]:
            return None if x is None else round(x, 9)

        rows = []
        for row in self.trials:
            out = dict(row)
            for key in (
                "availability", "up_time", "down_time", "observed_mttf",
                "observed_mttr", "min_connectivity", "mean_connectivity",
            ):
                out[key] = r(out[key])
            out["repair_latencies"] = [
                round(x, 9) for x in out["repair_latencies"]
            ]
            rows.append(out)
        return {
            "config": self.config.as_dict(),
            "verdict": self.verdict.as_dict(),
            "fleet": {
                "availability": r(self.availability),
                "mttf": r(self.fleet_mttf),
                "mttr": r(self.fleet_mttr),
                "faults": self.total_faults,
                "compile_failures": self.total_compile_failures,
                "min_connectivity": r(
                    min(row["min_connectivity"] for row in self.trials)
                ),
            },
            "trials": rows,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary_lines(self) -> List[str]:
        """Human-readable SLO report for the CLI."""
        v = self.verdict
        cfg = self.config
        process = (
            f"poisson(rate={cfg.rate})"
            if cfg.arrival == "poisson"
            else f"weibull(shape={cfg.shape}, scale={cfg.scale})"
        )
        status = (
            "PASS (confident)" if v.confident_pass
            else "FAIL (confident)" if v.confident_fail
            else ("PASS (inconclusive — run more trials)" if v.met
                  else "FAIL (inconclusive — run more trials)")
        )
        lines = [
            f"reliability campaign: {cfg.mesh_spec()} k={cfg.k} "
            f"{process} repair={cfg.repair}(mttr={cfg.mttr}) "
            f"horizon={cfg.horizon} trials={cfg.trials}",
            f"  availability {v.availability:.6f} "
            f"(wilson [{v.lower:.6f}, {v.upper:.6f}], "
            f"epochs {v.epochs_up}/{v.epochs_total} up)",
            f"  faults {self.total_faults}, "
            f"mttf {self.fleet_mttf if self.fleet_mttf is None else round(self.fleet_mttf, 4)}, "
            f"mttr {self.fleet_mttr if self.fleet_mttr is None else round(self.fleet_mttr, 4)}, "
            f"compile failures {self.total_compile_failures}",
            f"  SLO availability>={v.target.availability} @ "
            f"connectivity>={v.target.connectivity}: {status}",
        ]
        return lines


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run one campaign, trial by trial.

    The run is instrumented into the ambient telemetry registry: a
    campaign span, per-epoch up/down counters, and a repair-latency
    histogram.
    """
    reg = get_registry()
    mesh = config.build_mesh()
    with reg.span(
        "reliability.campaign",
        mesh=config.mesh_spec(),
        trials=config.trials,
        arrival=config.arrival,
    ):
        rows = [_campaign_trial(config, mesh, t) for t in range(config.trials)]
    epochs_up = sum(row["epochs_up"] for row in rows)
    epochs_total = sum(row["epochs"] for row in rows)
    up_time = sum(row["up_time"] for row in rows)
    availability = up_time / (config.horizon * len(rows))
    reg.inc("reliability_trials_total", len(rows))
    reg.inc("reliability_epochs_up_total", epochs_up)
    reg.inc("reliability_epochs_down_total", epochs_total - epochs_up)
    reg.inc(
        "reliability_faults_total",
        sum(row["faults"] for row in rows),
    )
    reg.inc(
        "reliability_compile_failures_total",
        sum(row["compile_failures"] for row in rows),
    )
    for row in rows:
        for latency in row["repair_latencies"]:
            reg.observe("reliability_repair_latency", latency)
    verdict = SLOVerdict.judge(
        config.slo, availability, epochs_up, epochs_total
    )
    return CampaignReport(config=config, verdict=verdict, trials=rows)
