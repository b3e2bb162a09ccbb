"""The step registry and the registered step catalog.

A *step* is a named, versioned, **pure** function

    ``fn(params, inputs) -> output``

where ``params`` is the step's resolved parameter dict (from the
preset, possibly overridden on the CLI), ``inputs`` maps each
dependency's instance name to that dependency's output dict, and
``output`` is a JSON-able dict.  Purity is the load-bearing property:
the workflow runner content-addresses each step execution by
``(preset digest, step identity, resolved params, dependency
digests)`` and replays the stored output on a digest hit, so a step
whose output depended on anything *outside* that key — wall-clock,
ambient RNG state, the filesystem — would poison the checkpoint cache
and break the straight-run-vs-resumed-run byte-identity guarantee.
The REP106 lint rule enforces the wall-clock half of this statically:
``time.time()`` / ``datetime.now()`` and friends are flagged inside
any function decorated with :func:`register_step`.

Execution-only parameters (worker counts, executor backends) change
wall-clock but never outputs; a step declares them in
``digest_exclude`` and the runner keeps them out of the address.

Steps record *no* telemetry themselves — the runner wraps every
execution in a ``workflow.step`` span and publishes step-level
counters and latency histograms, so cached replays and fresh runs
are observable without the step bodies caring.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from .errors import UnknownStepError

__all__ = [
    "STEPS",
    "Step",
    "StepFn",
    "StepRegistry",
    "register_step",
]

StepFn = Callable[[Dict[str, Any], Dict[str, Dict[str, Any]]], Dict[str, Any]]


@dataclass(frozen=True)
class Step:
    """One registered step type.

    ``version`` participates in the content address: bump it whenever
    the implementation's output changes for identical inputs, so stale
    checkpoints from the old implementation can never be replayed.
    """

    name: str
    fn: StepFn
    description: str
    version: int = 1
    #: Parameter names excluded from the content address (execution
    #: topology only — worker counts, executor backends).
    digest_exclude: Tuple[str, ...] = ()
    #: Default parameters, merged under the preset's.
    defaults: Dict[str, Any] = field(default_factory=dict)

    def resolve_params(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Defaults overlaid with the preset/CLI parameters."""
        merged = dict(self.defaults)
        merged.update(params)
        return merged


class StepRegistry:
    """Typed step catalog: register once, look up by name.

    The module-level :data:`STEPS` instance is the production catalog;
    tests build private registries to exercise the runner with
    synthetic steps.
    """

    def __init__(self) -> None:
        self._steps: Dict[str, Step] = {}

    def register(
        self,
        name: str,
        description: str,
        version: int = 1,
        digest_exclude: Tuple[str, ...] = (),
        defaults: Optional[Dict[str, Any]] = None,
    ) -> Callable[[StepFn], StepFn]:
        """Decorator: register ``fn`` as step ``name``.

        Registering a name twice is a programming error (two
        implementations silently racing for one content-address
        namespace), so it raises ``ValueError`` outright.
        """

        def wrap(fn: StepFn) -> StepFn:
            if name in self._steps:
                raise ValueError(f"step {name!r} already registered")
            self._steps[name] = Step(
                name=name,
                fn=fn,
                description=description,
                version=int(version),
                digest_exclude=tuple(digest_exclude),
                defaults=dict(defaults or {}),
            )
            return fn

        return wrap

    def get(self, name: str) -> Step:
        step = self._steps.get(name)
        if step is None:
            raise UnknownStepError(name, self.names())
        return step

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._steps))

    def __contains__(self, name: str) -> bool:
        return name in self._steps

    def __len__(self) -> int:
        return len(self._steps)


#: The production step catalog.
STEPS = StepRegistry()


def register_step(
    name: str,
    description: str,
    version: int = 1,
    digest_exclude: Tuple[str, ...] = (),
    defaults: Optional[Dict[str, Any]] = None,
) -> Callable[[StepFn], StepFn]:
    """Register a step in the production catalog (:data:`STEPS`).

    The REP106 lint rule keys off this decorator: functions it wraps
    must be pure — in particular, free of direct wall-clock reads.
    """
    return STEPS.register(
        name, description, version=version,
        digest_exclude=digest_exclude, defaults=defaults,
    )


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _round(x: Optional[float], digits: int = 9) -> Optional[float]:
    return None if x is None else round(float(x), digits)


def _parse_mesh_spec(spec: str):
    """``"12x12"`` / ``"torus:8x8"`` -> a Mesh/Torus instance."""
    from ..mesh import Mesh, Torus

    torus = spec.startswith("torus:")
    if torus:
        spec = spec[len("torus:"):]
    widths = tuple(int(part) for part in spec.lower().split("x"))
    return (Torus if torus else Mesh)(widths)


def _faults_from_input(inputs: Dict[str, Dict[str, Any]], step: str):
    """The FaultSet serialized by a ``generate-mesh`` dependency."""
    from ..mesh.serialization import faults_from_dict

    for name in sorted(inputs):
        payload = inputs[name]
        if isinstance(payload, dict) and "faults" in payload:
            return faults_from_dict(payload["faults"])
    raise ValueError(
        f"step {step!r} needs a dependency that produced a fault set "
        "(e.g. generate-mesh)"
    )


# ----------------------------------------------------------------------
# Registered steps
# ----------------------------------------------------------------------
@register_step(
    "generate-mesh",
    "sample a seeded fault configuration on a mesh/torus",
    defaults={"mesh": "12x12", "faults": 3, "percent": 0.0, "seed": 0},
)
def generate_mesh(
    params: Dict[str, Any], inputs: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """Seeded fault-set generation — the root of most presets."""
    from ..mesh import FaultSet, random_node_faults
    from ..mesh.serialization import faults_to_dict

    mesh = _parse_mesh_spec(str(params["mesh"]))
    explicit = [tuple(int(x) for x in v) for v in params.get("fault", [])]
    count = int(params.get("faults", 0))
    if params.get("percent"):
        count = max(
            1, int(round(mesh.num_nodes * float(params["percent"]) / 100.0))
        )
    if explicit:
        faults = FaultSet(mesh, explicit)
    elif count:
        faults = random_node_faults(
            mesh, count, np.random.default_rng(int(params["seed"]))
        )
    else:
        faults = FaultSet(mesh)
    return {
        "mesh": str(params["mesh"]),
        "num_nodes": mesh.num_nodes,
        "num_faults": faults.f,
        "faults": faults_to_dict(faults),
    }


@register_step(
    "compile-routes",
    "compile the fault configuration through the reconfiguration "
    "compiler (degradation ladder + content-addressed cache)",
    defaults={
        "rounds": 2, "method": "bipartite", "policy": "shortest",
        "budget": None, "extra_rounds": 1, "verify": False,
    },
)
def compile_routes(
    params: Dict[str, Any], inputs: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """One compile of the dependency's fault set; summary output."""
    from ..routing import ascending, repeated
    from ..service.compiler import ReconfigurationCompiler
    from ..service.store import ArtifactStore

    faults = _faults_from_input(inputs, "compile-routes")
    mesh = faults.mesh
    compiler = ReconfigurationCompiler(
        mesh,
        repeated(ascending(mesh.d), int(params["rounds"])),
        store=ArtifactStore(),
        method=str(params["method"]),
        policy=str(params["policy"]),
        verify=bool(params["verify"]),
        lamb_budget=params["budget"],
        max_extra_rounds=int(params["extra_rounds"]),
    )
    artifact, source = compiler.compile(faults)
    return {
        "digest": artifact.digest,
        "source": source,
        "k": artifact.k,
        "num_lambs": artifact.num_lambs,
        "num_survivors": artifact.num_survivors,
        "degraded": artifact.degraded,
        "escalated_rounds": artifact.escalated_rounds,
        "quarantined": len(artifact.quarantined),
        "verified": artifact.verified,
    }


@register_step(
    "sample-timeline",
    "sample a seeded fail/repair timeline from renewal processes",
    defaults={
        "mesh": "8x8", "arrival": "poisson", "rate": 1.0,
        "shape": 1.5, "scale": 1.0, "repair": "deterministic",
        "mttr": 0.25, "horizon": 4.0, "seed": 0,
    },
)
def sample_timeline(
    params: Dict[str, Any], inputs: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """Preview of the stochastic fault environment a campaign sees."""
    from ..reliability import (
        arrival_process,
        generate_timeline,
        repair_model,
    )

    mesh = _parse_mesh_spec(str(params["mesh"]))
    timeline = generate_timeline(
        mesh,
        arrival_process(
            str(params["arrival"]), rate=float(params["rate"]),
            shape=float(params["shape"]), scale=float(params["scale"]),
        ),
        repair_model(str(params["repair"]), float(params["mttr"])),
        float(params["horizon"]),
        np.random.default_rng(int(params["seed"])),
    )
    intervals = list(timeline.intervals())
    max_down = max((len(down) for _t0, _t1, down in intervals), default=0)
    return {
        "mesh": str(params["mesh"]),
        "horizon": _round(timeline.horizon),
        "num_faults": timeline.num_faults,
        "num_repairs": timeline.num_repairs,
        "intervals": len(intervals),
        "max_concurrent_faults": max_down,
        "observed_mttf": _round(timeline.observed_mttf),
        "observed_mttr": _round(timeline.observed_mttr),
        "repair_durations": [
            _round(x) for x in timeline.repair_durations
        ],
    }


@register_step(
    "run-campaign",
    "Monte Carlo reliability campaign: renewal faults -> compile -> "
    "survivor connectivity -> Wilson-bounded SLO verdict",
    digest_exclude=("jobs", "executor"),
    defaults={
        "mesh": "8x8", "rounds": 2, "arrival": "poisson", "rate": 1.0,
        "shape": 1.5, "scale": 1.0, "repair": "deterministic",
        "mttr": 0.25, "horizon": 4.0, "trials": 8, "seed": 0, "tag": 0,
        "budget": None, "extra_rounds": 1, "connectivity": 0.9,
        "availability": 0.99, "jobs": None, "executor": None,
    },
)
def run_campaign_step(
    params: Dict[str, Any], inputs: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """The PR-6 campaign; its report is already a pure function of the
    config (``jobs``/``executor`` are digest-excluded topology)."""
    from ..mesh import Torus
    from ..reliability import CampaignConfig, SLOTarget, run_campaign

    mesh = _parse_mesh_spec(str(params["mesh"]))
    config = CampaignConfig(
        widths=mesh.widths,
        torus=isinstance(mesh, Torus),
        k=int(params["rounds"]),
        arrival=str(params["arrival"]),
        rate=float(params["rate"]),
        shape=float(params["shape"]),
        scale=float(params["scale"]),
        repair=str(params["repair"]),
        mttr=float(params["mttr"]),
        horizon=float(params["horizon"]),
        trials=int(params["trials"]),
        seed=int(params["seed"]),
        tag=int(params["tag"]),
        lamb_budget=params["budget"],
        max_extra_rounds=int(params["extra_rounds"]),
        slo=SLOTarget(
            connectivity=float(params["connectivity"]),
            availability=float(params["availability"]),
        ),
    )
    jobs = params.get("jobs")
    report = run_campaign(
        config,
        jobs=None if jobs is None else int(jobs),
        executor=params.get("executor"),
    )
    return report.to_dict()


@register_step(
    "inject-chaos",
    "push seeded traffic through the dependency's mesh while killing "
    "hardware mid-flight (rollback/reconfigure epochs)",
    defaults={
        "messages": 120, "flits": 4, "window": 80, "buffers": 2,
        "events": 3, "seed": 0, "event_start": 20, "event_end": 260,
        "kills_per_event": 1, "link_kills_per_event": 0, "rounds": 2,
        "max_cycles": 100_000, "budget": None, "extra_rounds": 1,
        "max_retries": 3, "retry_backoff": 8, "policy": "shortest",
    },
)
def inject_chaos(
    params: Dict[str, Any], inputs: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """A live-fault chaos run over the generated fault set."""
    from ..routing import ascending, repeated
    from ..wormhole import ChaosEngine, FaultSchedule

    faults = _faults_from_input(inputs, "inject-chaos")
    mesh = faults.mesh
    seed = int(params["seed"])
    rng = np.random.default_rng(seed)
    schedule = FaultSchedule.random(
        mesh,
        int(params["events"]),
        rng,
        cycle_span=(int(params["event_start"]), int(params["event_end"])),
        nodes_per_event=int(params["kills_per_event"]),
        links_per_event=int(params["link_kills_per_event"]),
        avoid=faults.node_faults,
    )
    engine = ChaosEngine(
        faults,
        repeated(ascending(mesh.d), int(params["rounds"])),
        schedule,
        lamb_budget=params["budget"],
        max_extra_rounds=int(params["extra_rounds"]),
        buffer_flits=int(params["buffers"]),
        policy=str(params["policy"]),
        seed=seed,
        max_retries=int(params["max_retries"]),
        retry_backoff=int(params["retry_backoff"]),
    )
    engine.load_uniform_traffic(
        int(params["messages"]), rng,
        num_flits=int(params["flits"]),
        inject_window=int(params["window"]),
    )
    report = engine.run(max_cycles=int(params["max_cycles"]))
    s = report.stats
    return {
        "mesh": f"{mesh}",
        "scheduled_events": len(schedule),
        "fault_events_applied": report.fault_events_applied,
        "epochs": report.num_epochs,
        "final_rounds": report.final_rounds,
        "quarantined": len(report.quarantined),
        "cycles": s.cycles,
        "total_messages": s.total_messages,
        "delivered": s.delivered,
        "retried_delivered": s.retried_delivered,
        "aborted": s.aborted,
        "in_flight": s.in_flight,
        "total_retries": s.total_retries,
        "abort_reasons": [[r, n] for r, n in s.abort_reasons],
        "avg_latency": _round(s.avg_latency),
        "p95_latency": _round(s.p95_latency),
        "max_latency": s.max_latency,
        "avg_total_latency": _round(s.avg_total_latency),
        "avg_hops": _round(s.avg_hops),
        "max_turns": s.max_turns,
        "all_accounted": s.all_accounted,
    }


@register_step(
    "serve",
    "drive the control plane's deterministic acceptance scenario "
    "(compile cache + route queries + epoch bump + drain) as a "
    "loadtest over the dependency's fault set",
    defaults={"rounds": 2, "queries": 200, "seed": 0, "verify": False},
)
def serve_loadtest(
    params: Dict[str, Any], inputs: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """The PR-4 serve smoke, captured: every emitted line is a pure
    function of the config/seed, so the transcript digest is stable."""
    from ..service.smoke import serve_smoke

    faults = _faults_from_input(inputs, "serve")
    lines: list = []
    rc = serve_smoke(
        faults,
        rounds=int(params["rounds"]),
        queries=int(params["queries"]),
        seed=int(params["seed"]),
        verify=bool(params["verify"]),
        emit=lines.append,
    )
    transcript = "\n".join(str(line) for line in lines)
    return {
        "rc": rc,
        "queries": int(params["queries"]),
        "lines": len(lines),
        "transcript_blake2b": hashlib.blake2b(
            transcript.encode("utf-8"), digest_size=20
        ).hexdigest(),
        "ok": rc == 0,
    }


@register_step(
    "collect-telemetry",
    "run the seeded observability smoke in a fresh registry and "
    "snapshot it with timings redacted (byte-identical per seed)",
    defaults={"seed": 0, "messages": 40},
)
def collect_telemetry(
    params: Dict[str, Any], inputs: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """Deterministic telemetry self-check.

    Deliberately *not* a snapshot of the ambient registry: ambient
    counters differ between an executed and a replayed-from-cache run,
    which would break report byte-identity.  The redacted seeded smoke
    is a pure function of its params, like every other step.
    """
    from ..obs import TelemetryRegistry
    from ..obs.smoke import run_telemetry_smoke

    reg = run_telemetry_smoke(
        seed=int(params["seed"]),
        registry=TelemetryRegistry(),
        messages=int(params["messages"]),
    )
    return {"snapshot": reg.snapshot(redact_timings=True)}


@register_step(
    "report",
    "merge every dependency's output into the final workflow report",
)
def final_report(
    params: Dict[str, Any], inputs: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """The terminal step: a stable merge of all dependency outputs."""
    return {
        "schema": 1,
        "sections": {name: inputs[name] for name in sorted(inputs)},
    }
