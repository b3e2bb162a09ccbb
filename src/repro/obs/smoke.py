"""The seeded end-to-end telemetry smoke: one scenario, every layer.

:func:`run_telemetry_smoke` exercises each instrumented layer once,
into one registry, fully seeded:

1. the lamb pipeline on the paper's 12x12 worked example (three
   phase spans + run counters),
2. a wormhole simulation with a mid-run endpoint fault (cycle /
   stall / park / wake / abort / retry counters, so the park/wake
   machinery is exercised),
3. the control-plane compiler: a cache miss, a ``current`` cache
   hit, and an incremental delta, with its :class:`ServiceMetrics`
   fronting the same registry.

This is the scenario behind ``repro stats`` and ``make obs-smoke``;
the latter runs it twice with ``redact_timings`` and diffs the
exports byte for byte (everything except wall-clock durations is a
pure function of the seed).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .registry import TelemetryRegistry, use_registry

__all__ = ["run_telemetry_smoke", "WORKED_EXAMPLE_FAULTS"]

#: The paper's worked-example fault set on the 12x12 mesh.
WORKED_EXAMPLE_FAULTS = ((9, 1), (11, 6), (10, 10))


def run_telemetry_smoke(
    seed: int = 0,
    registry: Optional[TelemetryRegistry] = None,
    messages: int = 60,
) -> TelemetryRegistry:
    """Run the seeded smoke scenario; returns the registry it filled.

    Deterministic modulo wall-clock durations: two runs with the same
    ``seed`` produce byte-identical redacted exports
    (``redact_timings=True``).
    """
    from ..core import find_lamb_set
    from ..mesh.faults import FaultSet
    from ..mesh.geometry import Mesh
    from ..routing.ordering import repeated, xy
    from ..service.compiler import ReconfigurationCompiler
    from ..service.metrics import ServiceMetrics
    from ..wormhole import WormholeSimulator, uniform_random_traffic

    reg = TelemetryRegistry() if registry is None else registry
    with use_registry(reg):
        mesh = Mesh((12, 12))
        orderings = repeated(xy(), 2)
        faults = FaultSet(mesh, WORKED_EXAMPLE_FAULTS)

        # 1. Lamb pipeline: partition / reachability / WVC spans.
        find_lamb_set(faults, orderings)

        # 2. Wormhole simulation with a mid-run endpoint fault.
        sim = WormholeSimulator(faults, orderings, seed=seed)
        rng = np.random.default_rng(seed)
        endpoints = faults.good_nodes()
        injections = list(
            uniform_random_traffic(
                endpoints, messages, rng, num_flits=4, inject_window=40
            )
        )
        for inj in injections:
            sim.send(inj.source, inj.dest, inj.num_flits, inj.inject_cycle)
        for _ in range(25):
            sim.step()
        # Kill the destination of the latest-injected message: a
        # guaranteed endpoint-failed abort plus torn-out reroutes.
        victim = max(injections, key=lambda i: i.inject_cycle).dest
        sim.inject_faults(node_faults=[victim])
        sim.run()

        # 3. Control plane: miss -> current-hit -> incremental delta.
        compiler = ReconfigurationCompiler(
            mesh, orderings, metrics=ServiceMetrics(registry=reg)
        )
        compiler.compile(faults)          # cache miss (fresh compile)
        compiler.compile(faults)          # 'current' cache hit
        compiler.apply_delta(node_faults=[victim])  # incremental
        art = compiler.current
        assert art is not None
        survivors = [
            v
            for v in mesh.nodes()
            if not art.result.faults.node_is_faulty(v)
            and v not in art.result.lambs
        ]
        compiler.route(survivors[0], survivors[-1])
    return reg
