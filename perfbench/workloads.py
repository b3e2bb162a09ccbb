"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup` (the
timed set-up), then runs one op per :meth:`op` call.  An op drives the
program through its public functions under the defaults a user gets,
times itself, checks its output and returns an :class:`OpOutcome`.
Op ``i`` is a pure function of the seed and ``i`` (the control plane:
of the seed and the ops before it), so two runs with one seed do the
same work.

``exact_ops`` is how many leading ops the exact metrics cover; every
run does at least that many.  ``layers`` lists the per-layer time
metrics that together make up one op.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.bounds import partition_size_bound
from repro.core.lamb import find_lamb_set
from repro.mesh import Mesh, random_node_faults
from repro.routing import repeated, xy, xyz
from repro.service.client import RouteQueryClient
from repro.service.compiler import ReconfigurationCompiler
from repro.service.errors import ServiceError
from repro.service.server import RouteQueryServer
from repro.service.store import ArtifactStore
from repro.wormhole import SimulationError, WormholeSimulator

from checks import (
    check_lamb_result,
    check_query_replies,
    check_route_matches,
    check_sim_stats,
    check_write_reply,
)
from tracer import Tracer

__all__ = ["OpOutcome", "Fig26", "SimUniform", "ControlPlane", "WORKLOADS"]

_clock = time.perf_counter
Node = Tuple[int, ...]


@dataclass
class OpOutcome:
    """One op: host seconds, units of work done, and failed checks.

    ``kind`` separates the latency populations of the control plane
    (``batch`` reads, ``delta`` and ``repair`` writes); ``slot`` names
    the configuration a cycling workload ran; ``counts`` carries
    simulator event counts for the per-layer report.  The harness sets
    ``scale``, the host-speed factor when the op ran.
    """

    seconds: float
    work: float
    kind: str = "op"
    problems: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    slot: Optional[int] = None
    scale: float = 1.0


@contextmanager
def _root(tracer: Optional[Tracer], name: str) -> Iterator[None]:
    if tracer is None:
        yield
    else:
        with tracer.root(name):
            yield


# ----------------------------------------------------------------------
# fig26_3d / fig26_2d: Lamb1 on equal-N meshes
# ----------------------------------------------------------------------
class Fig26:
    """Lamb1 on ``M_d(width)`` at ``percent`` % node faults, cycling
    through ``configs`` seeded fault sets (one lamb set per op).
    ``lambs_mean`` covers the first ``exact_ops`` fault sets."""

    setup_reps = 15
    warmup_ops = 1
    layers = (
        "core.partition.busy_s",
        "core.reachability.one_round.busy_s",
        "core.reachability.intersections.busy_s",
        "core.reachability.products.busy_s",
        "core.reachability.self_s",
        "graphs.wvc.busy_s",
        "core.lamb.self_s",
    )

    def __init__(self, name: str, dims: int, width: int, percent: float,
                 tag: int, configs: int = 80) -> None:
        self.name = name
        self.mesh = Mesh.square(dims, width)
        self.f = max(1, int(round(self.mesh.num_nodes * percent / 100.0)))
        self.orderings = repeated(xyz() if dims == 3 else xy(), 2)
        self.tag = tag
        self.cycle_len = configs
        self.exact_ops = min(12, configs)
        self.bound = partition_size_bound(self.mesh.widths, self.f)
        self.fault_sets: List[Any] = []
        self.lamb_sizes: Dict[int, int] = {}

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, self.tag])
        self.fault_sets = [
            random_node_faults(self.mesh, self.f, rng)
            for _ in range(self.cycle_len)
        ]
        self.lamb_sizes = {}

    def op(self, i: int, tracer: Optional[Tracer]) -> OpOutcome:
        slot = i % self.cycle_len
        with _root(tracer, "core.lamb"):
            t0 = _clock()
            result = find_lamb_set(self.fault_sets[slot], self.orderings)
            seconds = _clock() - t0
        self.lamb_sizes.setdefault(slot, result.size)
        return OpOutcome(seconds, 1.0, slot=slot,
                         problems=check_lamb_result(result, self.bound))

    def exact_metrics(self) -> Dict[str, float]:
        return {"lambs_mean": _mean(self.lamb_sizes[slot]
                                    for slot in range(self.exact_ops))}

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# sim_uniform: the wormhole machine past its latency knee
# ----------------------------------------------------------------------
@dataclass
class _SimConfig:
    faults: Any
    lambs: int
    traffic: List[Tuple[Node, Node, int]]
    sim_seed: int


class SimUniform:
    """Saturating uniform survivor-to-survivor traffic on M2(32).

    Each config is a seeded fault set (3 % node faults), its Lamb1 lamb
    set and ``messages`` 64-flit messages with Poisson arrivals at
    ``rate`` messages per simulated cycle.  One op simulates one config
    until the network drains.  The ``sim_*`` metrics cover the first
    ``exact_ops`` configs.
    """

    setup_reps = 9
    warmup_ops = 1
    width = 32
    faults = 31
    flits = 64
    rate = 1.0
    max_cycles = 50_000
    layers = (
        "routing.route.busy_s",
        "wormhole.send.self_s",
        "wormhole.run.busy_s",
        "wormhole.op.self_s",
    )

    def __init__(self, name: str = "sim_uniform", configs: int = 24,
                 messages: int = 48) -> None:
        self.name = name
        self.mesh = Mesh.square(2, self.width)
        self.orderings = repeated(xy(), 2)
        self.cycle_len = configs
        self.exact_ops = min(12, configs)
        self.messages = messages
        self.configs: List[_SimConfig] = []
        self.exact: Dict[int, Tuple[int, float, float]] = {}

    def _traffic(self, survivors: List[Node],
                 rng: np.random.Generator) -> List[Tuple[Node, Node, int]]:
        out: List[Tuple[Node, Node, int]] = []
        cycle = 0
        while len(out) < self.messages:
            for _ in range(int(rng.poisson(self.rate))):
                if len(out) == self.messages:
                    break
                a = int(rng.integers(len(survivors)))
                b = int(rng.integers(len(survivors) - 1))
                b += b >= a
                out.append((survivors[a], survivors[b], cycle))
            cycle += 1
        return out

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        self.configs = []
        for _ in range(self.cycle_len):
            faults = random_node_faults(self.mesh, self.faults, rng)
            result = find_lamb_set(faults, self.orderings)
            traffic = self._traffic(result.survivors(), rng)
            self.configs.append(_SimConfig(
                faults, result.size, traffic, int(rng.integers(2**31))
            ))
        self.exact = {}

    def op(self, i: int, tracer: Optional[Tracer]) -> OpOutcome:
        slot = i % self.cycle_len
        cfg = self.configs[slot]
        error: Optional[SimulationError] = None
        with _root(tracer, "wormhole.op"):
            t0 = _clock()
            sim = WormholeSimulator(cfg.faults, self.orderings,
                                    seed=cfg.sim_seed)
            for src, dst, cycle in cfg.traffic:
                sim.send(src, dst, self.flits, cycle)
            try:
                stats = sim.run(max_cycles=self.max_cycles)
            except SimulationError as exc:
                error = exc
            seconds = _clock() - t0
        if error is not None:
            return OpOutcome(seconds, 0.0, slot=slot,
                             problems=[f"simulation: {error}"])
        counts = {
            "cycles": stats.cycles,
            "flits_delivered": stats.delivered * self.flits,
            "park_events": sim.park_events,
            "wake_events": sim.wake_events,
        }
        self.exact.setdefault(slot, (
            cfg.lambs, stats.avg_latency, stats.throughput_flits_per_cycle
        ))
        return OpOutcome(
            seconds, float(counts["flits_delivered"]), slot=slot,
            problems=check_sim_stats(stats, len(cfg.traffic)), counts=counts,
        )

    def exact_metrics(self) -> Dict[str, float]:
        rows = [self.exact[slot] for slot in range(self.exact_ops)]
        return {
            "lambs_mean": _mean(r[0] for r in rows),
            "sim_latency_avg_cycles": _mean(r[1] for r in rows),
            "sim_accepted_flits_per_cycle": _mean(r[2] for r in rows),
        }

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# control_plane: reads and writes against one route-query server
# ----------------------------------------------------------------------
class ControlPlane:
    """One in-process :class:`RouteQueryServer` on M2(16) and one
    binary-codec client in a closed loop.

    Reads are batches of ``batch`` pinned queries, taken in seeded
    passes over a pool of ``pool`` flows.  After every
    ``batches_per_write`` batches comes one write: a single-node fault
    delta, or after ``deltas_per_repair`` deltas a repair that compiles
    the base fault set again (a compile-cache hit), so the machine never
    degrades past base + ``deltas_per_repair`` faults.  After each write
    the client adopts the new epoch, replaces every pool flow with a
    lamb, faulty or quarantined endpoint, and starts a fresh pass.
    ``lambs_mean`` covers the base compile and the first
    ``exact_writes`` writes.
    """

    setup_reps = 9
    warmup_ops = 0
    width = 16
    base_faults = 8
    exact_writes = 2
    layers = (
        "service.request.other_s",
        "service.wire.busy_s",
        "core.routing_table.lookup.self_s",
        "routing.route.busy_s",
        "service.compiler.apply_delta.busy_s",
    )

    def __init__(self, name: str = "control_plane", pool: int = 200,
                 batch: int = 100, batches_per_write: int = 50,
                 deltas_per_repair: int = 5) -> None:
        self.name = name
        self.mesh = Mesh.square(2, self.width)
        self.orderings = repeated(xy(), 2)
        self.pool_size = pool
        self.batch = batch
        self.batches_per_write = batches_per_write
        self.deltas_per_repair = deltas_per_repair
        self.exact_ops = self.exact_writes * (batches_per_write + 1)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.lamb_counts: List[int] = []

    # -- set-up and teardown -------------------------------------------
    def setup(self, seed: int) -> None:
        self.teardown()
        self.rng = np.random.default_rng([seed, 4])
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        self.base = random_node_faults(self.mesh, self.base_faults, self.rng)
        self.compiler = ReconfigurationCompiler(
            self.mesh, self.orderings, store=ArtifactStore()
        )
        self.server = RouteQueryServer(self.compiler)
        host, port = await self.server.start()
        self.client = await RouteQueryClient.connect(host, port,
                                                     codec="binary")
        self.epoch = -1
        self.lamb_counts = []
        self.faults: Set[Node] = set(self.base.node_faults)
        self._adopt(await self.client.compile(self.base))
        self.pool = [self._random_flow() for _ in range(self.pool_size)]
        for k in range(0, self.pool_size, self.batch):
            queries = self.pool[k:k + self.batch]
            replies = await self.client.query_batch(queries, epoch=self.epoch)
            problems = check_query_replies(replies, queries, self.epoch)
            if problems:
                raise RuntimeError(f"pool warm-up failed: {problems[0]}")
        self.order: List[int] = []
        self.batches_since_write = 0
        self.deltas_since_repair = 0

    def teardown(self) -> None:
        if self.loop is None:
            return
        self.loop.run_until_complete(self._stop())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        self.loop = None

    async def _stop(self) -> None:
        await self.client.close()
        await self.server.stop()

    # -- client-side state ---------------------------------------------
    def _adopt(self, reply: Dict[str, Any]) -> None:
        """Take the epoch, lambs and quarantined nodes of a write reply."""
        self.epoch = reply["epoch"]
        lambs = {tuple(v) for v in reply["lamb_nodes"]}
        quarantined = {tuple(v) for v in reply["quarantined"]}
        self.lamb_counts.append(len(lambs))
        unusable = self.faults | lambs | quarantined
        self.good = [v for v in self.mesh.nodes() if v not in self.faults]
        self.survivors = [v for v in self.mesh.nodes() if v not in unusable]
        self.survivor_set = set(self.survivors)

    def _random_flow(self) -> Tuple[Node, Node]:
        a = int(self.rng.integers(len(self.survivors)))
        b = int(self.rng.integers(len(self.survivors) - 1))
        b += b >= a
        return self.survivors[a], self.survivors[b]

    # -- ops -----------------------------------------------------------
    def op(self, i: int, tracer: Optional[Tracer]) -> OpOutcome:
        assert self.loop is not None, "setup() first"
        if self.batches_since_write == self.batches_per_write:
            self.batches_since_write = 0
            return self.loop.run_until_complete(self._write(tracer))
        self.batches_since_write += 1
        return self.loop.run_until_complete(self._read(tracer))

    async def _read(self, tracer: Optional[Tracer]) -> OpOutcome:
        if len(self.order) < self.batch:
            self.order.extend(int(k) for k in self.rng.permutation(self.pool_size))
        picks, self.order = self.order[:self.batch], self.order[self.batch:]
        queries = [self.pool[k] for k in picks]
        with _root(tracer, "service.request"):
            t0 = _clock()
            replies = await self.client.query_batch(queries, epoch=self.epoch)
            seconds = _clock() - t0
        problems = check_query_replies(replies, queries, self.epoch)
        if not problems:
            # One sampled reply per batch must equal a direct lookup on
            # the live artifact (outside any op, so it is not traced).
            at = int(picks[0]) % len(queries)
            current = self.compiler.current
            problems = check_route_matches(
                replies[at], current.table.lookup(*queries[at])
            )
        return OpOutcome(seconds, float(len(queries)), "batch", problems)

    async def _write(self, tracer: Optional[Tracer]) -> OpOutcome:
        new_fault: Optional[Node] = None
        if self.deltas_since_repair == self.deltas_per_repair:
            self.deltas_since_repair = 0
            kind = "repair"
            self.faults = set(self.base.node_faults)
            request = self.client.compile(self.base)
        else:
            self.deltas_since_repair += 1
            kind = "delta"
            new_fault = self.good[int(self.rng.integers(len(self.good)))]
            self.faults.add(new_fault)
            request = self.client.delta([new_fault])
        expected_epoch = self.epoch + 1
        with _root(tracer, "service.request"):
            t0 = _clock()
            try:
                reply: Optional[Dict[str, Any]] = await request
            except ServiceError as exc:
                reply = None
                error = str(exc)
            seconds = _clock() - t0
        if reply is None:
            return OpOutcome(seconds, 0.0, kind, [f"{kind} failed: {error}"])
        problems = check_write_reply(reply, expected_epoch, len(self.faults),
                                     new_fault)
        self._adopt(reply)
        for k, (src, dst) in enumerate(self.pool):
            if src not in self.survivor_set or dst not in self.survivor_set:
                self.pool[k] = self._random_flow()
        self.order = []
        return OpOutcome(seconds, 0.0, kind, problems)

    def exact_metrics(self) -> Dict[str, float]:
        return {"lambs_mean": _mean(self.lamb_counts[:1 + self.exact_writes])}


def _mean(values: Any) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


#: Workload name -> factory with the benchmark's parameters.
WORKLOADS = {
    "fig26_3d": lambda: Fig26("fig26_3d", dims=3, width=32, percent=1.5,
                              tag=2603),
    "fig26_2d": lambda: Fig26("fig26_2d", dims=2, width=181, percent=1.5,
                              tag=2602),
    "sim_uniform": SimUniform,
    "control_plane": ControlPlane,
}
