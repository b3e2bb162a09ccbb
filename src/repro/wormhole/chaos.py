"""Live-fault chaos engine for the wormhole simulator.

The paper's deployment story (Section 1, quoted in
:mod:`repro.core.reconfigure`) is a *roll-back loop*: faults appear at
runtime, the machine checkpoints, rolls back, and reconfigures with a
fresh lamb set.  This module closes that loop in simulation:

- :class:`FaultEvent` / :class:`FaultSchedule` describe *when* nodes
  and links die mid-simulation (explicit, parsed from CLI specs, or
  seeded-random);
- :class:`repro.wormhole.WormholeSimulator` consumes a schedule
  natively — it tears affected messages out of the network, drains
  their flits, and re-injects them with bounded retry + exponential
  backoff on a post-fault route;
- :class:`ChaosEngine` additionally wires a
  :class:`repro.core.ReconfigurationManager` into the loop so every
  fault event triggers a checkpoint/rollback epoch (survivor set
  shrinks, sticky lambs kept), with the degradation ladder of
  ``report_faults_degraded`` — escalate to k+1 rounds, then quarantine
  the unreachable region — when the lamb set explodes;
- :func:`seeded_chaos_run` packages a fully deterministic end-to-end
  scenario (used by the ``repro chaos`` CLI, the experiments sweep and
  the CI smoke test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..mesh.faults import FaultSet, random_node_faults
from ..mesh.geometry import Link, Mesh, Node
from ..routing.ordering import KRoundOrdering, ascending, repeated
from .stats import SimStats
from .traffic import uniform_random_traffic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.reconfigure import Epoch

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "parse_fault_spec",
    "ChaosEngine",
    "ChaosReport",
    "seeded_chaos_run",
]


# ----------------------------------------------------------------------
# Fault schedules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """Hardware dying at a given simulator cycle.

    ``node_faults`` kill nodes (and implicitly their incident links);
    ``link_faults`` kill *directed* links.
    """

    cycle: int
    node_faults: Tuple[Node, ...] = ()
    link_faults: Tuple[Link, ...] = ()

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("fault events cannot predate cycle 0")
        object.__setattr__(
            self,
            "node_faults",
            tuple(tuple(int(x) for x in v) for v in self.node_faults),
        )
        object.__setattr__(
            self,
            "link_faults",
            tuple(
                (tuple(int(x) for x in u), tuple(int(x) for x in w))
                for (u, w) in self.link_faults
            ),
        )

    @property
    def num_faults(self) -> int:
        return len(self.node_faults) + len(self.link_faults)


def parse_fault_spec(text: str) -> FaultEvent:
    """Parse a CLI fault spec into a single-fault :class:`FaultEvent`.

    Formats::

        CYCLE:X,Y          node (X, Y) dies at CYCLE
        CYCLE:X,Y-U,V      directed link <(X,Y), (U,V)> dies at CYCLE

    (any dimensionality: ``120:1,2,3`` is a 3D node).
    """
    head, _, body = text.partition(":")
    if not body:
        raise ValueError(f"bad fault spec {text!r}; use CYCLE:X,Y or CYCLE:X,Y-U,V")
    try:
        cycle = int(head)
    except ValueError:
        raise ValueError(f"bad cycle in fault spec {text!r}")
    try:
        if "-" in body:
            a, b = body.split("-")
            u = tuple(int(x) for x in a.split(","))
            w = tuple(int(x) for x in b.split(","))
            return FaultEvent(cycle, (), ((u, w),))
        v = tuple(int(x) for x in body.split(","))
        return FaultEvent(cycle, (v,), ())
    except ValueError:
        raise ValueError(f"bad coordinates in fault spec {text!r}")


class FaultSchedule:
    """An immutable, cycle-sorted sequence of :class:`FaultEvent`.

    The simulator consumes events whose cycle has arrived at the start
    of each :meth:`~repro.wormhole.WormholeSimulator.step`; events are
    merged per cycle so one cycle produces one reconfiguration epoch.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[FaultEvent] = ()):
        merged: dict = {}
        for ev in events:
            if ev.cycle in merged:
                prev = merged[ev.cycle]
                merged[ev.cycle] = FaultEvent(
                    ev.cycle,
                    prev.node_faults + ev.node_faults,
                    prev.link_faults + ev.link_faults,
                )
            else:
                merged[ev.cycle] = ev
        self.events: Tuple[FaultEvent, ...] = tuple(
            merged[c] for c in sorted(merged)
        )

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, i: int) -> FaultEvent:
        return self.events[i]

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def last_cycle(self) -> int:
        """Cycle of the final event (-1 when empty)."""
        return self.events[-1].cycle if self.events else -1

    @property
    def total_faults(self) -> int:
        return sum(ev.num_faults for ev in self.events)

    # ------------------------------------------------------------------
    @classmethod
    def from_specs(cls, specs: Iterable[str]) -> "FaultSchedule":
        """Build from CLI ``--inject-fault`` strings."""
        return cls(parse_fault_spec(s) for s in specs)

    @classmethod
    def random(
        cls,
        mesh: Mesh,
        num_events: int,
        rng: np.random.Generator,
        cycle_span: Tuple[int, int] = (20, 260),
        nodes_per_event: int = 1,
        links_per_event: int = 0,
        avoid: Iterable[Sequence[int]] = (),
    ) -> "FaultSchedule":
        """``num_events`` seeded-random fault events.

        Event cycles are drawn uniformly in ``cycle_span`` (distinct,
        sorted); victims are distinct nodes outside ``avoid`` (e.g. the
        already-faulty set) plus optional random directed links.
        """
        lo, hi = cycle_span
        if hi <= lo:
            raise ValueError("cycle_span must be a nonempty range")
        if num_events < 1:
            return cls()
        taken = {tuple(int(x) for x in v) for v in avoid}
        candidates = [v for v in mesh.nodes() if v not in taken]
        need = num_events * nodes_per_event
        if need > len(candidates):
            raise ValueError("not enough healthy nodes to kill")
        cycles = sorted(
            int(c)
            for c in rng.choice(
                np.arange(lo, hi), size=num_events, replace=False
            )
        )
        picks = rng.choice(len(candidates), size=need, replace=False)
        all_links = list(mesh.links())
        events = []
        for e, cycle in enumerate(cycles):
            nodes = tuple(
                candidates[int(i)]
                for i in picks[e * nodes_per_event : (e + 1) * nodes_per_event]
            )
            links: Tuple[Link, ...] = ()
            if links_per_event:
                li = rng.choice(len(all_links), size=links_per_event, replace=False)
                links = tuple(all_links[int(i)] for i in li)
            events.append(FaultEvent(cycle, nodes, links))
        return cls(events)


# ----------------------------------------------------------------------
# The chaos engine: simulator + reconfiguration loop
# ----------------------------------------------------------------------
@dataclass
class ChaosReport:
    """Everything a chaos run produced.

    ``stats`` carries the no-silent-loss accounting (delivered /
    retried-then-delivered / aborted-with-reason); ``epochs`` the
    reconfiguration history including degradation (escalated rounds,
    quarantined regions).
    """

    stats: SimStats
    epochs: List["Epoch"] = field(default_factory=list)
    fault_events_applied: int = 0
    quarantined: Tuple[Node, ...] = ()
    final_rounds: int = 0

    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    @property
    def fully_accounted(self) -> bool:
        """Every injected message is delivered or explicitly aborted."""
        return self.stats.all_accounted

    def summary(self) -> str:
        s = self.stats
        lines = [
            f"epochs {self.num_epochs} | fault events {self.fault_events_applied}"
            f" | final rounds {self.final_rounds}",
            f"messages {s.total_messages}: delivered {s.delivered} "
            f"(retried-then-delivered {s.retried_delivered}), "
            f"aborted {s.aborted}, in flight {s.in_flight}",
        ]
        if s.abort_reasons:
            lines.append(
                "abort reasons: "
                + ", ".join(f"{r} x{n}" for r, n in s.abort_reasons)
            )
        if self.quarantined:
            lines.append(f"quarantined nodes: {len(self.quarantined)}")
        for e in self.epochs:
            extra = ""
            if e.escalated_rounds:
                extra += f" escalated +{e.escalated_rounds} round(s)"
            if e.quarantined:
                extra += f" quarantined {len(e.quarantined)} node(s)"
            lines.append(
                f"  epoch {e.index} @cycle {e.at_cycle}: faults {e.num_faults} "
                f"lambs {e.num_lambs} survivors {e.num_survivors}{extra}"
            )
        return "\n".join(lines)


class ChaosEngine:
    """Drives a live-fault simulation through rollback/reconfigure
    epochs.

    Each fault event the simulator applies triggers (via the
    ``on_fault`` hook) a reconfiguration epoch on the embedded
    :class:`~repro.core.ReconfigurationManager` *before* torn-out
    messages are re-routed, so retries always use post-reconfiguration
    fault knowledge.  Degradation (round escalation, quarantine) is
    propagated back into the simulator: escalated orderings grow the
    VC count, quarantined nodes become forbidden retry endpoints.

    Parameters
    ----------
    faults:
        Initial (cycle-0) fault state; may be empty.
    orderings:
        The starting k-round discipline.
    schedule:
        Mid-flight fault arrivals.
    lamb_budget, max_extra_rounds:
        Degradation ladder knobs (see
        ``ReconfigurationManager.report_faults_degraded``).  The
        default budget is 25% of the mesh.
    """

    def __init__(
        self,
        faults: FaultSet,
        orderings: KRoundOrdering,
        schedule: FaultSchedule,
        *,
        lamb_budget: Optional[int] = None,
        max_extra_rounds: int = 1,
        sticky_lambs: bool = True,
        method: str = "bipartite",
        buffer_flits: int = 2,
        policy: str = "shortest",
        seed: int = 0,
        max_retries: int = 3,
        retry_backoff: int = 8,
        tracer=None,
    ):
        from ..core.reconfigure import ReconfigurationManager
        from .simulator import WormholeSimulator

        mesh = faults.mesh
        if lamb_budget is None:
            lamb_budget = max(4, mesh.num_nodes // 4)
        self.lamb_budget = lamb_budget
        self.max_extra_rounds = max_extra_rounds
        self.manager = ReconfigurationManager(
            mesh,
            orderings,
            sticky_lambs=sticky_lambs,
            method=method,
        )
        # Epoch 0: reconfigure for the initial fault state (possibly
        # empty) so the survivor set is defined before traffic starts.
        self.manager.report_faults_degraded(
            node_faults=faults.node_faults,
            link_faults=faults.link_faults,
            lamb_budget=self.lamb_budget,
            max_extra_rounds=self.max_extra_rounds,
            at_cycle=0,
        )
        self.sim = WormholeSimulator(
            faults,
            self.manager.orderings,
            buffer_flits=buffer_flits,
            policy=policy,
            seed=seed,
            schedule=schedule,
            on_fault=self._on_fault,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            tracer=tracer,
        )
        if self.manager.quarantined:
            self.sim.quarantine(self.manager.quarantined)

    # ------------------------------------------------------------------
    def _on_fault(self, event: FaultEvent, new_nodes, new_links) -> None:
        """Simulator hook: one fault event -> one rollback epoch."""
        epoch = self.manager.report_faults_degraded(
            node_faults=new_nodes,
            link_faults=new_links,
            lamb_budget=self.lamb_budget,
            max_extra_rounds=self.max_extra_rounds,
            at_cycle=self.sim.cycle,
        )
        if self.manager.orderings.k > self.sim.orderings.k:
            self.sim.set_orderings(self.manager.orderings)
        if epoch.quarantined:
            self.sim.quarantine(epoch.quarantined)

    # ------------------------------------------------------------------
    def survivors(self) -> List[Node]:
        """Current usable endpoints: survivors of the latest epoch
        minus anything quarantined."""
        current = self.manager.current
        assert current is not None
        q = set(self.manager.quarantined)
        return [v for v in current.result.survivors() if v not in q]

    def load_uniform_traffic(
        self,
        num_messages: int,
        rng: np.random.Generator,
        num_flits: int = 4,
        inject_window: int = 60,
    ) -> int:
        """Queue uniform random traffic among the current survivors."""
        endpoints = self.survivors()
        if len(endpoints) < 2:
            raise ValueError("need at least two survivors for traffic")
        n = 0
        for inj in uniform_random_traffic(
            endpoints,
            num_messages,
            rng,
            num_flits=num_flits,
            inject_window=inject_window,
        ):
            self.sim.send(inj.source, inj.dest, inj.num_flits, inj.inject_cycle)
            n += 1
        return n

    def run(self, max_cycles: int = 100_000) -> ChaosReport:
        """Run to completion and return the full report."""
        stats = self.sim.run(max_cycles=max_cycles)
        return self.report(stats)

    def report(self, stats: Optional[SimStats] = None) -> ChaosReport:
        if stats is None:
            stats = self.sim.stats()
        return ChaosReport(
            stats=stats,
            epochs=list(self.manager.epochs),
            fault_events_applied=self.sim.fault_events_applied,
            quarantined=tuple(sorted(self.manager.quarantined)),
            final_rounds=self.manager.orderings.k,
        )


# ----------------------------------------------------------------------
# Canonical deterministic scenario (CLI / experiments / CI smoke)
# ----------------------------------------------------------------------
def seeded_chaos_run(
    widths: Sequence[int] = (8, 8),
    initial_faults: int = 2,
    num_messages: int = 120,
    num_events: int = 3,
    seed: int = 0,
    num_flits: int = 4,
    inject_window: int = 80,
    cycle_span: Tuple[int, int] = (20, 260),
    nodes_per_event: int = 1,
    links_per_event: int = 0,
    rounds: int = 2,
    max_cycles: int = 100_000,
    lamb_budget: Optional[int] = None,
    max_extra_rounds: int = 1,
    tracer=None,
) -> ChaosReport:
    """One fully deterministic chaos scenario.

    Every random draw (initial faults, fault schedule, traffic, route
    tie-breaks) derives from ``seed``, so two invocations with the same
    arguments produce identical reports.
    """
    mesh = Mesh(tuple(int(w) for w in widths))
    rng = np.random.default_rng(seed)
    faults = (
        random_node_faults(mesh, initial_faults, rng)
        if initial_faults
        else FaultSet(mesh)
    )
    schedule = FaultSchedule.random(
        mesh,
        num_events,
        rng,
        cycle_span=cycle_span,
        nodes_per_event=nodes_per_event,
        links_per_event=links_per_event,
        avoid=faults.node_faults,
    )
    engine = ChaosEngine(
        faults,
        repeated(ascending(mesh.d), rounds),
        schedule,
        seed=seed,
        lamb_budget=lamb_budget,
        max_extra_rounds=max_extra_rounds,
        tracer=tracer,
    )
    engine.load_uniform_traffic(
        num_messages, rng, num_flits=num_flits, inject_window=inject_window
    )
    return engine.run(max_cycles=max_cycles)
