"""Channel-dependency-graph deadlock prover (Dally & Seitz, extended).

The paper's deadlock-freedom claim (Section 4) is the classic
Dally–Seitz argument: k-round dimension-ordered routing with one
virtual channel per round induces an *acyclic* channel-dependency
graph, hence no wormhole deadlock.  The simulator can only *observe* a
violation dynamically (:class:`repro.wormhole.DeadlockError` fires
when a wait-for cycle has already formed); this module proves — or
refutes — deadlock freedom **statically**, before a single cycle is
simulated.

Model
-----
A *channel* is a (non-faulty directed link, virtual channel) pair —
exactly the simulator's :data:`repro.wormhole.network.ResourceKey`.
The extended CDG has an edge ``c1 -> c2`` whenever *some* route the
routing function can produce uses ``c2`` immediately after ``c1``:

- **intra-round**: within round ``t`` (ordering ``pi``, VC
  ``vc_of_round(t)``) a DOR path entering node ``w`` along dimension
  ``pi[i]`` may continue along the same dimension in the same
  direction, or turn into any strictly later dimension ``pi[j]``,
  ``j > i`` (either direction);
- **inter-round**: a path may finish round ``t`` at any node ``w``
  and start round ``t' > t`` there (intermediate rounds may be
  empty), so every channel into ``w`` on ``vc_of_round(t)`` depends
  on every channel out of ``w`` on ``vc_of_round(t')``.

Channels whose link or endpoint is faulty are excluded: no route is
ever materialized across them
(:meth:`repro.wormhole.VirtualNetwork.admit_route` is the dynamic
counterpart of this pruning).

If the graph is acyclic the configuration is deadlock-free for *any*
traffic and any congestion (the resource-ordering argument); if it is
cyclic the prover emits a **minimal dependency cycle** as a
counterexample artifact (:class:`DependencyCycle`).  On a torus the
wrap links make single-round rings cyclic — the prover correctly
refuses plain DOR on tori, matching the standard result that tori
need an extra channel split.

Cross-validation: the test suite asserts every scenario that
dynamically raises :class:`~repro.wormhole.DeadlockError` is rejected
here, and every configuration the golden parity runs drain cleanly is
accepted (``tests/test_static_cdg.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ...mesh.faults import FaultSet
from ...mesh.geometry import Node
from ...routing.ordering import KRoundOrdering
from ...wormhole.deadlock import SimulationError
from .cycles import find_minimal_cycle

__all__ = [
    "Channel",
    "DependencyCycle",
    "CdgReport",
    "StaticDeadlockError",
    "build_cdg",
    "find_dependency_cycle",
    "prove_deadlock_free",
    "assert_deadlock_free",
]

#: (src, dst, vc) — identical to :data:`repro.wormhole.network.ResourceKey`.
Channel = Tuple[Node, Node, int]


def _hop_dim_dir(widths: Tuple[int, ...], u: Node, w: Node) -> Tuple[int, int]:
    """The dimension a hop travels and its direction (+1/-1).

    Wrap-around (torus) hops are resolved modularly: ``n-1 -> 0`` is a
    ``+1`` hop, ``0 -> n-1`` a ``-1`` hop.
    """
    for j, (a, b) in enumerate(zip(u, w)):
        if a != b:
            diff = b - a
            if diff == 1 or diff == -(widths[j] - 1):
                return j, 1
            return j, -1
    raise ValueError(f"{u} -> {w} is not a hop")


@dataclass(frozen=True)
class DependencyCycle:
    """A cycle in the channel-dependency graph — a static witness that
    the routing discipline can deadlock."""

    channels: Tuple[Channel, ...]

    def __len__(self) -> int:
        return len(self.channels)

    def describe(self) -> str:
        parts = [
            f"<{src} -> {dst}, vc{vc}>" for (src, dst, vc) in self.channels
        ]
        return " => ".join(parts + [parts[0]]) if parts else "<empty>"

    def to_dict(self) -> Dict[str, object]:
        return {
            "length": len(self.channels),
            "channels": [
                {"src": list(src), "dst": list(dst), "vc": vc}
                for (src, dst, vc) in self.channels
            ],
        }


@dataclass(frozen=True)
class CdgReport:
    """Outcome of a static deadlock-freedom proof attempt.

    ``cycle is None`` means the extended CDG is acyclic: the
    configuration is deadlock-free for any traffic.  Otherwise
    ``cycle`` is a minimal dependency cycle (counterexample).
    """

    mesh: str
    num_channels: int
    num_dependencies: int
    num_vcs: int
    rounds: int
    cycle: Optional[DependencyCycle] = field(default=None)

    @property
    def acyclic(self) -> bool:
        return self.cycle is None

    @property
    def deadlock_free(self) -> bool:
        return self.acyclic

    def describe(self) -> str:
        head = (
            f"CDG over {self.mesh}: {self.num_channels} channel(s), "
            f"{self.num_dependencies} dependency edge(s), "
            f"{self.num_vcs} VC(s), {self.rounds} round(s)"
        )
        if self.cycle is None:
            return head + "\nacyclic: deadlock-free for any traffic"
        return (
            head
            + f"\nCYCLIC: minimal dependency cycle of length "
            f"{len(self.cycle)}:\n  " + self.cycle.describe()
        )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "mesh": self.mesh,
            "num_channels": self.num_channels,
            "num_dependencies": self.num_dependencies,
            "num_vcs": self.num_vcs,
            "rounds": self.rounds,
            "deadlock_free": self.acyclic,
        }
        if self.cycle is not None:
            out["cycle"] = self.cycle.to_dict()
        return out

    def write_artifact(self, path: str) -> None:
        """Persist the (counter)example report as a JSON artifact."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


class StaticDeadlockError(SimulationError):
    """The CDG prover found a dependency cycle: the configuration is
    *not* deadlock-free.  Carries the full :class:`CdgReport`."""

    def __init__(self, report: CdgReport):
        self.report = report
        cyc = report.cycle
        assert cyc is not None
        super().__init__(
            "static deadlock: channel-dependency cycle of length "
            f"{len(cyc)}\n  {cyc.describe()}"
        )


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------
def build_cdg(
    faults: FaultSet,
    orderings: KRoundOrdering,
    vc_of_round: Optional[Callable[[int], int]] = None,
    num_vcs: Optional[int] = None,
) -> Dict[Channel, Tuple[Channel, ...]]:
    """The extended channel-dependency graph of a configuration.

    Parameters mirror :class:`repro.wormhole.WormholeSimulator`:
    ``vc_of_round`` maps round index to VC (identity by default, the
    paper's discipline), ``num_vcs`` defaults to ``orderings.k``.

    Returns a deterministic adjacency map ``channel -> successors``;
    node order follows :meth:`repro.mesh.Mesh.links` enumeration.
    """
    mesh = faults.mesh
    k = orderings.k
    vmap = vc_of_round or (lambda t: t)
    nvc = orderings.k if num_vcs is None else int(num_vcs)
    if nvc < 1:
        raise ValueError("need at least one virtual channel")
    round_vcs = []
    for t in range(k):
        vc = int(vmap(t))
        if vc < 0 or vc >= nvc:
            raise ValueError(f"round {t} maps to VC {vc}, have {nvc}")
        round_vcs.append(vc)

    widths = mesh.widths
    # Usable directed links, annotated with (dim, direction).
    in_links: Dict[Node, List[Tuple[Node, int, int]]] = {}
    out_links: Dict[Node, List[Tuple[Node, int, int]]] = {}
    for (u, w) in mesh.links():
        if faults.link_is_faulty(u, w):
            continue
        j, s = _hop_dim_dir(widths, u, w)
        in_links.setdefault(w, []).append((u, j, s))
        out_links.setdefault(u, []).append((w, j, s))

    # Position of each dimension within each round's ordering.
    pos = [
        {dim: i for i, dim in enumerate(pi.perm)} for pi in orderings
    ]

    graph: Dict[Channel, List[Channel]] = {}

    def add_edge(c1: Channel, c2: Channel) -> None:
        graph.setdefault(c1, []).append(c2)

    for w, incoming in in_links.items():
        outgoing = out_links.get(w, [])
        if not outgoing:
            continue
        for (u, ji, si) in incoming:
            for t in range(k):
                vc_t = round_vcs[t]
                c1 = (u, w, vc_t)
                # Intra-round: continue the DOR path of round t.
                p = pos[t]
                pi_i = p[ji]
                for (x, jo, so) in outgoing:
                    pj = p[jo]
                    if (pj == pi_i and so == si) or pj > pi_i:
                        add_edge(c1, (w, x, vc_t))
                # Inter-round: finish round t at w, start any later
                # round there (intermediate rounds may be empty).
                for t2 in range(t + 1, k):
                    vc_n = round_vcs[t2]
                    for (x, _jo, _so) in outgoing:
                        add_edge(c1, (w, x, vc_n))

    # Deduplicate successors while preserving order (rounds sharing a
    # VC can induce the same edge via several (t, t') pairs).
    out: Dict[Channel, Tuple[Channel, ...]] = {}
    for c1, succs in graph.items():
        seen = set()
        uniq = []
        for c2 in succs:
            if c2 not in seen:
                seen.add(c2)
                uniq.append(c2)
        out[c1] = tuple(uniq)
    return out


# ----------------------------------------------------------------------
# Cycle detection + minimization
# ----------------------------------------------------------------------
def find_dependency_cycle(
    graph: Dict[Channel, Tuple[Channel, ...]],
) -> Optional[List[Channel]]:
    """A minimal cycle of the dependency graph, or ``None`` if acyclic.

    Delegates to the shared
    :func:`~repro.analysis.static.cycles.find_minimal_cycle` (Kahn
    peel + capped-BFS minimization), kept as a named entry point for
    the channel-dependency domain.
    """
    return find_minimal_cycle(graph)


# ----------------------------------------------------------------------
# The prover
# ----------------------------------------------------------------------
def prove_deadlock_free(
    faults: FaultSet,
    orderings: KRoundOrdering,
    vc_of_round: Optional[Callable[[int], int]] = None,
    num_vcs: Optional[int] = None,
) -> CdgReport:
    """Statically verify a routing configuration.

    Returns a :class:`CdgReport`; ``report.acyclic`` is the verdict
    and ``report.cycle`` the minimal counterexample when it is not.
    """
    graph = build_cdg(faults, orderings, vc_of_round, num_vcs)
    channels = set(graph)
    for succs in graph.values():
        channels.update(succs)
    cycle = find_dependency_cycle(graph)
    return CdgReport(
        mesh=repr(faults.mesh),
        num_channels=len(channels),
        num_dependencies=sum(len(s) for s in graph.values()),
        num_vcs=(orderings.k if num_vcs is None else int(num_vcs)),
        rounds=orderings.k,
        cycle=None if cycle is None else DependencyCycle(tuple(cycle)),
    )


def assert_deadlock_free(
    faults: FaultSet,
    orderings: KRoundOrdering,
    vc_of_round: Optional[Callable[[int], int]] = None,
    num_vcs: Optional[int] = None,
) -> CdgReport:
    """:func:`prove_deadlock_free`, raising :class:`StaticDeadlockError`
    (a :class:`repro.wormhole.SimulationError`) on a cyclic CDG."""
    report = prove_deadlock_free(faults, orderings, vc_of_round, num_vcs)
    if not report.acyclic:
        raise StaticDeadlockError(report)
    return report
