"""The roll-back / reconfigure loop (Section 1).

"In some modern parallel computers, a system diagnostic program will
be invoked when new faults are detected.  This will roll back to a
previous checkpoint of the application, redefine the new set of
faults, and reconfigure the machine assuming static faults and global
knowledge.  Our approach and algorithm would be part of the
reconfiguration step."

:class:`ReconfigurationManager` packages exactly that loop: it holds
the machine's cumulative fault state, recomputes the lamb set whenever
faults are reported (keeping surviving previous lambs predetermined so
placement decisions remain stable across epochs — Section 7's
extension), and exposes the per-epoch history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..mesh.faults import FaultSet
from ..mesh.geometry import Link, Mesh, Node
from ..obs import get_registry
from ..routing.ordering import KRoundOrdering
from .lamb import LambResult, find_lamb_set

__all__ = [
    "Epoch",
    "ReconfigurationManager",
    "ReconfigurationError",
    "LADDER_RUNG_FAILURES",
    "largest_good_component",
]


class ReconfigurationError(RuntimeError):
    """Every rung of the degradation ladder failed."""


#: Exception types that mean "this ladder rung legitimately failed"
#: (degenerate partitions, infeasible covers, numeric overflow in the
#: reachability products).  Anything else — a ``TypeError`` from a bad
#: argument, a ``KeyboardInterrupt``, an ``AssertionError`` from a
#: broken invariant — is a *bug*, and the ladder must not absorb it
#: into a silent ``None`` and climb on.
LADDER_RUNG_FAILURES: Tuple[type, ...] = (ValueError, ArithmeticError)


def largest_good_component(faults: FaultSet) -> Tuple[Set[Node], Set[Node]]:
    """Split the good nodes into (largest connected component, rest).

    An edge is usable if at least one direction survives (a
    half-duplex link still physically connects its endpoints for the
    purpose of "is this region attached to the machine").  Used by the
    quarantine rung of the degradation ladder.
    """
    mesh = faults.mesh
    good = [v for v in mesh.nodes() if not faults.node_is_faulty(v)]
    unseen = set(good)
    best: Set[Node] = set()
    # Seed the flood fills in mesh enumeration order; popping from the
    # ``unseen`` set would break equal-size-component ties in hash
    # order and make the quarantine region run-order dependent.
    for start in good:
        if start not in unseen:
            continue
        unseen.remove(start)
        comp = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in mesh.neighbors(u):
                if v not in unseen:
                    continue
                if faults.link_is_faulty(u, v) and faults.link_is_faulty(v, u):
                    continue
                unseen.discard(v)
                comp.add(v)
                frontier.append(v)
        if len(comp) > len(best):
            best = comp
    return best, set(good) - best


@dataclass(frozen=True)
class Epoch:
    """One reconfiguration: the fault state and the resulting lambs.

    ``at_cycle`` is the simulator cycle of the triggering fault event
    (-1 when not driven by a live simulation).  ``escalated_rounds``
    and ``quarantined`` record the degradation ladder: how many extra
    routing rounds this epoch had to add, and which (good but
    unreachable) nodes were given up and excluded from the survivor
    set.  A quarantined node is treated as a fault in ``result.faults``
    even though the hardware is alive.
    """

    index: int
    new_node_faults: Tuple[Node, ...]
    new_link_faults: Tuple[Link, ...]
    result: LambResult
    at_cycle: int = -1
    escalated_rounds: int = 0
    quarantined: Tuple[Node, ...] = ()
    #: Why lower rungs of the ladder failed before this epoch's rung
    #: succeeded (``"k=<rounds>: <error>"`` strings, in climb order).
    #: Empty when the first rung succeeded outright.
    rung_failures: Tuple[str, ...] = ()

    @property
    def num_faults(self) -> int:
        return self.result.faults.f

    @property
    def num_lambs(self) -> int:
        return self.result.size

    @property
    def num_survivors(self) -> int:
        return (
            self.result.mesh.num_nodes
            - self.result.faults.num_node_faults
            - self.result.size
        )

    @property
    def degraded(self) -> bool:
        """Whether the degradation ladder went past its first rung."""
        return self.escalated_rounds > 0 or bool(self.quarantined)


class ReconfigurationManager:
    """Tracks fault epochs and recomputes lamb sets.

    Parameters
    ----------
    mesh, orderings:
        The machine and its routing discipline.
    sticky_lambs:
        Keep previous lambs predetermined across epochs (default).  A
        sticky lamb that later fails outright is dropped from the
        predetermined set (it is now simply faulty).
    method:
        Forwarded to :func:`find_lamb_set`.
    """

    def __init__(
        self,
        mesh: Mesh,
        orderings: KRoundOrdering,
        sticky_lambs: bool = True,
        method: str = "bipartite",
    ):
        self.mesh = mesh
        self.orderings = orderings
        self.sticky_lambs = sticky_lambs
        self.method = method
        self._node_faults: List[Node] = []
        self._link_faults: List[Link] = []
        self._quarantined: Set[Node] = set()
        self.epochs: List[Epoch] = []
        #: Rung-failure reasons of the degradation climb in progress
        #: (reset per report; published on the resulting Epoch).
        self._rung_failures: List[str] = []

    # ------------------------------------------------------------------
    @property
    def current(self) -> Optional[Epoch]:
        return self.epochs[-1] if self.epochs else None

    @property
    def current_lambs(self) -> FrozenSet[Node]:
        return self.current.result.lambs if self.epochs else frozenset()

    @property
    def quarantined(self) -> FrozenSet[Node]:
        """Good-but-given-up nodes accumulated across degraded epochs."""
        return frozenset(self._quarantined)

    def fault_set(self) -> FaultSet:
        return FaultSet(self.mesh, self._node_faults, self._link_faults)

    # ------------------------------------------------------------------
    def report_faults(
        self,
        node_faults: Iterable[Sequence[int]] = (),
        link_faults: Iterable[Tuple[Sequence[int], Sequence[int]]] = (),
    ) -> Epoch:
        """Diagnose-and-reconfigure: add the newly detected faults and
        recompute the lamb set.  Returns the new epoch."""
        new_nodes = tuple(tuple(int(x) for x in v) for v in node_faults)
        new_links = tuple(
            (tuple(int(x) for x in u), tuple(int(x) for x in w))
            for (u, w) in link_faults
        )
        if not new_nodes and not new_links and self.epochs:
            raise ValueError("no new faults reported")
        self._node_faults.extend(new_nodes)
        self._link_faults.extend(new_links)
        faults = self.fault_set()
        predetermined: Tuple[Node, ...] = ()
        if self.sticky_lambs and self.epochs:
            predetermined = tuple(
                v for v in self.current_lambs if not faults.node_is_faulty(v)
            )
        result = find_lamb_set(
            faults,
            self.orderings,
            method=self.method,
            predetermined=predetermined,
        )
        epoch = Epoch(
            index=len(self.epochs),
            new_node_faults=new_nodes,
            new_link_faults=new_links,
            result=result,
        )
        self.epochs.append(epoch)
        return epoch

    # ------------------------------------------------------------------
    # Degradation ladder
    # ------------------------------------------------------------------
    def _sticky_predetermined(self, faults: FaultSet) -> Tuple[Node, ...]:
        if not (self.sticky_lambs and self.epochs):
            return ()
        return tuple(
            v for v in self.current_lambs if not faults.node_is_faulty(v)
        )

    def _try_lambs(
        self, faults: FaultSet, orderings: KRoundOrdering
    ) -> Optional[LambResult]:
        """One ladder rung: compute a lamb set, or None on failure.

        Only *domain* failures (:data:`LADDER_RUNG_FAILURES`) turn
        into ``None`` — and even then the reason is recorded on the
        report and counted in the telemetry registry, never swallowed.
        A non-domain exception (a genuine bug) propagates: the old
        bare ``except Exception`` silently converted typos in the
        pipeline into "every rung failed" quarantine storms.
        """
        try:
            return find_lamb_set(
                faults,
                orderings,
                method=self.method,
                predetermined=self._sticky_predetermined(faults),
            )
        except LADDER_RUNG_FAILURES as exc:
            reason = f"k={orderings.k}: {type(exc).__name__}: {exc}"
            self._rung_failures.append(reason)
            get_registry().inc(
                "ladder_rung_failures_total", error=type(exc).__name__
            )
            return None

    def _extended(self, extra: int) -> KRoundOrdering:
        """The current discipline with ``extra`` repeats of its last
        round appended (k -> k + extra)."""
        if extra == 0:
            return self.orderings
        rounds = tuple(self.orderings) + (self.orderings[-1],) * extra
        return KRoundOrdering(rounds)

    def report_faults_degraded(
        self,
        node_faults: Iterable[Sequence[int]] = (),
        link_faults: Iterable[Tuple[Sequence[int], Sequence[int]]] = (),
        *,
        lamb_budget: Optional[int] = None,
        max_extra_rounds: int = 1,
        at_cycle: int = -1,
    ) -> Epoch:
        """Diagnose-and-reconfigure with graceful degradation.

        The ladder, climbed until a rung yields a lamb set within
        ``lamb_budget`` (None = unbounded):

        1. recompute the lamb set at the current ``k``;
        2. escalate ``k -> k+1 .. k+max_extra_rounds`` rounds (more
           reachability, bigger routing tables — the escalated
           discipline is *adopted* for later epochs and the simulator
           grows a VC per extra round);
        3. **quarantine**: give up the good nodes outside the largest
           surviving component (they are henceforth treated as faults)
           and recompute on the remaining machine;
        4. last resort: accept the smallest lamb set any rung produced
           rather than crash; raise :class:`ReconfigurationError` only
           if every rung failed outright.
        """
        new_nodes = tuple(tuple(int(x) for x in v) for v in node_faults)
        new_links = tuple(
            (tuple(int(x) for x in u), tuple(int(x) for x in w))
            for (u, w) in link_faults
        )
        if not new_nodes and not new_links and self.epochs:
            raise ValueError("no new faults reported")
        self._node_faults.extend(new_nodes)
        self._link_faults.extend(new_links)
        self._rung_failures = []
        budget = float("inf") if lamb_budget is None else int(lamb_budget)
        # Previously quarantined nodes stay out of the machine.
        faults = self.fault_set()
        if self._quarantined:
            faults = faults.with_nodes_as_faults(sorted(self._quarantined))

        def climb(f: FaultSet, attempts: List) -> Optional[Tuple]:
            for extra in range(max_extra_rounds + 1):
                orderings = self._extended(extra)
                result = self._try_lambs(f, orderings)
                if result is None:
                    continue
                attempts.append((extra, orderings, result))
                if result.size <= budget:
                    return (extra, orderings, result)
            return None

        plain_attempts: List[Tuple[int, KRoundOrdering, LambResult]] = []
        q_attempts: List[Tuple[int, KRoundOrdering, LambResult]] = []
        chosen = climb(faults, plain_attempts)
        quarantined_now: Tuple[Node, ...] = ()
        if chosen is None:
            # Rung 3: quarantine everything outside the largest
            # surviving component and reconfigure the remainder.
            _, rest = largest_good_component(faults)
            if rest:
                chosen = climb(
                    faults.with_nodes_as_faults(sorted(rest)), q_attempts
                )
                if chosen is not None or q_attempts:
                    quarantined_now = tuple(sorted(rest))
                    self._quarantined.update(rest)
        if chosen is None:
            # Rung 4: accept the least-bad oversized result (prefer
            # the quarantined machine — its results match the
            # quarantine bookkeeping above).
            fallback = q_attempts or plain_attempts
            if not fallback:
                detail = (
                    "; rung failures: " + "; ".join(self._rung_failures)
                    if self._rung_failures
                    else ""
                )
                raise ReconfigurationError(
                    f"no rung of the degradation ladder produced a lamb "
                    f"set for {faults}{detail}"
                )
            chosen = min(fallback, key=lambda t: t[2].size)
        extra, orderings, result = chosen
        if extra > 0:
            self.orderings = orderings  # adopt the escalated discipline
        epoch = Epoch(
            index=len(self.epochs),
            new_node_faults=new_nodes,
            new_link_faults=new_links,
            result=result,
            at_cycle=at_cycle,
            escalated_rounds=extra,
            quarantined=quarantined_now,
            rung_failures=tuple(self._rung_failures),
        )
        self.epochs.append(epoch)
        return epoch

    # ------------------------------------------------------------------
    def lamb_growth(self) -> List[int]:
        """Lamb-set size per epoch."""
        return [e.num_lambs for e in self.epochs]

    def monotone_lambs(self) -> bool:
        """Whether (with sticky lambs) every epoch's lamb set contains
        the previous epoch's surviving lambs."""
        for prev, cur in zip(self.epochs, self.epochs[1:]):
            kept = {
                v
                for v in prev.result.lambs
                if not cur.result.faults.node_is_faulty(v)
            }
            if not kept <= set(cur.result.lambs):
                return False
        return True
