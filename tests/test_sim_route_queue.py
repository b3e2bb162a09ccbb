"""Queued sends against the eager route reference.

:class:`repro.wormhole.WormholeSimulator` queues each route miss at
``send`` and routes the queue in one ``find_k_round_routes`` batch the
first time a route is needed.  :class:`EagerRouteSimulator`
(``tests/sim_oracle.py``) routes every miss at its send with the
one-pair call.  Over the generated corpus of
``tests/test_sim_oracle_parity.py`` and over every way a send can
interleave with the rest of the API, the two must give each message
the same hops and resource ids, the same fates and trace stream, and
leave ``sim.rng`` at the same point.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List, Tuple

import numpy as np
import pytest

from repro.core.lamb import find_lamb_set
from repro.mesh import Mesh, random_node_faults
from repro.mesh.faults import FaultSet
from repro.routing import repeated, xy
from repro.wormhole.deadlock import SimulationError
from repro.wormhole.simulator import WormholeSimulator
from repro.wormhole.trace import Tracer

from sim_oracle import EagerRouteSimulator
from test_sim_oracle_parity import SEEDS, _scenario

#: sha256 of the corpus's final routes and each run's next draw
#: (:func:`_corpus_digest`), captured with the one-pair route path.
CORPUS_ROUTES_SHA256 = (
    "cab3fd55627a6b33545af1a976769a7da7d809dcdb5b69b9f42eb47513dbcc77"
)


def _routes(sim: WormholeSimulator) -> List[Tuple[object, ...]]:
    return [(m.msg_id, [(h.src, h.dst, h.vc) for h in m.hops], m.hop_ids)
            for m in sim.messages.values()]


def _state(sim: WormholeSimulator) -> Tuple[object, ...]:
    """Everything the route path decides, read at the end of a run:
    routes, fates, the trace and the rng's next draw."""
    fates = [(m.msg_id, m.inject_cycle, m.deliver_cycle, m.abort_reason,
              m.attempts, tuple(m.flit_pos))
             for m in sim.messages.values()]
    events = sim.tracer.events if sim.tracer is not None else None
    return (_routes(sim), fates, events, sim.cycle,
            int(sim.rng.integers(2**62)))


def _run_corpus_seed(cls, seed: int, traced: bool = True):
    sc = _scenario(seed)
    sim = cls(sc["faults"], sc["orderings"],
              tracer=Tracer() if traced else None, **sc["kw"])
    for src, dst, flits, when in sc["traffic"]:
        sim.send(src, dst, flits, when)
    try:
        sim.run(max_cycles=1200)
        error = None
    except SimulationError as exc:
        error = (type(exc).__name__, str(exc))
    return sim, error


@pytest.mark.parametrize("chunk", range(4))
def test_corpus_matches_the_eager_route_path(chunk):
    """Every corpus scenario (one-VC ``policy="random"`` runs and live
    fault schedules with redispatch included) runs identically with
    queued and with eager routes."""
    for seed in SEEDS[chunk::4]:
        got, got_error = _run_corpus_seed(WormholeSimulator, seed)
        want, want_error = _run_corpus_seed(EagerRouteSimulator, seed)
        assert got_error == want_error, f"seed {seed}"
        assert _state(got) == _state(want), f"seed {seed}"


def _corpus_digest() -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        sim, _ = _run_corpus_seed(WormholeSimulator, seed, traced=False)
        for route in _routes(sim):
            h.update(repr((seed,) + route).encode())
        h.update(repr((seed, int(sim.rng.integers(2**62)))).encode())
    return h.hexdigest()


def test_corpus_routes_are_pinned():
    assert _corpus_digest() == CORPUS_ROUTES_SHA256


# ----------------------------------------------------------------------
# Interleavings: a script of API calls run on both simulators.
# ----------------------------------------------------------------------
MESH = Mesh((8, 8))
ORDERINGS = repeated(xy(), 2)


def _faults_and_survivors():
    faults = random_node_faults(MESH, 5, np.random.default_rng(7))
    return faults, find_lamb_set(faults, ORDERINGS).survivors()


def _pairs(survivors, n: int, seed: int = 3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a, b = rng.choice(len(survivors), size=2, replace=False)
        out.append((survivors[int(a)], survivors[int(b)]))
    return out


def _both(script: Callable[[WormholeSimulator], object],
          faults=None, **kw) -> Tuple[object, object]:
    """Run ``script`` on a queued and on an eager simulator (policy
    ``random``, so every route draws) and require equal end states;
    returns the two script results."""
    if faults is None:
        faults, _ = _faults_and_survivors()
    kw.setdefault("policy", "random")
    out = []
    states = []
    for cls in (WormholeSimulator, EagerRouteSimulator):
        sim = cls(faults, ORDERINGS, tracer=Tracer(), seed=11, **kw)
        out.append(script(sim))
        sim.run(max_cycles=5000)
        states.append(_state(sim))
    assert states[0] == states[1]
    return out[0], out[1]


def test_send_step_send():
    _, survivors = _faults_and_survivors()
    pairs = _pairs(survivors, 8)

    def script(sim):
        for src, dst in pairs[:4]:
            sim.send(src, dst, 6)
        sim.step()
        sim.step()
        for src, dst in pairs[4:]:
            sim.send(src, dst, 6)

    _both(script)


def test_build_hops_between_queued_sends():
    _, survivors = _faults_and_survivors()
    pairs = _pairs(survivors, 5)

    def script(sim):
        sim.send(*pairs[0], 4)
        sim.send(*pairs[1], 4)
        hops = sim.build_hops(*pairs[2])
        sim.send(*pairs[3], 4)
        sim.send(*pairs[2], 4)  # a memo hit: the built route
        return [(h.src, h.dst, h.vc) for h in hops]

    got, want = _both(script)
    assert got == want and got


def test_inject_faults_routes_the_queue_on_the_old_index():
    """Sends queued before a live fault are routed on the pre-fault
    index, as at their send; the fault then tears out those crossing
    it, which re-route before injection."""
    faults, survivors = _faults_and_survivors()
    pairs = _pairs(survivors, 6)
    probe = EagerRouteSimulator(faults, ORDERINGS, policy="random", seed=11)
    ends = {v for pair in pairs for v in pair}
    first = probe.send(*pairs[0], 4, inject_cycle=3)
    dead = next(h.dst for h in first.hops if h.dst not in ends)

    def script(sim):
        msgs = [sim.send(src, dst, 4, inject_cycle=3) for src, dst in pairs]
        victims = sim.inject_faults(node_faults=[dead])
        return [m.msg_id for m in victims], msgs[0].hops

    (got, hops), (want, _) = _both(script)
    assert got == want and 0 in got
    assert all(dead not in (h.src, h.dst) for h in hops)


def test_set_orderings_routes_the_queue_on_the_old_index():
    _, survivors = _faults_and_survivors()
    pairs = _pairs(survivors, 6)

    def script(sim):
        early = [sim.send(src, dst, 4) for src, dst in pairs[:3]]
        sim.set_orderings(repeated(xy(), 3))
        late = [sim.send(src, dst, 4) for src, dst in pairs[3:]]
        return ([max(h.vc for h in m.hops) for m in early],
                [m.hop_ids for m in late])

    (early, _), _ = _both(script)
    assert max(early) <= 1  # two-round routes: VCs 0 and 1 only


def test_unreachable_send_raises_at_once():
    """A wall splits the mesh: the send across it raises at once and
    makes no message; the queued messages before it keep their routes
    and the draws continue as on the eager path."""
    wall = FaultSet(MESH, [(3, y) for y in range(8)])
    left = [(x, y) for x in range(3) for y in range(8)]
    pairs = [(left[i], left[-1 - i]) for i in range(4)]

    def script(sim):
        msgs = [sim.send(src, dst, 4) for src, dst in pairs[:2]]
        with pytest.raises(ValueError, match="not k-round reachable"):
            sim.send((0, 0), (6, 6), 4)
        assert sorted(sim.messages) == [0, 1]
        msgs += [sim.send(src, dst, 4) for src, dst in pairs[2:]]
        return [m.msg_id for m in msgs]

    got, want = _both(script, faults=wall)
    assert got == want == [0, 1, 2, 3]


def test_self_message_is_delivered_at_send():
    _, survivors = _faults_and_survivors()
    pairs = _pairs(survivors, 3)

    def script(sim):
        sim.send(*pairs[0], 4)
        v = pairs[1][0]
        m = sim.send(v, v, 3)
        sim.send(*pairs[2], 4)
        return m.is_delivered, m.hops

    got, want = _both(script, policy="shortest")
    assert got == want == (True, [])


def test_stats_before_run():
    _, survivors = _faults_and_survivors()
    pairs = _pairs(survivors, 5)

    def script(sim):
        for src, dst in pairs:
            sim.send(src, dst, 4)
        return sim.stats()

    got, want = _both(script)
    assert got == want and got.delivered == 0


def test_hops_read_straight_after_send():
    _, survivors = _faults_and_survivors()
    pairs = _pairs(survivors, 4)

    def script(sim):
        sim.send(*pairs[0], 4)
        m = sim.send(*pairs[1], 4)
        hops = list(m.hops)
        ids = list(m.hop_ids)
        sim.send(*pairs[2], 4)
        sim.send(*pairs[3], 4)
        return hops, ids

    got, want = _both(script)
    assert got == want and got[0]


def test_a_discipline_the_network_rejects_raises_at_send():
    """Round 1 on VC 5 of 2: the route fails admission, at the send,
    and no message is made."""
    _, survivors = _faults_and_survivors()
    src, dst = _pairs(survivors, 1)[0]
    for cls in (WormholeSimulator, EagerRouteSimulator):
        sim = cls(FaultSet(MESH), ORDERINGS, vc_of_round=lambda t: 5,
                  num_vcs=2)
        with pytest.raises(ValueError, match="uses VC 5, have 2"):
            sim.send(src, dst)
        assert not sim.messages


def test_explicit_hops_between_queued_sends():
    """A send with explicit hops interns its resources after the queued
    routes', as it would after eager ones: equal resource ids."""
    _, survivors = _faults_and_survivors()
    pairs = _pairs(survivors, 3)
    probe = EagerRouteSimulator(FaultSet(MESH), ORDERINGS)
    hops = probe.build_hops((0, 0), (3, 2))

    def script(sim):
        sim.send(*pairs[0], 4)
        sim.send(*pairs[1], 4)
        m = sim.send((0, 0), (3, 2), 4, hops=hops)
        sim.send(*pairs[2], 4)
        return m.hop_ids

    got, want = _both(script)
    assert got == want
