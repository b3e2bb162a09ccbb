"""Golden parity: the event-driven ``frontier`` engine must be
cycle-exact against the historical ``scan`` engine.

Both engines share the flit-advance kernel; what differs is *which*
messages are visited each cycle.  These tests pin that the frontier's
park/wake bookkeeping is observationally invisible: identical
:class:`SimStats`, per-message fates, full trace streams, final cycle
counts and deadlock diagnostics on seeded scenarios — including the
chaos abort/drain/retry paths.
"""

import hashlib

import numpy as np
import pytest

from repro.core.lamb import find_lamb_set
from repro.mesh import Mesh, random_node_faults
from repro.mesh.faults import FaultSet
from repro.routing import repeated, xy
from repro.wormhole.chaos import FaultEvent, FaultSchedule, seeded_chaos_run
from repro.wormhole.deadlock import DeadlockError
import repro.wormhole.simulator as simulator_module
from repro.wormhole.packets import Hop
from repro.wormhole.simulator import SIM_ENGINES, WormholeSimulator
from repro.wormhole.trace import Tracer


def _seeded_sim(engine, seed, *, faults_n=3, tracer=None, **kw):
    mesh = Mesh((8, 8))
    faults = random_node_faults(mesh, faults_n, np.random.default_rng(seed))
    sim = WormholeSimulator(
        faults, repeated(xy(), 2), seed=seed, engine=engine, tracer=tracer, **kw
    )
    good = [
        tuple(int(x) for x in v)
        for v in mesh.nodes()
        if not faults.node_is_faulty(tuple(int(x) for x in v))
    ]
    return sim, good


def _load_traffic(sim, good, seed, n=60, window=40):
    rng = np.random.default_rng(seed + 1)
    for _ in range(n):
        s, d = rng.choice(len(good), size=2, replace=False)
        sim.send(good[s], good[d], num_flits=int(rng.integers(2, 7)),
                 inject_cycle=int(rng.integers(0, window)))


def _fates(sim):
    return [
        (m.msg_id, m.deliver_cycle, m.abort_reason, m.attempts,
         tuple(m.flit_pos))
        for m in sim.messages.values()
    ]


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        mesh = Mesh((4, 4))
        for engine in ("warp", "vector"):
            with pytest.raises(ValueError, match="unknown engine"):
                WormholeSimulator(
                    FaultSet(mesh), repeated(xy(), 2), engine=engine
                )

    def test_env_default(self, monkeypatch):
        """The engine is chosen by ``engine=`` alone: no environment
        variable can swap the production fast path for the oracle."""
        mesh = Mesh((4, 4))
        monkeypatch.setenv("REPRO_SIM_ENGINE", "scan")
        sim = WormholeSimulator(FaultSet(mesh), repeated(xy(), 2))
        assert sim.engine == "frontier"
        assert SIM_ENGINES == ("frontier", "scan")


class TestGoldenStats:
    """The frontier engine against values recorded from the scan
    engine (seeded 8x8 scenario, 3 faults, 60 messages)."""

    def _run(self, engine):
        sim, good = _seeded_sim(engine, 5)
        _load_traffic(sim, good, 5)
        return sim.run(), sim

    @pytest.mark.parametrize("engine", SIM_ENGINES)
    def test_pinned_stats(self, engine):
        stats, _ = self._run(engine)
        assert stats.cycles == 52
        assert stats.delivered == 60
        assert stats.avg_latency == pytest.approx(9.683333333333334)
        assert stats.max_latency == 20
        assert stats.avg_hops == pytest.approx(5.616666666666666)

    def test_stats_equal(self):
        a, _ = self._run("scan")
        b, _ = self._run("frontier")
        assert a == b


def _workload_scale_run(engine, *, live=False, buffer_flits=2, seed=23):
    """The ``sim_uniform`` shape: M2(32), 31 seeded node faults, 48
    64-flit messages between Lamb1 survivors with Poisson(1) arrivals
    per cycle.  ``live`` adds a fault schedule that kills busy central
    nodes and two directed links while worms are in flight.  Returns
    the SHA-256 of the full trace stream plus the ``SimStats``, and the
    simulator."""
    mesh = Mesh.square(2, 32)
    orderings = repeated(xy(), 2)
    rng = np.random.default_rng(seed)
    faults = random_node_faults(mesh, 31, rng)
    survivors = find_lamb_set(faults, orderings).survivors()
    traffic = []
    cycle = 0
    while len(traffic) < 48:
        for _ in range(int(rng.poisson(1.0))):
            if len(traffic) == 48:
                break
            a = int(rng.integers(len(survivors)))
            b = int(rng.integers(len(survivors) - 1))
            b += b >= a
            traffic.append((survivors[a], survivors[b], cycle))
        cycle += 1
    schedule = None
    if live:
        alive = set(survivors)
        central = [(x, y) for x in range(12, 20) for y in range(12, 20)
                   if (x, y) in alive]
        schedule = FaultSchedule([
            FaultEvent(40, node_faults=central[0:3]),
            FaultEvent(90, node_faults=central[30:32],
                       link_faults=[((16, 4), (16, 5)), ((8, 20), (9, 20))]),
            FaultEvent(140, node_faults=central[50:52]),
        ])
    tracer = Tracer()
    sim = WormholeSimulator(faults, orderings, buffer_flits=buffer_flits,
                            seed=seed, engine=engine, tracer=tracer,
                            schedule=schedule)
    for src, dst, when in traffic:
        sim.send(src, dst, 64, when)
    stats = sim.run()
    h = hashlib.sha256()
    for e in tracer.events:
        h.update(repr((e.cycle, e.kind, e.msg_id, e.flit, e.src, e.dst,
                       e.vc, e.reason)).encode())
    h.update(repr(stats).encode())
    return h.hexdigest(), sim


class TestWorkloadScaleGolden:
    """Digests recorded from the tuple-keyed kernel before the flat
    resource-id rewrite, at ``sim_uniform``'s scale.  Both engines share
    ``_advance_message``, so engine parity alone cannot catch a kernel
    bug; these pins can."""

    # scenario -> (trace+stats digest, frontier park_events, wake_events)
    GOLDEN = {
        "uniform": (
            "148eb3bac377cde99c768b6967017d15d5f1bc71b5202cb78496dd9df0f878d4",
            1053, 1053),
        "live-faults": (
            "817f312267f27d204c136115475803421ea2e64bcb4b62b6c76f61d6c87bd64d",
            1105, 1081),
        "buffer-1": (
            "d76964e6edfcf8e17735b92dae65f256f5687c526475c0b01d0e2f1a24e5d9dc",
            1238, 1238),
    }
    SCENARIOS = {
        "uniform": {},
        "live-faults": {"live": True},
        "buffer-1": {"buffer_flits": 1},
    }

    @pytest.mark.parametrize("engine", SIM_ENGINES)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_digest(self, engine, scenario):
        digest, sim = _workload_scale_run(engine, **self.SCENARIOS[scenario])
        want, parks, wakes = self.GOLDEN[scenario]
        assert digest == want
        if engine == "frontier":
            assert (sim.park_events, sim.wake_events) == (parks, wakes)

    def test_live_faults_tear_worms_mid_flight(self):
        _, sim = _workload_scale_run("frontier", live=True)
        stats = sim.stats()
        assert stats.total_retries == 8
        assert stats.abort_reasons == (("endpoint-failed", 1),)


class TestCycleExactParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_traces_and_fates_match(self, seed):
        """Full event streams — injections, acquisitions, per-flit
        hops, releases, deliveries — must be identical."""
        runs = {}
        for engine in SIM_ENGINES:
            tracer = Tracer()
            sim, good = _seeded_sim(engine, seed, tracer=tracer)
            _load_traffic(sim, good, seed, n=80)
            stats = sim.run()
            runs[engine] = (stats, _fates(sim), tracer.events, sim.cycle)
        assert runs["scan"][0] == runs["frontier"][0]
        assert runs["scan"][1] == runs["frontier"][1]
        assert runs["scan"][2] == runs["frontier"][2]
        assert runs["scan"][3] == runs["frontier"][3]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_tight_buffers(self, seed):
        """buffer_flits=1 maximizes back-pressure (straggler tails in
        released resources' buffers — the subtle wake case)."""
        runs = {}
        for engine in SIM_ENGINES:
            tracer = Tracer()
            sim, good = _seeded_sim(
                engine, seed, tracer=tracer, buffer_flits=1
            )
            _load_traffic(sim, good, seed, n=70, window=10)
            sim.run()
            runs[engine] = (_fates(sim), tracer.events, sim.cycle)
        assert runs["scan"] == runs["frontier"]

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_live_fault_parity(self, seed):
        """Mid-flight fault injection: abort/drain/retry, rerouting
        and the conservative frontier rebuild."""
        runs = {}
        for engine in SIM_ENGINES:
            tracer = Tracer()
            sim, good = _seeded_sim(engine, seed, tracer=tracer)
            _load_traffic(sim, good, seed, n=80)
            for _ in range(25):
                sim.step()
            victim = good[len(good) // 2]
            sim.inject_faults(node_faults=[victim])
            stats = sim.run()
            runs[engine] = (stats, _fates(sim), tracer.events, sim.cycle)
        assert runs["scan"] == runs["frontier"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chaos_run_parity(self, monkeypatch, seed):
        """The full chaos machinery (schedules, rollback epochs,
        escalation, quarantine) through both engines.  ``ChaosEngine``
        builds its simulator with the default engine; the scan run
        swaps in a subclass that pins the oracle."""
        built = []

        class ScanSimulator(WormholeSimulator):
            def __init__(self, *args, **kw):
                super().__init__(*args, engine="scan", **kw)
                built.append(self.engine)

        reports = {"frontier": seeded_chaos_run(
            seed=seed, num_events=4, num_messages=150
        )}
        monkeypatch.setattr(simulator_module, "WormholeSimulator", ScanSimulator)
        reports["scan"] = seeded_chaos_run(
            seed=seed, num_events=4, num_messages=150
        )
        assert built == ["scan"]
        assert reports["scan"].summary() == reports["frontier"].summary()
        assert reports["scan"].stats == reports["frontier"].stats

    def test_deadlock_parity(self):
        """A deliberately broken VC discipline must deadlock at the
        same cycle with the same wait-for cycle in both engines."""
        outcomes = {}
        for engine in SIM_ENGINES:
            mesh = Mesh((4, 4))
            sim = WormholeSimulator(
                FaultSet(mesh), repeated(xy(), 2), engine=engine,
                vc_of_round=lambda t: 0, num_vcs=1, buffer_flits=1,
            )
            ring = [(0, 0), (2, 0), (2, 2), (0, 2)]

            def L(a, b):
                path = [a]
                x, y = a
                while x != b[0]:
                    x += 1 if b[0] > x else -1
                    path.append((x, y))
                while y != b[1]:
                    y += 1 if b[1] > y else -1
                    path.append((x, y))
                return path

            for i in range(4):
                a, b, c = ring[i], ring[(i + 1) % 4], ring[(i + 2) % 4]
                hops = [
                    Hop(u, v, 0)
                    for p in (L(a, b), L(b, c))
                    for u, v in zip(p, p[1:])
                ]
                sim.send(a, c, num_flits=12, hops=hops)
            with pytest.raises(DeadlockError) as exc:
                sim.run(5000)
            outcomes[engine] = (sorted(exc.value.cycle), sim.cycle)
        assert outcomes["scan"] == outcomes["frontier"]


class TestRouteCache:
    def _sim(self, **kw):
        mesh = Mesh((8, 8))
        return WormholeSimulator(FaultSet(mesh), repeated(xy(), 2), **kw)

    def test_hit_returns_same_route(self):
        sim = self._sim()
        a = sim.build_hops((0, 0), (5, 3))
        b = sim.build_hops((0, 0), (5, 3))
        assert a == b and b is not None
        assert ((0, 0), (5, 3)) in sim._route_cache

    def test_invalidated_on_live_fault(self):
        sim = self._sim()
        hops = sim.build_hops((0, 0), (5, 0))
        assert hops is not None
        epoch = sim.routing_epoch
        sim.inject_faults(node_faults=[(2, 0)])
        assert sim.routing_epoch == epoch + 1
        assert not sim._route_cache
        rerouted = sim.build_hops((0, 0), (5, 0))
        assert rerouted is not None
        assert all((2, 0) not in (h.src, h.dst) for h in rerouted)

    def test_invalidated_on_set_orderings(self):
        sim = self._sim()
        sim.build_hops((0, 0), (3, 3))
        epoch = sim.routing_epoch
        sim.set_orderings(repeated(xy(), 3))
        assert sim.routing_epoch == epoch + 1
        assert not sim._route_cache

    def test_unreachable_is_cached(self):
        mesh = Mesh((5, 5))
        # Wall off the left column below/above the source.
        wall = [(1, y) for y in range(5)]
        faults = FaultSet(mesh).with_faults(wall, [])
        sim = WormholeSimulator(faults, repeated(xy(), 2))
        assert sim.build_hops((0, 0), (4, 4)) is None
        assert sim._route_cache[((0, 0), (4, 4))] is None
        assert sim.build_hops((0, 0), (4, 4)) is None

    def test_opt_out(self):
        sim = self._sim(route_cache=False)
        assert sim.build_hops((0, 0), (5, 3)) is not None
        assert not sim._route_cache


class TestDeterminism:
    """Run-to-run determinism regressions.

    Hash-order hazards (set iteration, ``set.pop()`` worklists) were
    scrubbed from the pipeline by the REP102 lint rule (see
    ``repro analyze``); these tests pin the behaviors that would drift
    first if one crept back in — the frontier engine's park/wake
    worklist and the route cache's iteration-order independence.
    """

    def _full_run(self, *, seed=5, route_cache=True, n=80):
        tracer = Tracer()
        sim, good = _seeded_sim(
            "frontier", seed, tracer=tracer, route_cache=route_cache
        )
        _load_traffic(sim, good, seed, n=n)
        stats = sim.run()
        return stats, _fates(sim), tracer.events

    def test_identical_reruns_identical_everything(self):
        """Two fresh same-seed runs: stats, per-message fates and the
        full event stream must match byte-for-byte (park/wake order
        must not depend on set/dict hash order)."""
        assert self._full_run() == self._full_run()

    def test_route_cache_is_behavior_neutral(self):
        """Cache on vs off must not change a single event: a cache-hit
        route must be exactly the route the policy would regenerate."""
        a = self._full_run(route_cache=True)
        b = self._full_run(route_cache=False)
        assert a == b

    def test_live_fault_rerun_determinism(self):
        """Park/wake rebuild after mid-flight faults (the conservative
        frontier reconstruction) is fully reproducible."""

        def run():
            tracer = Tracer()
            sim, good = _seeded_sim("frontier", 3, tracer=tracer)
            _load_traffic(sim, good, 3, n=70)
            for _ in range(20):
                sim.step()
            sim.inject_faults(node_faults=[good[len(good) // 3]])
            sim.run()
            return _fates(sim), tracer.events, sim.cycle

        assert run() == run()

    def test_component_seeding_is_insertion_order_independent(self):
        """The quarantine rung's flood fill must not depend on the
        order faults were reported (it used to pop seeds from a set)."""
        from repro.core.reconfigure import largest_good_component

        mesh = Mesh((8, 8))
        # A wall splitting the mesh into two components of equal size
        # is the tie the old hash-order seeding could break either way.
        wall = [(3, y) for y in range(8)] + [(4, y) for y in range(8)]
        results = []
        for order in (wall, wall[::-1], wall[::2] + wall[1::2]):
            faults = FaultSet(mesh).with_faults(order, [])
            results.append(largest_good_component(faults))
        assert results[0] == results[1] == results[2]
        best, rest = results[0]
        assert len(best) == len(rest) == 24  # equal-size tie, pinned


class TestHopIds:
    def test_rebuilt_when_retry_swaps_route(self):
        """A live fault tears the worm out and ``reset_for_retry``
        re-arms it on a detour: its resource ids must follow the new
        route, not keep indexing the dead one."""
        sim = TestRouteCache()._sim()
        m = sim.send((0, 0), (5, 0), num_flits=16)
        assert m.hop_ids == sim.net.admit_route(m.hops)
        old_hops, old_ids = m.hops, m.hop_ids
        for _ in range(3):
            sim.step()
        sim.inject_faults(node_faults=[(3, 0)])
        assert m.was_retried and m.hops != old_hops
        assert m.hop_ids != old_ids
        assert m.hop_ids == sim.net.admit_route(m.hops)
        assert sim.run().delivered == 1
        assert sim.net.is_idle()
