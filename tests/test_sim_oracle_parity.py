"""Differential parity: the run-level flit kernel against the per-flit
oracle (``tests/sim_oracle.py``) on generated scenarios.

Each seed draws a scenario — a 2D or 3D mesh with node faults, one to
four flits of buffering, 1- to 64-flit messages between Lamb1
survivors, sometimes a live fault schedule, sometimes every round
forced onto one VC so that the run can deadlock — and runs it through
three simulators: the production one, the production step loop over
the per-flit kernel, and the full-scan loop over the per-flit kernel.
Trace streams, per-message fates, final cycles and the
``DeadlockError`` / ``SimulationTimeout`` text must be identical, and
park/wake counts must equal the per-flit frontier's.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core.lamb import find_lamb_set
from repro.mesh import Mesh, random_node_faults
from repro.mesh.faults import FaultSet
from repro.routing import repeated, xy, xyz
from repro.wormhole.chaos import FaultEvent, FaultSchedule
from repro.wormhole.deadlock import SimulationError
from repro.wormhole.network import VirtualNetwork
from repro.wormhole.packets import Hop
from repro.wormhole.simulator import WormholeSimulator, _flit_runs
from repro.wormhole.trace import Tracer

from sim_oracle import FlitKernelSimulator, ScanSimulator, park_keys_by_flit

SEEDS = range(200)


def _scenario(seed: int) -> Dict[str, object]:
    """A seeded scenario: simulator keyword arguments plus traffic."""
    rng = np.random.default_rng([seed, 26])
    if rng.random() < 0.7:
        w = int(rng.integers(4, 9))
        mesh = Mesh((w, int(rng.integers(4, 9))))
        orderings = repeated(xy(), 2)
    else:
        mesh = Mesh((3, int(rng.integers(3, 5)), int(rng.integers(3, 5))))
        orderings = repeated(xyz(), 2)
    faults = random_node_faults(
        mesh, int(rng.integers(0, mesh.num_nodes // 12 + 1)), rng
    )
    survivors = find_lamb_set(faults, orderings).survivors()
    kw: Dict[str, object] = {
        "buffer_flits": int(rng.integers(1, 5)),
        "seed": seed,
    }
    single_vc = rng.random() < 0.25
    if single_vc:
        kw.update(vc_of_round=lambda t: 0, num_vcs=1, policy="random")
    if not single_vc and len(survivors) > 6 and rng.random() < 0.35:
        picks = rng.choice(len(survivors), size=3, replace=False)
        kw["schedule"] = FaultSchedule([
            FaultEvent(int(rng.integers(2, 30)),
                       node_faults=[survivors[int(picks[0])]]),
            FaultEvent(int(rng.integers(30, 80)),
                       node_faults=[survivors[int(picks[1])],
                                    survivors[int(picks[2])]]),
        ])
    # One-VC scenarios get dense, long-worm bursts: the traffic that
    # closes wait-for cycles.
    long_worms = single_vc or rng.random() < 0.3
    count = int(rng.integers(20, 41) if single_vc else rng.integers(4, 26))
    window = 4 if single_vc else 25
    traffic: List[Tuple[Tuple[int, ...], Tuple[int, ...], int, int]] = []
    for _ in range(count):
        a, b = rng.choice(len(survivors), size=2, replace=False)
        flits = int(rng.integers(1, 65 if long_worms else 9))
        traffic.append((survivors[int(a)], survivors[int(b)], flits,
                        int(rng.integers(0, window))))
    return {"faults": faults, "orderings": orderings, "kw": kw,
            "traffic": traffic}


def _outcome(cls, scenario, traced=True) -> Tuple[object, ...]:
    tracer = Tracer() if traced else None
    sim = cls(scenario["faults"], scenario["orderings"], tracer=tracer,
              **scenario["kw"])
    for src, dst, flits, when in scenario["traffic"]:
        sim.send(src, dst, flits, when)
    try:
        sim.run(max_cycles=1200)
        error = None
    except SimulationError as exc:
        error = (type(exc).__name__, str(exc))
    fates = [(m.msg_id, m.deliver_cycle, m.abort_reason, m.attempts,
              m.delivered_flits, tuple(m.flit_pos))
             for m in sim.messages.values()]
    return (error, sim.cycle, fates, (sim.park_events, sim.wake_events),
            tracer.events if traced else None)


def test_scenarios_cover_the_families():
    """The generated seeds reach every family the kernel must match
    on: 3D meshes, live faults, one-flit buffers, worms longer than
    their route and broken VC disciplines that deadlock."""
    seen = {"3d": 0, "live": 0, "buffer-1": 0, "single-vc": 0, "long": 0}
    for seed in SEEDS:
        sc = _scenario(seed)
        kw = sc["kw"]
        seen["3d"] += sc["faults"].mesh.d == 3
        seen["live"] += "schedule" in kw
        seen["buffer-1"] += kw["buffer_flits"] == 1
        seen["single-vc"] += "num_vcs" in kw
        seen["long"] += max(t[2] for t in sc["traffic"]) > 16
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("chunk", range(8))
def test_run_kernel_matches_per_flit_oracles(chunk):
    deadlocks = 0
    for seed in SEEDS[chunk::8]:
        sc = _scenario(seed)
        got = _outcome(WormholeSimulator, sc)
        flit = _outcome(FlitKernelSimulator, sc)
        scan = _outcome(ScanSimulator, sc)
        assert got == flit, f"seed {seed}: run kernel != per-flit kernel"
        assert got[:3] + got[4:] == scan[:3] + scan[4:], (
            f"seed {seed}: frontier != full scan")
        # Without a tracer the kernel takes its untraced branches.
        bare = _outcome(WormholeSimulator, sc, traced=False)
        assert bare[:4] == got[:4], f"seed {seed}: untraced run differs"
        deadlocks += got[0] is not None and got[0][0] == "DeadlockError"
    assert deadlocks >= 1


class _ParkChecked(WormholeSimulator):
    """The production simulator, checking every park walk against the
    per-flit one on the same state."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.walks = self.parked_walks = 0

    def _park_keys(self, m):
        keys = super()._park_keys(m)
        assert keys == park_keys_by_flit(self, m), (
            f"cycle {self.cycle}, message {m.msg_id}: {m.flit_pos}")
        self.walks += 1
        self.parked_walks += keys is not None
        return keys


def test_park_walk_by_runs_matches_the_per_flit_walk():
    """For every zero-move visit in the corpus, the run walk returns
    the per-flit walk's list, in the same order (or both return
    None)."""
    walks = parked = 0
    for seed in SEEDS:
        sc = _scenario(seed)
        sim = _ParkChecked(sc["faults"], sc["orderings"], **sc["kw"])
        for src, dst, flits, when in sc["traffic"]:
            sim.send(src, dst, flits, when)
        try:
            sim.run(max_cycles=1200)
        except SimulationError:
            pass
        walks += sim.walks
        parked += sim.parked_walks
    # 37,767 walks, 36,973 of them parking, at the time of writing.
    assert parked > 10000 and walks > parked, (walks, parked)


@pytest.mark.parametrize("buffer_flits, fp, stragglers, want", [
    # Hop 2's flits behind a straggler-full gap at hop 3, the queue
    # behind a straggler-full hop 0.
    (2, [4, 4, 2, 2, -1, -1], {3: 2, 0: 2}, [5, 3, 0]),
    # Full buffers, no gap, then a gap at hop 1 before the queue.
    (2, [4, 4, 3, 3, 2, 2, -1], {1: 2, 0: 2}, [5, 4, 3, 0]),
    # One-flit buffers: every flit waits on the one ahead.
    (1, [4, 3, 2, 1], {}, [5, 4, 3, 2]),
    # A gap with room, or a hop 0 with room: the walk stays runnable.
    (2, [4, 4, 2, 2, -1, -1], {3: 1, 0: 2}, None),
    (2, [4, 4, 3, 3, -1], {0: 1}, None),
])
def test_park_walk_on_hand_built_worms(buffer_flits, fp, stragglers, want):
    """A worm whose head waits on a hop another message holds parks on
    that hop and on the buffer ahead of each of its other buffers'
    front flits (and of the queue's), in flit order, whatever gaps lie
    between: the same list as the per-flit walk."""
    sim = WormholeSimulator(FaultSet(Mesh((8, 2))), repeated(xy(), 2),
                            buffer_flits=buffer_flits)
    m = sim.send((0, 0), (6, 0), len(fp))
    m.flit_pos = list(fp)
    ids, net = m.hop_ids, sim.net
    for q in range(max(fp[-1] + 1, 0), fp[0] + 1):
        net.owners[ids[q]] = m.msg_id
    net.owners[ids[fp[0] + 1]] = m.msg_id + 1  # the head's blocker
    for pos in fp:
        if pos >= 0:
            net.occupancy[ids[pos]] += 1
    for q, n in stragglers.items():
        net.occupancy[ids[q]] += n
    m.runs, m.runs_of = _flit_runs(m.flit_pos, 0), m.flit_pos
    got = sim._park_keys(m)
    assert got == park_keys_by_flit(sim, m)
    assert got == (None if want is None else [ids[q] for q in want])


def test_runs_are_derived_from_flit_pos():
    """The incrementally updated run list equals the one rebuilt from
    ``flit_pos`` after every cycle, and replacing ``flit_pos`` (with an
    equal copy, every seventh cycle) changes nothing: the kernel
    rebuilds the runs from the new list."""
    for seed in (3, 11, 19, 40):
        sc = _scenario(seed)
        sims = []
        for _ in range(2):
            sim = WormholeSimulator(sc["faults"], sc["orderings"],
                                    **sc["kw"])
            for src, dst, flits, when in sc["traffic"]:
                sim.send(src, dst, flits, when)
            sims.append(sim)
        plain, copied = sims
        checked = 0
        while not plain._drained() and plain.cycle < 500:
            try:
                moved = plain.step()
            except SimulationError:
                break
            if copied.cycle % 7 == 0:
                for m in copied.messages.values():
                    m.flit_pos = list(m.flit_pos)
            assert copied.step() == moved
            for m in plain.messages.values():
                if m.runs_of is m.flit_pos:  # visited since its last retry
                    assert m.runs == _flit_runs(m.flit_pos,
                                                m.delivered_flits)
                    checked += 1
        assert checked
        assert ([m.flit_pos for m in plain.messages.values()]
                == [m.flit_pos for m in copied.messages.values()])


@pytest.mark.parametrize("buffer_flits, fp, stragglers", [
    # Hop 3's buffer full of another worm's flits: a gap the flits at
    # hop 2 wait behind, while the queue enters hop 0's free buffer.
    (2, [4, 4, 2, 2, -1, -1], {3: 2}),
    # The queue waits behind a full hop-0 buffer, three hops behind
    # the worm.
    (2, [4, 3, -1, -1], {0: 2}),
    # Gaps with room: the flit behind moves in.
    (2, [3, 1, 1, -1], {2: 1}),
    (3, [4, 4, 4, 2, 1, 1, -1], {3: 2}),
])
def test_hand_built_gaps_match_the_per_flit_kernel(buffer_flits, fp,
                                                   stragglers):
    """Simulated traffic never leaves a gap inside a worm (a buffer's
    stragglers only drain once its new owner has entered it), but the
    kernel takes any ``flit_pos``: a worm placed by hand around other
    worms' straggling flits moves exactly as under the per-flit
    kernel, before and after the stragglers drain at cycle 3, and its
    park walk returns the per-flit walk's list at every blocked visit."""
    runs = []
    for cls in (_ParkChecked, FlitKernelSimulator):
        tracer = Tracer()
        sim = cls(FaultSet(Mesh((8, 2))), repeated(xy(), 2),
                  buffer_flits=buffer_flits, tracer=tracer)
        m = sim.send((0, 0), (6, 0), len(fp))
        m.flit_pos = list(fp)
        ids, net = m.hop_ids, sim.net
        for q in range(max(fp[-1] + 1, 0), fp[0] + 1):
            net.owners[ids[q]] = m.msg_id  # hops the worm spans
        for pos in fp:
            if pos >= 0:
                net.occupancy[ids[pos]] += 1
        for q, n in stragglers.items():
            net.occupancy[ids[q]] += n
        states = []
        while m.deliver_cycle is None and sim.cycle < 40:
            if sim.cycle == 3:
                for q, n in stragglers.items():
                    net.occupancy[ids[q]] -= n
            sim.step()
            states.append((tuple(m.flit_pos), m.delivered_flits,
                           [net.occupancy[r] for r in ids],
                           [net.owners[r] for r in ids]))
        runs.append((states, tracer.events))
    assert runs[0] == runs[1]
    assert runs[0][0][-1][1] == len(fp)  # delivered


def test_flit_runs_gaps_and_queue():
    # Flits 0-1 delivered at hop 5; 2-3 in hop 3; a straggler-filled
    # gap at hop 2; 4 in hop 1; 5 queued.
    assert _flit_runs([5, 5, 3, 3, 1, -1], 2) == [[2, 1], [0, 1], [1, 1]]
    assert _flit_runs([4, 3, 2, 2, 1, 0], 0) == [[1, 2], [2, 1], [1, 2]]
    assert _flit_runs([-1, -1], 0) == []


def test_admit_route_rejects_a_repeated_resource():
    mesh = Mesh((4, 4))
    net = VirtualNetwork(FaultSet(mesh), num_vcs=1)
    loop = [Hop((0, 0), (1, 0), 0), Hop((1, 0), (1, 1), 0),
            Hop((1, 1), (0, 1), 0), Hop((0, 1), (0, 0), 0),
            Hop((0, 0), (1, 0), 0)]
    with pytest.raises(ValueError, match="twice"):
        net.admit_route(loop)
    # The same physical link on another VC is another resource.
    net2 = VirtualNetwork(FaultSet(mesh), num_vcs=2)
    assert len(set(net2.admit_route(
        loop[:4] + [Hop((0, 0), (1, 0), 1)]))) == 5
    sim = WormholeSimulator(FaultSet(mesh), repeated(xy(), 2), num_vcs=1,
                            vc_of_round=lambda t: 0)
    with pytest.raises(ValueError, match="twice"):
        sim.send((0, 0), (1, 0), hops=loop)
