"""Parity of route materialization against the whole-mesh flood.

``repro.routing.find_k_round_routes`` picks the intermediates of a
whole batch of pairs from Lamb1's rectangles in array form, and
``find_k_round_route`` is its one-pair call; ``tests/route_oracle.py``
floods the grid.  On seeded scenarios both must return the same routes
as the flood for every pair and policy, and consume the same rng
draws: one generator per side is shared across the whole pair
sequence, so a single extra or missing draw shifts every later pick.

The closed-form route entries (``repro.core.routing_table.route_entry``)
must equal the hops, turns and rounds of the walked paths.

The last test carries Theorem 6.8 to the route layer: at fixed f, a
route (and a batch of routes) costs the same on M2(2^8) and M2(2^16),
and no dense grid is built.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import build_reach_index, find_lamb_set
from repro.core.routing_table import route_entry
from repro.mesh import FaultSet, Mesh
from repro.mesh.faults import random_link_faults
from repro.mesh.patterns import (
    clustered_faults,
    dust_and_clusters,
    partial_plane_faults,
)
from repro.routing import (
    FaultGrids,
    KRoundOrdering,
    Ordering,
    count_turns_multiround,
    find_k_round_route,
    find_k_round_routes,
    repeated,
    xy,
    xyz,
)

from route_oracle import find_k_round_route as flood_route

POLICIES = ("shortest", "first", "random")
YX = Ordering((1, 0))


def _dust_2d():
    mesh = Mesh((20, 20))
    rng = np.random.default_rng(11)
    return dust_and_clusters(mesh, 10, 3, 5, rng), repeated(xy(), 2)


def _clusters_3d():
    mesh = Mesh((8, 8, 8))
    rng = np.random.default_rng(12)
    return clustered_faults(mesh, 24, 4, rng), repeated(xyz(), 2)


def _plane_3d():
    mesh = Mesh((7, 7, 7))
    rng = np.random.default_rng(13)
    return partial_plane_faults(mesh, 2, 3, 0.4, rng), repeated(xyz(), 2)


def _links_mixed():
    """Directed link faults plus node clusters, routed xy then yx."""
    mesh = Mesh((14, 14))
    rng = np.random.default_rng(14)
    nodes = clustered_faults(mesh, 8, 4, rng)
    links = random_link_faults(mesh, 30, rng)
    faults = nodes.with_faults((), links.link_faults)
    return faults, KRoundOrdering([xy(), YX])


def _k3_mixed():
    mesh = Mesh((12, 12))
    rng = np.random.default_rng(15)
    faults = dust_and_clusters(mesh, 6, 2, 4, rng)
    links = random_link_faults(mesh, 10, rng)
    return faults.with_faults((), links.link_faults), KRoundOrdering(
        [xy(), YX, xy()]
    )


def _walled_in():
    """(3, 3) is walled in by faulty neighbours: unreachable pairs."""
    mesh = Mesh((6, 6))
    faults = FaultSet(mesh, [(2, 3), (3, 2), (4, 3), (3, 4), (0, 5)])
    return faults, repeated(xy(), 2)


SCENARIOS = {
    "dust_2d": _dust_2d,
    "clusters_3d": _clusters_3d,
    "plane_3d": _plane_3d,
    "links_xy_yx": _links_mixed,
    "k3_xy_yx_xy": _k3_mixed,
    "walled_in": _walled_in,
}


def _pairs(mesh, count, seed):
    """Mesh-node pairs (faulty endpoints included) plus v == w pairs."""
    rng = np.random.default_rng(seed)
    widths = np.asarray(mesh.widths)
    ends = [
        tuple(int(x) for x in rng.integers(0, widths)) for _ in range(2 * count)
    ]
    pairs = list(zip(ends[::2], ends[1::2]))
    return pairs + [(v, v) for v in ends[:4]]


def _compare(index, faults, orderings, pairs, policy, seed=3):
    grids = FaultGrids(faults)
    fast_rng = np.random.default_rng(seed)
    flood_rng = np.random.default_rng(seed)
    routes = []
    for v, w in pairs:
        fast = find_k_round_route(index, v, w, policy=policy, rng=fast_rng)
        slow = flood_route(grids, orderings, v, w, policy=policy, rng=flood_rng)
        assert fast == slow, (v, w, policy)
        routes.append(fast)
    # Same number of draws consumed: the next draws agree.
    assert fast_rng.integers(2**62) == flood_rng.integers(2**62)
    return routes


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fast_path_equals_flood(name, policy):
    faults, orderings = SCENARIOS[name]()
    index = build_reach_index(faults, orderings)
    pairs = _pairs(faults.mesh, 40, seed=len(name))
    routes = _compare(index, faults, orderings, pairs, policy)
    faulty = [
        any(faults.node_is_faulty(x) for x in pair) for pair in pairs
    ]
    assert all(r is None for r, bad in zip(routes, faulty) if bad)
    assert any(faulty), "scenario must exercise faulty endpoints"
    if policy == "shortest":  # the goal is feasible, so it stays put
        for (v, w), r in zip(pairs, routes):
            if v == w and r is not None:
                assert all(p == [v] for p in r)


def _batch_pairs(faults, result, count, seed):
    """A batch that repeats pairs and holds ``v == w``, faulty and lamb
    endpoints."""
    pairs = _pairs(faults.mesh, count, seed)
    rng = np.random.default_rng(seed + 1)
    pairs += [pairs[int(i)] for i in rng.integers(len(pairs), size=8)]
    lambs = sorted(result.lambs)[:3]
    for lamb in lambs:
        pairs += [(lamb, pairs[0][1]), (pairs[1][0], lamb), (lamb, lamb)]
    order = rng.permutation(len(pairs))
    return [pairs[int(i)] for i in order], lambs


def _flood_mids(grids, orderings, pairs, policy, rng):
    mids = []
    for v, w in pairs:
        paths = flood_route(grids, orderings, v, w, policy=policy, rng=rng)
        mids.append(None if paths is None
                    else tuple(p[-1] for p in paths[:-1]))
    return mids


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_batch_equals_flood(name, policy):
    """One ``find_k_round_routes`` call over the whole pair list routes
    every pair as the flood does, pair by pair, with the same draws."""
    faults, orderings = SCENARIOS[name]()
    result = find_lamb_set(faults, orderings)
    pairs, lambs = _batch_pairs(faults, result, 40, seed=len(name))
    fast_rng = np.random.default_rng(3)
    flood_rng = np.random.default_rng(3)
    batch = find_k_round_routes(result.reach_index, pairs, policy, fast_rng)
    assert batch == _flood_mids(
        FaultGrids(faults), orderings, pairs, policy, flood_rng
    )
    assert fast_rng.integers(2**62) == flood_rng.integers(2**62)
    # The one-pair reachability test, no draw, agrees pair by pair.
    assert [result.reach_index.reaches(v, w) for v, w in pairs] == [
        r is not None for r in batch
    ]
    assert len(set(pairs)) < len(pairs)
    assert any(v == w for v, w in pairs)
    assert any(faults.node_is_faulty(x) for pair in pairs for x in pair)
    if lambs:
        assert any(r is not None and lambs[0] in pair
                   for pair, r in zip(pairs, batch))


def test_batch_of_nothing_and_of_faulty_pairs():
    faults, orderings = _walled_in()
    index = build_reach_index(faults, orderings)
    rng = np.random.default_rng(5)
    assert find_k_round_routes(index, [], rng=rng) == []
    bad = [((2, 3), (0, 0)), ((0, 0), (3, 2)), ((3, 3), (0, 0))]
    assert find_k_round_routes(index, bad, rng=rng) == [None] * 3
    assert not any(index.reaches(v, w) for v, w in bad)
    assert not index.reaches((0, 0, 0), (0, 1))  # wrong arity
    assert rng.integers(2**62) == np.random.default_rng(5).integers(2**62)
    with pytest.raises(ValueError, match="unknown policy"):
        find_k_round_routes(index, bad, policy="bogus")


#: The entry corpus: every parity scenario routed in 1, 2 and 3 rounds.
_ROUNDS = {1: [xy()], 2: [xy(), YX], 3: [xy(), YX, xy()]}


@pytest.mark.parametrize("k", sorted(_ROUNDS))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_closed_form_entries_equal_walked_paths(name, k):
    """``route_entry``'s hops, turns and rounds_used equal those of the
    walked ``dor_path`` rounds (``count_turns_multiround``), including
    routes whose later rounds collapse to no-ops."""
    faults, orderings = SCENARIOS[name]()
    pis = _ROUNDS[k] if faults.mesh.d == 2 else [xyz()] * k
    orderings = KRoundOrdering(pis)
    index = build_reach_index(faults, orderings)
    pairs = _pairs(faults.mesh, 40, seed=k)
    collapsed = 0
    for policy in POLICIES:
        rng = np.random.default_rng(k)
        for v, w in pairs:
            paths = find_k_round_route(index, v, w, policy=policy, rng=rng)
            if paths is None:
                continue
            mids = tuple(p[-1] for p in paths[:-1])
            entry = route_entry(orderings, v, w, mids)
            moving = [t for t, p in enumerate(paths) if len(p) > 1]
            assert entry.intermediates == mids
            assert entry.hops == sum(len(p) - 1 for p in paths)
            assert entry.turns == count_turns_multiround(paths)
            assert entry.rounds_used == (moving[-1] + 1 if moving else 1)
            collapsed += len(paths) - 1 > len(moving)
    if k > 1:
        assert collapsed, "corpus must hold routes with no-op rounds"


def test_unreachable_pairs_match():
    faults, orderings = _walled_in()
    index = build_reach_index(faults, orderings)
    pairs = [((0, 0), (3, 3)), ((3, 3), (0, 0)), ((3, 3), (3, 3))]
    pairs += [((x, y), (3, 3)) for x in range(6) for y in range(6)]
    for policy in POLICIES:
        routes = _compare(index, faults, orderings, pairs, policy)
        assert routes[0] is None and routes[1] is None
        assert routes[2] is not None


def test_predetermined_lambs_serve_as_intermediates():
    """Predetermined lambs leave every SES/DES weight but stay good
    nodes, so routes may turn at them — the index from a lamb run
    with predetermined lambs routes exactly like the flood."""
    mesh = Mesh((12, 12))
    faults = FaultSet(mesh, [(9, 1), (11, 6), (10, 10), (4, 7)])
    orderings = repeated(xy(), 2)
    predetermined = [(0, 0), (0, 1), (5, 5)]
    result = find_lamb_set(faults, orderings, predetermined=predetermined)
    assert set(predetermined) <= result.lambs
    pairs = _pairs(mesh, 60, seed=5)
    used = set()
    for policy in POLICIES:
        routes = _compare(result.reach_index, faults, orderings, pairs, policy)
        used.update(r[0][-1] for r in routes if r is not None)
    assert used & set(predetermined)


def _explicit_faults(width, count=60, seed=7):
    """``count`` distinct random node faults, drawn without ever
    listing the mesh's nodes."""
    rng = np.random.default_rng(seed)
    nodes = set()
    while len(nodes) < count:
        nodes.add(tuple(int(x) for x in rng.integers(0, width, size=2)))
    return FaultSet(Mesh.square(2, width), sorted(nodes))


def _near_pairs(faults, count=40, reach=4, seed=9):
    """Good pairs at L1 distance <= 2 * reach, so each route's paths
    have the same bounded size on any mesh."""
    rng = np.random.default_rng(seed)
    width = faults.mesh.widths[0]
    pairs = []
    while len(pairs) < count:
        v = rng.integers(reach, width - reach, size=2)
        w = v + rng.integers(-reach, reach + 1, size=2)
        v, w = tuple(int(x) for x in v), tuple(int(x) for x in w)
        if not (faults.node_is_faulty(v) or faults.node_is_faulty(w)):
            pairs.append((v, w))
    return pairs


def _best_route_seconds(index, pairs, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        for v, w in pairs:
            assert find_k_round_route(index, v, w, rng=rng) is not None
        best = min(best, time.perf_counter() - start)
    return best


def _best_batch_seconds(index, pairs, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        routes = find_k_round_routes(index, pairs, rng=rng)
        best = min(best, time.perf_counter() - start)
        assert None not in routes
    return best


def test_route_cost_independent_of_mesh_size(monkeypatch):
    """Theorem 6.8 at the route layer: at fixed f a route, and a batch
    of routes, costs the same on M2(2^8) and M2(2^16).  A flood is O(N)
    per route, 65536 times more work on the larger mesh; here building
    a ``FaultGrids`` at all raises."""

    def no_grids(self, faults):
        raise AssertionError("route materialization built a FaultGrids")

    monkeypatch.setattr(FaultGrids, "__init__", no_grids)
    orderings = repeated(xy(), 2)
    seconds, batch_seconds = [], []
    for width in (2**8, 2**16):
        faults = _explicit_faults(width)
        index = build_reach_index(faults, orderings)
        pairs = _near_pairs(faults)
        find_k_round_route(index, *pairs[0])  # builds the lazy corners
        seconds.append(_best_route_seconds(index, pairs))
        batch_seconds.append(_best_batch_seconds(index, pairs))
    t_small, t_large = seconds
    assert t_large <= 4 * t_small, (t_small, t_large)
    b_small, b_large = batch_seconds
    assert b_large <= 4 * b_small, (b_small, b_large)
