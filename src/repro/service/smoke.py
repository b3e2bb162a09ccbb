"""End-to-end control-plane smoke scenario (the acceptance script).

One process, real TCP on an ephemeral localhost port:

1. start a server for a seeded faulty mesh and compile the base config;
2. issue a batch of route queries from the client;
3. re-issue the identical compile and read the cache counters through
   the ``stats`` RPC;
4. apply a mid-run fault delta;
5. query against the superseded epoch;
6. drain gracefully.

The scenario only emits one fact line per step.  Every line is
deterministic for a fixed seed (no wall-clock values), so
``repro smoke serve`` runs the scenario twice, diffs the transcripts
to prove determinism, and then checks the facts as typed expectations
(:func:`repro.smoke._expect_serve`).
"""

from __future__ import annotations

import asyncio
from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..mesh.faults import FaultSet, random_node_faults
from ..mesh.geometry import Mesh, Node
from ..routing.ordering import ascending, repeated
from .client import RouteQueryClient, raise_typed
from .compiler import ReconfigurationCompiler
from .server import RouteQueryServer
from .store import ArtifactStore

__all__ = ["serve_smoke"]


def _pick_pairs(
    faults: FaultSet,
    excluded: Sequence[Sequence[int]],
    count: int,
    rng: np.random.Generator,
) -> List[Tuple[Node, Node]]:
    """Deterministic survivor pairs for query traffic (``excluded``
    covers lambs and quarantined nodes)."""
    lamb_set = {tuple(int(x) for x in v) for v in excluded}
    survivors = [
        v
        for v in faults.mesh.nodes()
        if not faults.node_is_faulty(v) and v not in lamb_set
    ]
    pairs: List[Tuple[Node, Node]] = []
    while len(pairs) < count:
        i = int(rng.integers(len(survivors)))
        j = int(rng.integers(len(survivors)))
        if i != j:
            pairs.append((survivors[i], survivors[j]))
    return pairs


async def _smoke(
    faults: FaultSet,
    rounds: int,
    queries: int,
    seed: int,
    verify: bool,
    emit: Callable[[str], None],
) -> None:
    mesh = faults.mesh
    orderings = repeated(ascending(mesh.d), rounds)
    compiler = ReconfigurationCompiler(
        mesh,
        orderings,
        store=ArtifactStore(),
        verify=verify,
    )
    server = RouteQueryServer(compiler)
    host, port = await server.start()
    client = await RouteQueryClient.connect(host, port, default_timeout=60.0)
    rng = np.random.default_rng(seed)

    # 1. Base compile (a miss: the store is cold).
    compiled = await client.compile(faults, timeout=120.0)
    emit(
        f"compile: digest {compiled['digest'][:12]} epoch "
        f"{compiled['epoch']} lambs {compiled['lambs']} "
        f"survivors {compiled['survivors']} cache_hit "
        f"{compiled['cache_hit']}"
    )
    epoch0 = int(compiled["epoch"])

    # 2. Route-query traffic, pipelined in batches.
    pairs = _pick_pairs(
        faults,
        list(compiled["lamb_nodes"]) + list(compiled["quarantined"]),
        queries,
        rng,
    )
    lambs_reply = await client.query(
        pairs[0][0], pairs[0][1], epoch=epoch0, timeout=60.0
    )
    ok = 1 if lambs_reply else 0
    hops = int(lambs_reply["hops"])
    batch = 100
    for at in range(1, len(pairs), batch):
        replies = await client.query_batch(
            pairs[at:at + batch], epoch=epoch0, timeout=60.0
        )
        for reply in replies:
            raise_typed(reply)
            ok += 1
            hops += int(reply["hops"])
    emit(f"queries: {ok}/{queries} resolved, total hops {hops}")

    # 3. Identical compile again: a cache hit on the same epoch.
    again = await client.compile(faults, timeout=120.0)
    stats = (await client.stats())["stats"]
    emit(
        f"recompile: cache_hit {again['cache_hit']} "
        f"(source {again['source']}) epoch {again['epoch']} | "
        f"stats hits {stats['cache']['hits']} "
        f"misses {stats['cache']['misses']}"
    )

    # 4. Mid-run fault delta: kill a surviving node.
    victim = pairs[0][0]
    deltad = await client.delta(node_faults=[victim], timeout=120.0)
    emit(
        f"delta: +1 node fault -> epoch {deltad['epoch']} "
        f"(incremental {deltad['incremental']}, cache_hit "
        f"{deltad['cache_hit']}) faults {deltad['faults']} "
        f"lambs {deltad['lambs']}"
    )

    # 5. Querying the superseded epoch: a typed refusal.
    safe = next(
        p for p in pairs[1:]
        if p[0] != victim and p[1] != victim
    )
    stale = await client.query_batch([safe], epoch=epoch0, timeout=60.0)
    err = stale[0].get("error") or {}
    data = err.get("data") or {}
    emit(
        f"stale query: typed {err.get('code')} "
        f"(requested {data.get('requested')}, current {data.get('current')})"
    )

    # 6. Graceful drain.
    await client.shutdown(timeout=60.0)
    await client.close()
    await server.serve_until_shutdown()
    emit(
        f"drain: orphaned compiles {server.orphaned_compiles} "
        f"epoch {compiler.current_epoch}"
    )


def serve_smoke(
    faults: FaultSet,
    rounds: int = 2,
    queries: int = 1000,
    seed: int = 0,
    verify: bool = False,
    emit: Callable[[str], None] = print,
) -> None:
    """Run the acceptance scenario, emitting its fact lines."""
    asyncio.run(
        _smoke(faults, rounds, queries, seed, verify, emit)
    )


def default_smoke_faults(seed: int = 4) -> FaultSet:
    """The acceptance config: a 16x16 mesh with 5 seeded faults.

    (Seed 4 is chosen so the config actually needs a nonempty lamb
    set — the smoke then exercises lamb exclusion on the query path,
    not just plain fault avoidance.)
    """
    mesh = Mesh((16, 16))
    return random_node_faults(mesh, 5, np.random.default_rng(seed))
