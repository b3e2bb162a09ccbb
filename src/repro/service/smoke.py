"""End-to-end control-plane smoke scenario (the acceptance script).

One process, real TCP on an ephemeral localhost port:

1. start a server for a seeded faulty mesh and compile the base config
   (cache miss);
2. issue a batch of route queries from the client;
3. re-issue the identical compile — must be a cache hit, verified via
   the ``stats`` RPC;
4. apply a mid-run fault delta — must trigger an incremental recompile
   and an epoch bump;
5. query against the superseded epoch — must come back as a typed
   ``stale-epoch`` reply;
6. drain gracefully — no orphaned compile tasks.

Every printed line is deterministic for a fixed seed (no wall-clock
values), so ``make serve-smoke`` runs the scenario twice and diffs the
transcripts to prove determinism.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..mesh.faults import FaultSet, random_node_faults
from ..mesh.geometry import Mesh, Node
from ..routing.ordering import ascending, repeated
from .client import RouteQueryClient, raise_typed
from .compiler import ReconfigurationCompiler
from .errors import StaleEpochError, from_wire
from .loadgen import LoadgenConfig, run_loadgen
from .server import RouteQueryServer
from .shard import ShardRouter
from .store import ArtifactStore

__all__ = ["serve_smoke", "shard_smoke"]


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
) -> int:
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
    failures = 0

    # 1. Base compile (must be a miss: the store is cold).
    compiled = await client.compile(faults, timeout=120.0)
    emit(
        f"compile: digest {compiled['digest'][:12]} epoch "
        f"{compiled['epoch']} lambs {compiled['lambs']} "
        f"survivors {compiled['survivors']} cache_hit "
        f"{compiled['cache_hit']}"
    )
    if compiled["cache_hit"]:
        emit("FAIL: first compile reported a cache hit")
        failures += 1
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

    # 3. Identical compile again: must hit the cache.
    again = await client.compile(faults, timeout=120.0)
    stats = (await client.stats())["stats"]
    emit(
        f"recompile: cache_hit {again['cache_hit']} "
        f"(source {again['source']}) epoch {again['epoch']} | "
        f"stats hits {stats['cache']['hits']} "
        f"misses {stats['cache']['misses']}"
    )
    if not again["cache_hit"] or stats["cache"]["hits"] < 1:
        emit("FAIL: identical compile was not served from the cache")
        failures += 1
    if int(again["epoch"]) != epoch0:
        emit("FAIL: cache-hit compile must not bump the epoch")
        failures += 1

    # 4. Mid-run fault delta: kill a surviving node.
    victim = pairs[0][0]
    deltad = await client.delta(node_faults=[victim], timeout=120.0)
    emit(
        f"delta: +1 node fault -> epoch {deltad['epoch']} "
        f"(incremental {deltad['incremental']}, cache_hit "
        f"{deltad['cache_hit']}) faults {deltad['faults']} "
        f"lambs {deltad['lambs']}"
    )
    if int(deltad["epoch"]) == epoch0:
        emit("FAIL: fault delta did not bump the epoch")
        failures += 1

    # 5. Querying the superseded epoch must be refused, typed.
    safe = next(
        p for p in pairs[1:]
        if p[0] != victim and p[1] != victim
    )
    stale = await client.query_batch([safe], epoch=epoch0, timeout=60.0)
    err = stale[0].get("error") or {}
    typed = from_wire(err) if not stale[0].get("ok") else None
    if isinstance(typed, StaleEpochError):
        emit(
            f"stale query: typed {err.get('code')} "
            f"(requested {typed.requested}, current {typed.current})"
        )
    else:
        emit(f"FAIL: stale-epoch query got {stale[0]!r}")
        failures += 1

    # 6. Graceful drain.
    await client.shutdown(timeout=60.0)
    await client.close()
    await server.serve_until_shutdown()
    emit(
        f"drain: orphaned compiles {server.orphaned_compiles} "
        f"epoch {compiler.current_epoch}"
    )
    if server.orphaned_compiles:
        emit("FAIL: drain left orphaned compile tasks")
        failures += 1
    emit("smoke FAILED" if failures else "smoke OK")
    return 1 if failures else 0


def serve_smoke(
    faults: FaultSet,
    rounds: int = 2,
    queries: int = 1000,
    seed: int = 0,
    verify: bool = False,
    emit: Callable[[str], None] = print,
) -> int:
    """Run the acceptance scenario; returns a process exit code."""
    return asyncio.run(
        _smoke(faults, rounds, queries, seed, verify, emit)
    )


async def _shard_smoke(
    num_shards: int, emit: Callable[[str], None]
) -> int:
    """Shard-plane acceptance scenario (run twice and diffed by
    ``make shard-smoke``):

    1. start 1 router + ``num_shards`` workers over a shared store;
    2. run a mixed query/delta loadgen campaign (binary codec, two
       connections) and print its deterministic snapshot;
    3. run a second campaign and SIGKILL one worker as soon as its
       traffic is flowing — every reply must still arrive (reads
       retry on surviving replicas, so nothing is lost);
    4. wait for the respawn to replay the mutation log and rejoin;
    5. prove epoch equality across replicas by cycling an
       epoch-pinned query through the read rotation.
    """
    failures = 0
    router = ShardRouter(dims=(16, 16), rounds=2, num_shards=num_shards)
    host, port = await router.start()
    emit(f"shard plane: {num_shards} workers behind 1 router")

    def campaign(seed: int, delta_offset: int) -> LoadgenConfig:
        return LoadgenConfig(
            host=host, port=port, codec="binary", connections=2,
            batches=6, batch_size=50, warmup_batches=1, delta_every=3,
            delta_offset=delta_offset, seed=seed,
        )

    report1 = await run_loadgen(campaign(seed=0, delta_offset=0))
    emit("loadgen[1]: " + json.dumps(report1["snapshot"], sort_keys=True))
    if report1["snapshot"]["ok"] != report1["snapshot"]["queries"]:
        emit("FAIL: campaign 1 lost replies")
        failures += 1

    killed = [False]

    def chaos(batch_index: int) -> None:
        # Kill against *traffic progress*, not the wall clock: the
        # first completed measured batch proves the plane is serving,
        # then one worker dies mid-campaign.
        if not killed[0]:
            killed[0] = True
            router.kill_worker(1)

    report2 = await run_loadgen(
        campaign(seed=1, delta_offset=1), progress=chaos
    )
    emit("loadgen[2]: " + json.dumps(report2["snapshot"], sort_keys=True))
    if report2["snapshot"]["ok"] != report2["snapshot"]["queries"]:
        emit("FAIL: replies were lost across the worker kill")
        failures += 1

    client = await router.client(codec="binary")
    stats = (await client.request("router_stats"))["router"]
    deadline = asyncio.get_running_loop().time() + 60.0
    while (
        stats["in_sync"] < num_shards
        and asyncio.get_running_loop().time() < deadline
    ):
        await asyncio.sleep(0.25)
        stats = (await client.request("router_stats"))["router"]
    emit(
        f"recovery: respawns {stats['respawns']} in_sync "
        f"{stats['in_sync']}/{stats['shards']} epoch_divergences "
        f"{stats['epoch_divergences']}"
    )
    if stats["in_sync"] != num_shards or stats["respawns"] != 1:
        emit("FAIL: the killed worker did not rejoin the rotation")
        failures += 1

    # Epoch-pinned queries must hold on *every* replica: cycle the
    # read rotation at least twice around.  The probe pair comes from
    # the loadgen's query pool, so it survives every delta either
    # campaign issued.
    src, dst = report2["probe"]
    epoch = int((await client.ping())["epoch"])
    pinned_ok = 0
    for _ in range(2 * num_shards):
        reply = await client.query(tuple(src), tuple(dst), epoch=epoch)
        pinned_ok += 1 if reply.get("ok") else 0
    emit(
        f"epochs: pinned epoch {epoch} resolved on "
        f"{pinned_ok}/{2 * num_shards} rotations"
    )
    if pinned_ok != 2 * num_shards:
        emit("FAIL: replicas diverged on the reconfiguration epoch")
        failures += 1

    await client.close()
    await router.stop()
    emit("smoke FAILED" if failures else "smoke OK")
    return 1 if failures else 0


def shard_smoke(
    num_shards: int = 3, emit: Callable[[str], None] = print
) -> int:
    """Run the sharded-plane acceptance scenario; returns an exit
    code."""
    return asyncio.run(_shard_smoke(num_shards, emit))


def default_smoke_faults(seed: int = 4) -> FaultSet:
    """The acceptance config: a 16x16 mesh with 5 seeded faults.

    (Seed 4 is chosen so the config actually needs a nonempty lamb
    set — the smoke then exercises lamb exclusion on the query path,
    not just plain fault avoidance.)
    """
    mesh = Mesh((16, 16))
    return random_node_faults(mesh, 5, np.random.default_rng(seed))
