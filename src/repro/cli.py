"""Command-line interface.

``python -m repro <command>`` exposes the main entry points:

- ``lamb``        compute a lamb set for a (random or loaded) fault set
- ``partition``   show the SES/DES partitions for a fault set
- ``simulate``    push wormhole traffic through a reconfigured mesh
- ``chaos``       live-fault chaos run: mid-flight fault injection with
  rollback/reconfigure epochs and graceful degradation
- ``figure``      regenerate one of the paper's figures
- ``experiments`` regenerate EXPERIMENTS.md
- ``reconfigure`` replay fault epochs from a JSON script
- ``worked-example``  print the Section 5 artifacts (Tables 1-2, Λ)
- ``analyze``     run the domain lint suite over Python sources
- ``prove``       statically prove a routing configuration deadlock-free
  (channel-dependency-graph acyclicity)
- ``serve``       run the reconfiguration control plane (asyncio TCP
  route-query service with a content-addressed compile cache)
- ``query``       resolve routes / fetch stats from a running server
- ``stats``       run the seeded telemetry smoke and print the unified
  metrics registry (Prometheus / JSON / NDJSON)
- ``smoke``       run seeded end-to-end smokes (``repro smoke
  serve|obs|...``) twice each and check they agree and pass
- ``store``       artifact-store maintenance (``store gc`` LRU-evicts
  the disk tier down to a byte budget)

``simulate``, ``experiments``, ``serve`` and ``stats`` accept
``--telemetry PREFIX`` to write the process's telemetry registry to
``PREFIX.prom`` / ``PREFIX.ndjson`` / ``PREFIX.json`` on exit.

Examples
--------
::

    python -m repro lamb --mesh 32x32x32 --percent 3 --seed 1
    python -m repro lamb --mesh 16x16 --faults 10 --render --out state.json
    python -m repro partition --mesh 12x12 --fault 9,1 --fault 11,6 --fault 10,10
    python -m repro simulate --mesh 16x16 --faults 8 --messages 200
    python -m repro simulate --mesh 8x8 --messages 50 --inject-fault 30:4,4
    python -m repro chaos --mesh 8x8 --faults 2 --events 3 --seed 1
    python -m repro figure fig17 --trials 20
    python -m repro worked-example
    python -m repro analyze src/ tests/
    python -m repro prove --mesh 16x16 --faults 8 --rounds 2
    python -m repro serve --mesh 16x16 --faults 5 --seed 4 --port 7420
    python -m repro smoke serve obs
    python -m repro query --port 7420 --source 0,0 --dest 9,9
    python -m repro store gc --root /tmp/store --max-bytes 1000000
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _parse_mesh(text: str):
    from .mesh import Mesh, Torus

    torus = text.startswith("torus:")
    if torus:
        text = text[len("torus:"):]
    try:
        widths = tuple(int(part) for part in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad mesh spec {text!r}; use e.g. 32x32x32")
    cls = Torus if torus else Mesh
    return cls(widths)


def _parse_node(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad node {text!r}; use e.g. 9,1")


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mesh", type=_parse_mesh,
                   help="mesh spec, e.g. 32x32x32 or torus:8x8")
    p.add_argument("--faults", type=int, default=0,
                   help="number of random node faults")
    p.add_argument("--percent", type=float, default=None,
                   help="random node faults as %% of N, in (0, 100]")
    p.add_argument("--fault", type=_parse_node, action="append", default=[],
                   help="explicit faulty node (repeatable), e.g. --fault 9,1")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for random faults")
    p.add_argument("--load", type=str, default=None,
                   help="load a fault-set JSON instead")


def _check_fault_counts(parser: argparse.ArgumentParser, args) -> None:
    """Reject random-fault counts no mesh can hold as usage errors
    (exit 2) instead of tracebacks from the fault generators."""
    if not hasattr(args, "percent"):
        return  # the command takes no random-fault arguments
    if args.faults < 0:
        parser.error(f"argument --faults: must be >= 0, got {args.faults}")
    mesh = args.mesh
    if mesh is not None and args.faults > mesh.num_nodes:
        parser.error(f"argument --faults: {args.faults} exceeds the "
                     f"{mesh.num_nodes} nodes of {mesh}")
    if args.percent is not None and not 0 < args.percent <= 100:
        parser.error(f"argument --percent: must be in (0, 100], "
                     f"got {args.percent:g}")


def _build_faults(args):
    from .mesh import FaultSet, random_node_faults
    from .mesh.serialization import faults_from_dict, loads

    if args.load:
        with open(args.load) as fh:
            return faults_from_dict(loads(fh.read()))
    if args.mesh is None:
        raise SystemExit("either --mesh or --load is required")
    mesh = args.mesh
    explicit = list(args.fault)
    count = args.faults
    if args.percent:
        count = max(1, int(round(mesh.num_nodes * args.percent / 100.0)))
    if count and explicit:
        raise SystemExit("use either random faults or explicit --fault, not both")
    if count:
        return random_node_faults(mesh, count, np.random.default_rng(args.seed))
    return FaultSet(mesh, explicit)


def _orderings(args, d: int):
    from .routing import ascending, repeated

    return repeated(ascending(d), args.rounds)


def _export_telemetry(args) -> None:
    """Write the ambient registry to ``<prefix>.{prom,ndjson,json}``
    when the command was given ``--telemetry <prefix>``."""
    prefix = getattr(args, "telemetry", None)
    if not prefix:
        return
    from .obs import export_all, get_registry

    written = export_all(get_registry(), prefix)
    for fmt in sorted(written):
        print(f"telemetry: wrote {written[fmt]}")


def cmd_lamb(args) -> int:
    from .core import find_lamb_set, is_lamb_set
    from .mesh.serialization import dumps, lamb_outcome_to_dict

    faults = _build_faults(args)
    mesh = faults.mesh
    orderings = _orderings(args, mesh.d)
    result = find_lamb_set(faults, orderings, method=args.method)
    print(f"mesh {mesh} | faults {faults.f} | rounds {orderings.k}")
    print(f"SES/DES sets: {result.num_ses} / {result.num_des}")
    print(f"lambs: {result.size} "
          f"({100.0 * result.size / mesh.num_nodes:.3f}% of N, "
          f"additional damage {100.0 * result.additional_damage():.1f}%)")
    print("pipeline seconds: "
          + ", ".join(f"{k} {v:.3f}" for k, v in result.timings.items()))
    if args.show_lambs:
        for v in sorted(result.lambs):
            print(f"  lamb {v}")
    if args.render:
        from .viz import render_lambs

        print(render_lambs(faults, result.lambs), end="")
    if args.verify:
        ok = is_lamb_set(faults, orderings, result.lambs)
        print(f"definition-level verification: {'OK' if ok else 'FAILED'}")
        if not ok:
            return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dumps(lamb_outcome_to_dict(result)))
        print(f"wrote {args.out}")
    return 0


def cmd_partition(args) -> int:
    from .core import find_des_partition, find_ses_partition
    from .core.bounds import partition_size_bound
    from .routing import ascending

    faults = _build_faults(args)
    mesh = faults.mesh
    pi = ascending(mesh.d)
    ses = find_ses_partition(faults, pi)
    des = find_des_partition(faults, pi)
    bound = partition_size_bound(mesh.widths, faults.f)
    print(f"mesh {mesh} | faults {faults.f}")
    print(f"SES partition: {len(ses)} sets (Theorem 6.4 bound {bound})")
    print(f"DES partition: {len(des)} sets")
    if args.list:
        for r in ses:
            print(f"  SES {r.spec()}  size {r.size}  rep {r.lo}")
        for r in des:
            print(f"  DES {r.spec()}  size {r.size}  rep {r.lo}")
    if args.render:
        from .viz import render_partition

        print("SES partition:")
        print(render_partition(faults, ses), end="")
        print("DES partition:")
        print(render_partition(faults, des), end="")
    return 0


def cmd_simulate(args) -> int:
    from .core import find_lamb_set
    from .wormhole import FaultSchedule, WormholeSimulator, uniform_random_traffic

    faults = _build_faults(args)
    mesh = faults.mesh
    orderings = _orderings(args, mesh.d)
    result = find_lamb_set(faults, orderings)
    endpoints = [v for v in mesh.nodes() if result.is_survivor(v)]
    rng = np.random.default_rng(args.seed)
    schedule = (
        FaultSchedule.from_specs(args.inject_fault)
        if args.inject_fault
        else None
    )
    sim = WormholeSimulator(
        faults, orderings, buffer_flits=args.buffers, policy=args.policy,
        seed=args.seed, schedule=schedule,
    )
    for inj in uniform_random_traffic(
        endpoints, args.messages, rng, num_flits=args.flits,
        inject_window=args.window,
    ):
        sim.send(inj.source, inj.dest, inj.num_flits, inj.inject_cycle)
    stats = sim.run(max_cycles=args.max_cycles)
    print(f"mesh {mesh} | faults {faults.f} | lambs {result.size} | "
          f"survivors {len(endpoints)}")
    print(f"messages {stats.delivered}/{stats.total_messages} in "
          f"{stats.cycles} cycles")
    print(f"latency avg {stats.avg_latency:.1f}  p95 {stats.p95_latency:.1f}  "
          f"max {stats.max_latency}")
    print(f"throughput {stats.throughput_flits_per_cycle:.2f} flits/cycle  "
          f"avg hops {stats.avg_hops:.1f}  max turns {stats.max_turns}")
    if schedule is not None:
        print(f"live faults: {sim.fault_events_applied} event(s) applied  "
              f"retried-then-delivered {stats.retried_delivered}  "
              f"aborted {stats.aborted}")
        if stats.abort_reasons:
            print("abort reasons: "
                  + ", ".join(f"{r} x{n}" for r, n in stats.abort_reasons))
    _export_telemetry(args)
    return 0 if stats.all_accounted else 1


def cmd_chaos(args) -> int:
    from .wormhole import ChaosEngine, FaultSchedule

    faults = _build_faults(args)
    mesh = faults.mesh
    orderings = _orderings(args, mesh.d)
    rng = np.random.default_rng(args.seed)
    if args.inject_fault:
        schedule = FaultSchedule.from_specs(args.inject_fault)
    else:
        schedule = FaultSchedule.random(
            mesh, args.events, rng,
            cycle_span=(args.event_start, args.event_end),
            nodes_per_event=args.kills_per_event,
            links_per_event=args.link_kills_per_event,
            avoid=faults.node_faults,
        )
    engine = ChaosEngine(
        faults, orderings, schedule,
        lamb_budget=args.budget,
        max_extra_rounds=args.extra_rounds,
        buffer_flits=args.buffers,
        policy=args.policy,
        seed=args.seed,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
    )
    engine.load_uniform_traffic(
        args.messages, rng, num_flits=args.flits, inject_window=args.window
    )
    report = engine.run(max_cycles=args.max_cycles)
    print(f"mesh {mesh} | initial faults {faults.f} | "
          f"scheduled events {len(schedule)} ({schedule.total_faults} fault(s))")
    print(report.summary())
    s = report.stats
    print(f"latency avg {s.avg_latency:.1f} (incl. retries {s.avg_total_latency:.1f})"
          f"  cycles {s.cycles}")
    if not report.fully_accounted:
        print("WARNING: message accounting incomplete")
        return 1
    return 0


def cmd_figure(args) -> int:
    from .experiments import figures, render_sweep

    fn = getattr(figures, args.name, None)
    if fn is None or not args.name.startswith(("fig", "section")):
        raise SystemExit(
            f"unknown figure {args.name!r}; try fig17..fig26 or "
            "section3_one_vs_two_rounds"
        )
    result = fn(trials=args.trials, seed=args.seed)
    print(render_sweep(result), end="")
    return 0


def cmd_experiments(args) -> int:
    from .experiments.generate import ALL_SECTIONS, run_cli

    sections = args.section or None
    if sections is not None:
        unknown = set(sections) - set(ALL_SECTIONS)
        if unknown:
            raise SystemExit(
                f"unknown sections {sorted(unknown)}; "
                f"choose from {', '.join(ALL_SECTIONS)}"
            )
    rc = run_cli(args.out, seed=args.seed, sections=sections)
    _export_telemetry(args)
    return rc


def cmd_reconfigure(args) -> int:
    import json as _json

    from .core import ReconfigurationManager

    with open(args.script) as fh:
        spec = _json.load(fh)
    mesh = _parse_mesh(spec["mesh"])
    from .routing import ascending, repeated

    orderings = repeated(ascending(mesh.d), int(spec.get("rounds", 2)))
    mgr = ReconfigurationManager(
        mesh, orderings, sticky_lambs=bool(spec.get("sticky_lambs", True))
    )
    print(f"machine {mesh} | rounds {orderings.k} | "
          f"sticky lambs {mgr.sticky_lambs}")
    for spec_epoch in spec["epochs"]:
        epoch = mgr.report_faults(
            node_faults=[tuple(v) for v in spec_epoch.get("node_faults", [])],
            link_faults=[
                (tuple(u), tuple(w))
                for (u, w) in spec_epoch.get("link_faults", [])
            ],
        )
        print(f"epoch {epoch.index}: faults {epoch.num_faults} "
              f"lambs {epoch.num_lambs} survivors {epoch.num_survivors} "
              f"({epoch.result.timings['total'] * 1e3:.0f} ms)")
    if args.out and mgr.current is not None:
        from .mesh.serialization import dumps, lamb_outcome_to_dict

        with open(args.out, "w") as fh:
            fh.write(dumps(lamb_outcome_to_dict(mgr.current.result)))
        print(f"wrote {args.out}")
    return 0


def cmd_worked_example(args) -> int:
    from .experiments import render_matrix, worked_example
    from .viz import render_lambs, render_partition

    we = worked_example()
    print("Fig. 2 faults:", list(we.faults.node_faults))
    print("\nSES partition (Fig. 3):")
    print(render_partition(we.faults, we.ses, show_representatives=True), end="")
    print("\nDES partition (Fig. 4):")
    print(render_partition(we.faults, we.des, show_representatives=True), end="")
    print("\nTable 1 (R):")
    print(render_matrix(we.R), end="")
    print("\nTable 2 (R^(2)):")
    print(render_matrix(we.R2), end="")
    print("\nLamb set (Fig. 10):")
    print(render_lambs(we.faults, we.result.lambs), end="")
    print(f"\nmatches the paper exactly: {we.matches_paper()}")
    return 0


def cmd_analyze(args) -> int:
    import sys

    from .analysis.static.lint import LintEngine, format_violations
    from .analysis.static.rules import ALL_RULES, CONCURRENCY_RULES

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.name}")
            print(f"        {rule.description}")
        for rule_id, name, description in CONCURRENCY_RULES:
            print(f"{rule_id}  {name}")
            print(f"        {description}")
        return 0
    if not args.paths:
        raise SystemExit("give at least one file or directory to analyze")
    if args.concurrency:
        return _analyze_concurrency(args)
    engine = LintEngine()
    violations = engine.check_paths(args.paths)
    for warning in engine.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if violations:
        print(format_violations(violations, fmt=args.format))
    if args.format == "text":
        n = len(violations)
        print(f"{n} violation(s)" if n else "clean: no violations")
    return 1 if violations else 0


def _analyze_concurrency(args) -> int:
    """``repro analyze --concurrency``: the interprocedural REP2xx
    pass, with optional baseline gating and JSON artifact output."""
    import json as _json

    from .analysis.static.concurrency import (
        analyze_concurrency,
        apply_baseline,
        load_baseline,
    )

    report = analyze_concurrency(args.paths)
    if args.out:
        report.write_artifact(args.out)
    findings = list(report.findings)
    stale = []
    if args.baseline:
        entries = load_baseline(args.baseline)
        findings, stale = apply_baseline(findings, entries)
    if args.format == "json":
        payload = report.to_dict()
        payload["new_findings"] = [f.to_dict() for f in findings]
        payload["stale_suppressions"] = stale
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.describe())
        if args.baseline:
            print(
                f"baseline: {len(report.findings) - len(findings)} "
                f"suppressed, {len(findings)} new, {len(stale)} stale"
            )
            for f in findings:
                print(f"NEW {f.render()}")
            for entry in stale:
                print(
                    "STALE suppression "
                    f"{entry['rule']} {entry['path']} {entry['symbol']}"
                )
    failed = bool(findings) or bool(stale) or bool(report.cycles)
    return 1 if failed else 0


def cmd_prove(args) -> int:
    from .analysis.static import prove_deadlock_free

    faults = _build_faults(args)
    mesh = faults.mesh
    orderings = _orderings(args, mesh.d)
    vc_of_round = None
    num_vcs: Optional[int] = None
    if args.single_vc:
        vc_of_round = lambda t: 0  # noqa: E731
        num_vcs = 1
    report = prove_deadlock_free(
        faults, orderings, vc_of_round=vc_of_round, num_vcs=num_vcs
    )
    print(report.describe())
    if args.out:
        report.write_artifact(args.out)
        print(f"wrote {args.out}")
    return 0 if report.deadlock_free else 1


def cmd_serve(args) -> int:
    import asyncio
    import json as _json

    from .obs import get_registry
    from .routing import ascending, repeated
    from .service import ArtifactStore, ReconfigurationCompiler
    from .service.metrics import ServiceMetrics
    from .service.server import RouteQueryServer

    faults = _build_faults(args)
    mesh = faults.mesh
    orderings = repeated(ascending(mesh.d), args.rounds)
    compiler = ReconfigurationCompiler(
        mesh,
        orderings,
        store=ArtifactStore(root=args.store),
        # Publish the control-plane series into the ambient registry so
        # --telemetry exports one coherent snapshot for the process.
        metrics=ServiceMetrics(registry=get_registry()),
        method=args.method,
        policy=args.policy,
        verify=args.verify,
        lamb_budget=args.budget,
        max_extra_rounds=args.extra_rounds,
    )

    async def _run() -> int:
        server = RouteQueryServer(
            compiler, host=args.host, port=args.port,
            request_timeout=args.request_timeout,
        )
        host, port = await server.start()
        loop = asyncio.get_running_loop()
        artifact, source = await loop.run_in_executor(
            None, compiler.compile, faults
        )
        print(f"serving {mesh} on {host}:{port} | epoch {artifact.epoch} "
              f"digest {artifact.digest[:12]} ({source})")
        print(f"faults {faults.f} | lambs {artifact.num_lambs} | "
              f"survivors {artifact.num_survivors} | k {artifact.k}"
              + (" | DEGRADED" if artifact.degraded else ""))
        try:
            await server.serve_until_shutdown()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            await server.stop()
        print(f"drained: orphaned compiles {server.orphaned_compiles}")
        return 1 if server.orphaned_compiles else 0

    rc = asyncio.run(_run())
    # The metrics snapshot is written after the loop has exited: the
    # counters are final once the server drains, and a sync open() in
    # the async body would stall the loop (REP202: async-blocking-call).
    if args.metrics_json:
        snapshot = {
            "stats": compiler.metrics.snapshot(),
            "store": compiler.store.stats(),
        }
        with open(args.metrics_json, "w") as fh:
            _json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.metrics_json}")
    _export_telemetry(args)
    return rc


def cmd_stats(args) -> int:
    """Run the seeded telemetry smoke and print/export the registry."""
    from .obs import (
        events_to_ndjson,
        export_all,
        run_telemetry_smoke,
        snapshot_to_json,
        to_prometheus,
    )

    reg = run_telemetry_smoke(seed=args.seed, messages=args.messages)
    redact = bool(args.redact_timings)
    renders = {
        "prom": to_prometheus,
        "json": snapshot_to_json,
        "ndjson": events_to_ndjson,
    }
    print(renders[args.format](reg, redact_timings=redact), end="")
    if args.telemetry:
        written = export_all(reg, args.telemetry, redact_timings=redact)
        for fmt in sorted(written):
            print(f"telemetry: wrote {written[fmt]}")
    return 0


def cmd_smoke(args) -> int:
    from .smoke import run_smokes

    return run_smokes(args.names)


def cmd_query(args) -> int:
    import asyncio
    import json as _json

    from .service.client import RouteQueryClient
    from .service.errors import ServiceError

    async def _run() -> int:
        client = await RouteQueryClient.connect(
            args.host, args.port, default_timeout=args.timeout
        )
        try:
            if args.stats:
                reply = await client.stats()
                print(_json.dumps(reply["stats"], indent=2, sort_keys=True))
                return 0
            if args.shutdown:
                await client.shutdown()
                print("server draining")
                return 0
            if args.source is None or args.dest is None:
                raise SystemExit(
                    "give --source and --dest (or --stats / --shutdown)"
                )
            reply = await client.query(
                args.source, args.dest, epoch=args.epoch
            )
            inter = " via " + " -> ".join(
                str(tuple(v)) for v in reply["intermediates"]
            ) if reply["intermediates"] else ""
            print(f"epoch {reply['epoch']}: {tuple(reply['source'])} -> "
                  f"{tuple(reply['dest'])}{inter}")
            print(f"rounds {reply['rounds_used']} | hops {reply['hops']} | "
                  f"turns {reply['turns']}")
            return 0
        except ServiceError as exc:
            print(f"error [{exc.code}]: {exc}")
            return 1
        finally:
            await client.close()

    return asyncio.run(_run())


def cmd_store_gc(args) -> int:
    """LRU-evict the store's disk tier down to a byte budget."""
    import json as _json

    from .service.store import ArtifactStore

    store = ArtifactStore(root=args.root)
    before = store.disk_bytes()
    summary = store.prune(args.max_bytes, keep=args.keep or [])
    if args.json:
        print(_json.dumps(
            {"before_bytes": before, **summary},
            indent=2, sort_keys=True,
        ))
    else:
        print(f"store gc: removed {summary['removed']} artifact(s), "
              f"freed {summary['freed_bytes']} bytes, "
              f"{summary['remaining_bytes']} bytes remain "
              f"({summary['protected']} protected)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant wormhole routing via sacrificial lambs "
        "(Ho & Stockmeyer, IPDPS 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lamb", help="compute a lamb set")
    _add_fault_args(p)
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--method", choices=("bipartite", "general", "general-exact"),
                   default="bipartite")
    p.add_argument("--show-lambs", action="store_true")
    p.add_argument("--render", action="store_true",
                   help="ASCII-render the result (2D meshes)")
    p.add_argument("--verify", action="store_true",
                   help="brute-force certify the lamb set (small meshes)")
    p.add_argument("--out", type=str, default=None,
                   help="write the outcome as JSON")
    p.set_defaults(fn=cmd_lamb)

    p = sub.add_parser("partition", help="show SES/DES partitions")
    _add_fault_args(p)
    p.add_argument("--list", action="store_true", help="list every set")
    p.add_argument("--render", action="store_true")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("simulate", help="wormhole traffic on a faulty mesh")
    _add_fault_args(p)
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--messages", type=int, default=100)
    p.add_argument("--flits", type=int, default=16)
    p.add_argument("--window", type=int, default=50)
    p.add_argument("--buffers", type=int, default=2)
    p.add_argument("--policy", choices=("shortest", "first", "random"),
                   default="shortest")
    p.add_argument("--max-cycles", type=int, default=1_000_000)
    p.add_argument("--inject-fault", action="append", default=[],
                   metavar="CYCLE:NODE",
                   help="kill hardware mid-flight (repeatable): "
                   "CYCLE:X,Y for a node, CYCLE:X,Y-U,V for a directed link")
    p.add_argument("--telemetry", type=str, default=None, metavar="PREFIX",
                   help="write the telemetry registry to "
                   "PREFIX.{prom,ndjson,json} on exit")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "chaos",
        help="live-fault chaos run with rollback/reconfigure epochs",
    )
    _add_fault_args(p)
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--messages", type=int, default=120)
    p.add_argument("--flits", type=int, default=4)
    p.add_argument("--window", type=int, default=80)
    p.add_argument("--buffers", type=int, default=2)
    p.add_argument("--policy", choices=("shortest", "first", "random"),
                   default="shortest")
    p.add_argument("--max-cycles", type=int, default=100_000)
    p.add_argument("--inject-fault", action="append", default=[],
                   metavar="CYCLE:NODE",
                   help="explicit fault event (repeatable); otherwise "
                   "--events seeded-random events are generated")
    p.add_argument("--events", type=int, default=3,
                   help="number of seeded-random fault events")
    p.add_argument("--event-start", type=int, default=20)
    p.add_argument("--event-end", type=int, default=260)
    p.add_argument("--kills-per-event", type=int, default=1)
    p.add_argument("--link-kills-per-event", type=int, default=0)
    p.add_argument("--budget", type=int, default=None,
                   help="lamb budget before the degradation ladder "
                   "escalates (default: 25%% of the mesh)")
    p.add_argument("--extra-rounds", type=int, default=1,
                   help="max k escalation of the degradation ladder")
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument("--retry-backoff", type=int, default=8)
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("name", help="fig17..fig26 or section3_one_vs_two_rounds")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("experiments", help="regenerate EXPERIMENTS.md")
    p.add_argument("--out", type=str, default="EXPERIMENTS.md",
                   help="output path (default EXPERIMENTS.md)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--telemetry", type=str, default=None, metavar="PREFIX",
                   help="write the telemetry registry to "
                   "PREFIX.{prom,ndjson,json} on exit")
    p.add_argument("--section", action="append", default=[],
                   metavar="NAME",
                   help="regenerate only the named section(s) "
                   "(repeatable); see repro.experiments.generate")
    p.set_defaults(fn=cmd_experiments)

    p = sub.add_parser("reconfigure", help="replay fault epochs from JSON")
    p.add_argument("script", help="JSON: {mesh, rounds?, epochs: [...]}")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=cmd_reconfigure)

    p = sub.add_parser("worked-example", help="print the Section 5 artifacts")
    p.set_defaults(fn=cmd_worked_example)

    p = sub.add_parser(
        "analyze",
        help="run the domain lint suite (exit 1 on any violation)",
    )
    p.add_argument("paths", nargs="*", help="files or directories to lint")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--concurrency", action="store_true",
                   help="run the interprocedural concurrency pass "
                   "(REP201, REP202, REP204, REP205) instead of the "
                   "per-file lint rules")
    p.add_argument("--baseline", default=None,
                   help="suppression baseline JSON for --concurrency; "
                   "new findings AND stale entries both fail the gate")
    p.add_argument("--out", default=None,
                   help="write the --concurrency report artifact "
                   "(JSON) to this path")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "prove",
        help="statically prove a configuration deadlock-free "
        "(CDG acyclicity; exit 1 with a counterexample cycle otherwise)",
    )
    _add_fault_args(p)
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--single-vc", action="store_true",
                   help="map every round to VC 0 (a known-broken "
                   "discipline, useful for demonstrating a cycle)")
    p.add_argument("--out", type=str, default=None,
                   help="write the report (incl. any counterexample "
                   "cycle) as a JSON artifact")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser(
        "serve",
        help="run the reconfiguration control plane "
        "(compile cache + route-query service)",
    )
    _add_fault_args(p)
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--host", type=str, default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = ephemeral, printed at startup)")
    p.add_argument("--method", choices=("bipartite", "general", "general-exact"),
                   default="bipartite")
    p.add_argument("--policy", choices=("shortest", "first", "random"),
                   default="shortest")
    p.add_argument("--store", type=str, default=None,
                   help="artifact-store directory (default: in-memory only)")
    p.add_argument("--verify", action="store_true",
                   help="CDG-prove every artifact deadlock-free before "
                   "publishing")
    p.add_argument("--budget", type=int, default=None,
                   help="lamb budget before the degradation ladder escalates")
    p.add_argument("--extra-rounds", type=int, default=1)
    p.add_argument("--request-timeout", type=float, default=30.0)
    p.add_argument("--metrics-json", type=str, default=None,
                   help="write a metrics snapshot here on shutdown")
    p.add_argument("--telemetry", type=str, default=None, metavar="PREFIX",
                   help="write the telemetry registry to "
                   "PREFIX.{prom,ndjson,json} on shutdown")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "stats",
        help="run the seeded telemetry smoke and print the unified "
        "metrics registry (per-phase lamb timings, simulator "
        "stall/abort counters, control-plane latencies)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--messages", type=int, default=60,
                   help="messages pushed through the smoke simulation")
    p.add_argument("--format", choices=("prom", "json", "ndjson"),
                   default="prom",
                   help="stdout format (Prometheus exposition, JSON "
                   "snapshot, or NDJSON event log)")
    p.add_argument("--redact-timings", action="store_true",
                   help="zero every duration field (two seeded runs "
                   "become byte-identical; used by repro smoke obs)")
    p.add_argument("--telemetry", type=str, default=None, metavar="PREFIX",
                   help="also write PREFIX.{prom,ndjson,json}")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "smoke",
        help="run seeded end-to-end smokes twice in fresh interpreters, "
        "diff their artifacts and check typed expectations",
    )
    p.add_argument("names", nargs="*", metavar="NAME",
                   help="smokes to run (default: all)")
    p.set_defaults(fn=cmd_smoke)

    p = sub.add_parser(
        "query",
        help="resolve routes / fetch stats from a running control plane",
    )
    p.add_argument("--host", type=str, default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--source", type=_parse_node, default=None)
    p.add_argument("--dest", type=_parse_node, default=None)
    p.add_argument("--epoch", type=int, default=None,
                   help="pin the reconfiguration epoch (typed stale-epoch "
                   "error on mismatch)")
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--stats", action="store_true",
                   help="print the stats RPC snapshot instead of querying")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the server to drain gracefully")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("store", help="artifact-store maintenance")
    ssub = p.add_subparsers(dest="store_command", required=True)
    s = ssub.add_parser(
        "gc",
        help="LRU-evict the disk tier down to a byte budget "
        "(--keep digests survive)",
    )
    s.add_argument("--root", type=str, required=True,
                   help="store root directory")
    s.add_argument("--max-bytes", type=int, required=True,
                   help="target size of the disk tier")
    s.add_argument("--keep", action="append", default=[],
                   metavar="DIGEST",
                   help="digest to protect from eviction (repeatable)")
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_store_gc)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_fault_counts(parser, args)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
