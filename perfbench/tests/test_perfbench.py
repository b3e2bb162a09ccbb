"""Tests of the benchmark itself: every output check rejects a
corrupted output, and a seeded run is deterministic.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

from checks import (  # noqa: E402
    check_lamb_result,
    check_query_replies,
    check_route_matches,
    check_sim_stats,
    check_write_reply,
)
from repro.core import find_lamb_set  # noqa: E402
from repro.core.routing_table import RouteEntry  # noqa: E402
from repro.mesh import FaultSet, Mesh  # noqa: E402
from repro.routing import repeated, xy  # noqa: E402
from repro.wormhole import WormholeSimulator  # noqa: E402

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ControlPlane, Fig26, SimUniform  # noqa: E402


# ----------------------------------------------------------------------
# Output checks reject corrupted outputs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def worked_example():
    """The Section 5 example: lambs (10, 11) and (11, 10)."""
    faults = FaultSet(Mesh((12, 12)), [(9, 1), (11, 6), (10, 10)])
    return find_lamb_set(faults, repeated(xy(), 2))


def test_lamb_check_accepts_real_output(worked_example):
    assert check_lamb_result(worked_example, bound=1000) == []


def test_lamb_check_rejects_partition_over_bound(worked_example):
    bound = len(worked_example.ses_partition) - 1
    assert any("|SES|" in p for p in check_lamb_result(worked_example, bound))


def test_lamb_check_rejects_uncovered_zero(worked_example):
    bad = dataclasses.replace(worked_example, chosen_ses=(), chosen_des=())
    assert any("not covered" in p for p in check_lamb_result(bad, 1000))


def test_lamb_check_rejects_faulty_lamb(worked_example):
    bad = dataclasses.replace(
        worked_example, lambs=worked_example.lambs | {(9, 1)}
    )
    assert any("not a good node" in p for p in check_lamb_result(bad, 1000))


@pytest.fixture(scope="module")
def drained_stats():
    sim = WormholeSimulator(FaultSet(Mesh((6, 6)), [(2, 2)]), repeated(xy(), 2))
    sim.send((0, 0), (5, 5), 8, 0)
    sim.send((5, 0), (0, 5), 8, 1)
    return sim.run()


def test_sim_check_accepts_real_output(drained_stats):
    assert check_sim_stats(drained_stats, injected=2) == []


def test_sim_check_rejects_lost_message(drained_stats):
    bad = dataclasses.replace(drained_stats, delivered=1)
    problems = check_sim_stats(bad, injected=2)
    assert any("unaccounted" in p for p in problems)
    assert any("delivered 1 of 2" in p for p in problems)


def test_sim_check_rejects_missing_injection(drained_stats):
    assert check_sim_stats(drained_stats, injected=3)


def _reply(src, dst, epoch=4, **extra):
    reply = {"id": 0, "ok": True, "epoch": epoch, "source": list(src),
             "dest": list(dst), "intermediates": [[0, 3]], "rounds_used": 2,
             "hops": 5, "turns": 1}
    reply.update(extra)
    return reply


QUERIES = [((0, 0), (3, 2)), ((1, 1), (0, 3))]


def test_query_check_accepts_matching_replies():
    replies = [_reply(s, d) for s, d in QUERIES]
    assert check_query_replies(replies, QUERIES, epoch=4) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r[0].update(ok=False, error={"code": "stale-epoch"}),
    lambda r: r[1].update(epoch=3),
    lambda r: r[1].update(dest=[0, 2]),
    lambda r: r.pop(),
])
def test_query_check_rejects_corrupted_replies(corrupt):
    replies = [_reply(s, d) for s, d in QUERIES]
    corrupt(replies)
    assert check_query_replies(replies, QUERIES, epoch=4)


def test_route_check_rejects_a_reply_unlike_the_table():
    entry = RouteEntry((0, 0), (3, 2), ((0, 3),), 2, 5, 1)
    assert check_route_matches(_reply((0, 0), (3, 2)), entry) == []
    assert check_route_matches(_reply((0, 0), (3, 2), hops=6), entry)
    assert check_route_matches(
        _reply((0, 0), (3, 2), intermediates=[[3, 0]]), entry
    )


def test_write_check_rejects_corrupted_replies():
    good = {"epoch": 5, "faults": 9, "lamb_nodes": [[1, 1]]}
    assert check_write_reply(good, 5, 9, (2, 2)) == []
    assert check_write_reply(dict(good, epoch=4), 5, 9, (2, 2))
    assert check_write_reply(dict(good, faults=8), 5, 9, (2, 2))
    assert check_write_reply(good, 5, 9, (1, 1))


# ----------------------------------------------------------------------
# Traced-run cross-checks can fail
# ----------------------------------------------------------------------
def _spans(*spans):
    tracer = Tracer()
    tracer.spans = [list(span) for span in spans]
    return tracer


def test_misnested_accepts_nested_spans():
    tracer = _spans(("op", 0.0, 1.0, None), ("a", 0.1, 0.4, 0),
                    ("b", 0.5, 0.9, 0), ("c", 0.6, 0.7, 2))
    assert tracer.misnested() == 0


def test_misnested_flags_a_child_outside_its_parent():
    tracer = _spans(("op", 0.0, 1.0, None), ("a", 0.5, 1.2, 0))
    assert tracer.misnested() == 1


def test_misnested_flags_overlapping_children():
    tracer = _spans(("op", 0.0, 1.0, None), ("a", 0.0, 0.7, 0),
                    ("b", 0.2, 0.9, 0))
    assert tracer.misnested() == 1


def test_layer_sum_ratio_flags_a_double_counted_layer():
    """Listing a layer together with one nested inside it counts the
    inner one twice, and the ratio leaves [0.9, 1.1]."""
    wl = Fig26("fig26_small", dims=2, width=24, percent=3.0, tag=1, configs=3)
    good = run.measure(wl, 7, 0.0, True, ops=3)
    assert good["correct"]
    assert good["metrics"]["trace.layer_sum_ratio"]["value"] == pytest.approx(
        1.0, abs=0.01)
    wl = Fig26("fig26_small", dims=2, width=24, percent=3.0, tag=1, configs=3)
    wl.layers = wl.layers + ("core.reachability.one_round.busy_s",)
    bad = run.measure(wl, 7, 0.0, True, ops=3)
    assert bad["metrics"]["trace.layer_sum_ratio"]["value"] > 1.1
    assert not bad["correct"]


def test_spare_repeats_the_setup_during_the_run():
    wl = SimUniform("sim_small", configs=2, messages=6)
    spare = SimUniform("sim_small", configs=2, messages=6)
    calls = []
    setup = spare.setup
    spare.setup = lambda seed: calls.append(seed) or setup(seed)
    result = run.measure(wl, 5, 0.0, False, ops=2, spare=spare)
    assert calls == [5] * (wl.setup_reps - 1)
    assert result["correct"] and result["metrics"]["setup_s"]["value"] > 0


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def _small_workloads():
    return [
        Fig26("fig26_small", dims=2, width=24, percent=3.0, tag=1, configs=3),
        SimUniform("sim_small", configs=2, messages=6),
        ControlPlane("control_small", pool=20, batch=10, batches_per_write=3,
                     deltas_per_repair=2),
    ]


EXACT = ("lambs_mean", "sim_latency_avg_cycles", "sim_accepted_flits_per_cycle",
         "routing.route.calls", "core.routing_table.hit_ratio",
         "core.routing_table.lookup.calls", "wormhole.cycles",
         "wormhole.park_events")


def _exact(result):
    values = {k: result["metrics"][k]["value"] for k in EXACT}
    values["attempted"] = result["attempted"]
    return values


@pytest.mark.parametrize("index", range(3))
def test_same_seed_gives_identical_exact_metrics(index):
    first = run.measure(_small_workloads()[index], 7, 0.0, True, ops=13)
    second = run.measure(_small_workloads()[index], 7, 0.0, True, ops=13)
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0
    assert _exact(first) == _exact(second)


def test_control_plane_small_run_does_writes():
    wl = _small_workloads()[2]
    result = run.measure(wl, 7, 0.0, True, ops=13)
    # Every fourth op is a write; the first phase's deltas set
    # delta_p50_ms and every write's lambs enter lambs_mean.
    assert result["metrics"]["delta_p50_ms"]["value"] > 0
    assert len(wl.lamb_counts) >= 4


def test_different_seed_changes_the_inputs():
    for wl_a, wl_b in zip(_small_workloads(), _small_workloads()):
        wl_a.setup(1)
        wl_b.setup(2)
        try:
            if isinstance(wl_a, Fig26):
                a, b = wl_a.fault_sets, wl_b.fault_sets
            elif isinstance(wl_a, SimUniform):
                a = [(c.faults, c.traffic) for c in wl_a.configs]
                b = [(c.faults, c.traffic) for c in wl_b.configs]
            else:
                a, b = (wl_a.base, wl_a.pool), (wl_b.base, wl_b.pool)
            assert a != b
        finally:
            wl_a.teardown()
            wl_b.teardown()


def test_end_to_end_output_names_every_metric_with_its_unit():
    result = run.measure(_small_workloads()[0], 3, 0.0, False, ops=3)
    assert set(result["metrics"]) == set(run.END_TO_END)
    for metric in result["metrics"].values():
        assert metric["value"] > 0 and metric["unit"]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    traced = run.measure(_small_workloads()[1], 3, 0.0, True, ops=2)
    assert {m["name"] for m in spec["per_layer"]} == set(traced["metrics"])
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig26_3d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
