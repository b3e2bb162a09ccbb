"""Tests for the interprocedural concurrency analyzer (REP201, REP202,
REP204, REP205)."""

import dataclasses
import json
import os

import pytest

from repro.analysis.static.concurrency import (
    CONCURRENCY_FIXTURES,
    ConcurrencyFinding,
    analyze_concurrency,
    analyze_sources,
    apply_baseline,
    load_baseline,
)

REPO = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(REPO, "src")
BASELINE = os.path.join(REPO, "concurrency_baseline.json")


def _ids(report):
    return sorted({f.rule_id for f in report.findings})


# ----------------------------------------------------------------------
# Seeded known-bad fixtures: each must trip its rule by name
# ----------------------------------------------------------------------
class TestSeededFixtures:
    @pytest.mark.parametrize("rule_id", sorted(CONCURRENCY_FIXTURES))
    def test_fixture_trips_its_rule(self, rule_id):
        source = CONCURRENCY_FIXTURES[rule_id]
        report = analyze_sources({f"fx_{rule_id.lower()}.py": source})
        assert rule_id in _ids(report), (
            f"seeded fixture for {rule_id} was not caught: "
            f"{[f.render() for f in report.findings]}"
        )

    def test_lock_order_fixture_emits_cycle_certificate(self):
        report = analyze_sources({"fx.py": CONCURRENCY_FIXTURES["REP201"]})
        assert len(report.cycles) == 1
        cycle = report.cycles[0]
        assert sorted(cycle.locks) == ["fx.a", "fx.b"]
        assert len(cycle.sites) == len(cycle.locks)
        assert all("fx.py:" in site for site in cycle.sites)
        # The certificate is replayable: every consecutive pair is an
        # edge of the reported graph.
        edge_pairs = {(frm, to) for (frm, to, _site) in report.edges}
        ring = list(cycle.locks) + [cycle.locks[0]]
        for frm, to in zip(ring, ring[1:]):
            assert (frm, to) in edge_pairs

    def test_async_blocking_fixture_names_the_call(self):
        report = analyze_sources({"fx.py": CONCURRENCY_FIXTURES["REP202"]})
        (finding,) = [f for f in report.findings if f.rule_id == "REP202"]
        assert "time.sleep()" in finding.message
        assert finding.symbol == "fx.poll"


# ----------------------------------------------------------------------
# REP201 — lock-order cycles
# ----------------------------------------------------------------------
class TestLockOrder:
    def test_call_mediated_cycle(self):
        src = (
            "import threading\n"
            "a = threading.Lock()\n"
            "b = threading.Lock()\n"
            "def inner():\n"
            "    with b:\n"
            "        pass\n"
            "def outer():\n"
            "    with a:\n"
            "        inner()\n"
            "def rev():\n"
            "    with b:\n"
            "        with a:\n"
            "            pass\n"
        )
        report = analyze_sources({"m.py": src})
        assert len(report.cycles) == 1
        assert sorted(report.cycles[0].locks) == ["m.a", "m.b"]

    def test_consistent_order_is_acyclic(self):
        src = (
            "import threading\n"
            "a = threading.Lock()\n"
            "b = threading.Lock()\n"
            "def one():\n"
            "    with a:\n"
            "        with b:\n"
            "            pass\n"
            "def two():\n"
            "    with a:\n"
            "        with b:\n"
            "            pass\n"
        )
        report = analyze_sources({"m.py": src})
        assert report.cycles == ()
        assert _ids(report) == []

    def test_self_deadlock_on_plain_lock(self):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def outer(self):\n"
            "        with self._lock:\n"
            "            self.inner()\n"
            "    def inner(self):\n"
            "        with self._lock:\n"
            "            pass\n"
        )
        report = analyze_sources({"m.py": src})
        assert len(report.cycles) == 1
        assert report.cycles[0].locks == ("m.C._lock",)

    def test_rlock_reentry_is_legal(self):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.RLock()\n"
            "    def outer(self):\n"
            "        with self._lock:\n"
            "            self.inner()\n"
            "    def inner(self):\n"
            "        with self._lock:\n"
            "            pass\n"
        )
        report = analyze_sources({"m.py": src})
        assert report.cycles == ()

    def test_instance_lock_attrs_cross_class(self):
        src = (
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def put(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "class Compiler:\n"
            "    def __init__(self, store: Store):\n"
            "        self._lock = threading.Lock()\n"
            "        self.store = store\n"
            "    def compile(self):\n"
            "        with self._lock:\n"
            "            self.store.put()\n"
        )
        report = analyze_sources({"m.py": src})
        pairs = {(frm, to) for (frm, to, _s) in report.edges}
        assert ("m.Compiler._lock", "m.Store._lock") in pairs
        assert report.cycles == ()


# ----------------------------------------------------------------------
# REP202 — blocking calls reachable from async bodies
# ----------------------------------------------------------------------
class TestAsyncBlocking:
    def test_chain_through_sync_helpers(self):
        src = (
            "import time\n"
            "def slow():\n"
            "    time.sleep(0.1)\n"
            "def wrapper():\n"
            "    slow()\n"
            "async def handler():\n"
            "    wrapper()\n"
        )
        report = analyze_sources({"m.py": src})
        (finding,) = report.findings
        assert finding.rule_id == "REP202"
        assert finding.symbol == "m.handler"
        assert "m.wrapper" in finding.message
        assert "time.sleep()" in finding.message

    def test_executor_handoff_escapes(self):
        src = (
            "def slow():\n"
            "    open('/tmp/x')\n"
            "async def handler(loop):\n"
            "    await loop.run_in_executor(None, slow)\n"
        )
        report = analyze_sources({"m.py": src})
        assert _ids(report) == []

    def test_sync_lock_wait_in_async(self):
        src = (
            "import threading\n"
            "_lock = threading.Lock()\n"
            "async def handler():\n"
            "    with _lock:\n"
            "        pass\n"
        )
        report = analyze_sources({"m.py": src})
        assert _ids(report) == ["REP202"]
        assert "m._lock" in report.findings[0].message

    def test_nonblocking_acquire_not_flagged(self):
        src = (
            "import threading\n"
            "_lock = threading.Lock()\n"
            "async def handler():\n"
            "    if _lock.acquire(blocking=False):\n"
            "        _lock.release()\n"
        )
        report = analyze_sources({"m.py": src})
        assert _ids(report) == []

    def test_local_shadow_of_blocking_module_not_flagged(self):
        src = (
            "async def handler():\n"
            "    requests = []\n"
            "    requests.append(1)\n"
            "    return requests\n"
        )
        report = analyze_sources({"m.py": src})
        assert _ids(report) == []

    def test_async_callee_reports_at_its_own_body_only(self):
        src = (
            "import time\n"
            "async def inner():\n"
            "    time.sleep(1)\n"
            "async def outer():\n"
            "    await inner()\n"
        )
        report = analyze_sources({"m.py": src})
        findings = [f for f in report.findings if f.rule_id == "REP202"]
        assert [f.symbol for f in findings] == ["m.inner"]


# ----------------------------------------------------------------------
# REP204 / REP205
# ----------------------------------------------------------------------
class TestHeldAcrossAwaitAndWrites:
    def test_await_under_module_lock(self):
        report = analyze_sources({"m.py": CONCURRENCY_FIXTURES["REP204"]})
        rep204 = [f for f in report.findings if f.rule_id == "REP204"]
        assert len(rep204) == 1
        assert "m._lock" in rep204[0].message

    def test_caller_holds_lock_convention_not_flagged(self):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.state = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._apply()\n"
            "    def _apply(self):\n"
            "        self.state = 1\n"
        )
        report = analyze_sources({"m.py": src})
        assert _ids(report) == []

    def test_mixed_guarded_and_unguarded_write_flagged(self):
        report = analyze_sources({"m.py": CONCURRENCY_FIXTURES["REP205"]})
        (finding,) = report.findings
        assert finding.rule_id == "REP205"
        assert finding.symbol == "m.Cache.sloppy"
        assert "self.hits" in finding.message

    def test_init_writes_exempt(self):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
        )
        report = analyze_sources({"m.py": src})
        assert _ids(report) == []


# ----------------------------------------------------------------------
# Report artifact, suppression, baseline
# ----------------------------------------------------------------------
class TestReportAndBaseline:
    def test_artifact_schema_and_determinism(self, tmp_path):
        report = analyze_sources({"fx.py": CONCURRENCY_FIXTURES["REP201"]})
        out = tmp_path / "report.json"
        report.write_artifact(str(out))
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert set(payload) == {
            "schema", "modules", "functions", "locks", "lock_edges",
            "cycles", "findings", "clean",
        }
        assert payload["clean"] is False
        report2 = analyze_sources({"fx.py": CONCURRENCY_FIXTURES["REP201"]})
        assert report2.to_dict() == payload

    def test_noqa_suppresses_finding(self):
        src = (
            "import time\n"
            "async def poll():\n"
            "    time.sleep(1)  # noqa: REP202\n"
        )
        report = analyze_sources({"m.py": src})
        assert _ids(report) == []

    def test_baseline_split(self):
        f1 = ConcurrencyFinding("a.py", 1, 0, "REP202", "a.f", "x")
        f2 = ConcurrencyFinding("b.py", 2, 0, "REP204", "b.g", "y")
        entries = [
            {"rule": "REP202", "path": "a.py", "symbol": "a.f",
             "reason": "justified"},
            {"rule": "REP205", "path": "gone.py", "symbol": "gone.h",
             "reason": "rotted"},
        ]
        new, stale = apply_baseline([f1, f2], entries)
        assert new == [f2]
        assert len(stale) == 1 and stale[0]["path"] == "gone.py"

    def test_baseline_schema_validation(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text(json.dumps({"schema": 1, "suppressions": [
            {"rule": "REP202", "path": "a.py", "symbol": "a.f"},
        ]}))
        with pytest.raises(ValueError, match="reason"):
            load_baseline(str(bad))

    def test_baseline_key_is_line_free(self):
        f = ConcurrencyFinding("a.py", 10, 4, "REP202", "a.f", "msg")
        g = ConcurrencyFinding("a.py", 99, 0, "REP202", "a.f", "moved")
        assert f.baseline_key() == g.baseline_key()


# ----------------------------------------------------------------------
# Acceptance: the repo's own tree
# ----------------------------------------------------------------------
class TestAcceptance:
    def test_tree_is_acyclic_and_baseline_clean(self):
        report = analyze_concurrency([SRC])
        assert report.cycles == (), [c.describe() for c in report.cycles]
        # Baseline paths are committed repo-relative; re-anchor the
        # findings (this test may run from any cwd).
        findings = [
            dataclasses.replace(
                f, path=os.path.relpath(f.path, os.path.abspath(REPO))
            )
            for f in report.findings
        ]
        new, stale = apply_baseline(findings, load_baseline(BASELINE))
        assert new == [], [f.render() for f in new]
        assert stale == [], stale

    def test_tree_locks_inventory(self):
        # The known lock population of the control plane + telemetry;
        # growing it is fine, losing one means the analyzer went blind.
        report = analyze_concurrency([SRC])
        lock_ids = {lock_id for (lock_id, _kind) in report.locks}
        assert {
            "repro.service.compiler.ReconfigurationCompiler._lock",
            "repro.service.compiler.ReconfigurationCompiler._mutation_lock",
            "repro.service.store.ArtifactStore._lock",
            "repro.obs.registry.TelemetryRegistry._lock",
            "repro.obs.metrics.Counter._lock",
            "repro.obs.metrics.Histogram._lock",
        } <= lock_ids

    def test_tree_report_is_deterministic(self):
        a = analyze_concurrency([SRC]).to_dict()
        b = analyze_concurrency([SRC]).to_dict()
        assert a == b


# ----------------------------------------------------------------------
# Regression: the REP202 true positives fixed in this PR stay fixed
# ----------------------------------------------------------------------
class TestFixedTruePositives:
    """``RpcServer.stop`` used to call ``compiler.persist_current()``
    (atomic-rename filesystem writes) directly on the event loop, and
    ``cmd_serve`` wrote its metrics JSON inside ``async def _run``.
    Both now keep blocking I/O off the loop; these tests name the files
    so a reintroduction fails with a pointed message."""

    @pytest.fixture(scope="class")
    def rep202(self):
        report = analyze_concurrency([SRC])
        return [f for f in report.findings if f.rule_id == "REP202"]

    def test_server_stop_persists_via_executor(self, rep202):
        hits = [f for f in rep202 if f.path.endswith("service/server.py")]
        assert hits == [], [f.render() for f in hits]

    def test_cmd_serve_writes_metrics_after_the_loop_exits(self, rep202):
        hits = [f for f in rep202 if f.path.endswith("repro/cli.py")]
        assert hits == [], [f.render() for f in hits]

    def test_old_stop_shape_is_caught(self):
        # The pre-fix pattern, reduced: an async shutdown path calling
        # a sync persist that does filesystem I/O.
        report = analyze_sources({
            "srv.py": (
                "import json\n"
                "class Compiler:\n"
                "    def persist_current(self):\n"
                "        with open('state.json', 'w') as fh:\n"
                "            json.dump({}, fh)\n"
                "class Server:\n"
                "    def __init__(self):\n"
                "        self.compiler = Compiler()\n"
                "    async def stop(self):\n"
                "        self.compiler.persist_current()\n"
            )
        })
        assert [f.rule_id for f in report.findings] == ["REP202"]
        finding = report.findings[0]
        assert finding.symbol == "srv.Server.stop"
        assert "persist_current" in finding.message
        assert "open()" in finding.message

    def test_old_cmd_serve_shape_is_caught(self):
        report = analyze_sources({
            "cli.py": (
                "import asyncio, json\n"
                "def cmd_serve(path):\n"
                "    async def _run():\n"
                "        await asyncio.sleep(0)\n"
                "        with open(path, 'w') as fh:\n"
                "            json.dump({}, fh)\n"
                "    asyncio.run(_run())\n"
            )
        })
        assert [f.rule_id for f in report.findings] == ["REP202"]
        assert report.findings[0].symbol == "cli.cmd_serve._run"
