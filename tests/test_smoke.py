"""The determinism harness behind ``repro smoke`` (``repro.smoke``).

The real scenarios run in CI (``repro smoke``); these tests pin the
harness itself with stub entries: two runs are separate interpreters,
a difference names the artifact and its first differing line, failed
expectations and unknown names exit nonzero, and the typed checks
reject the transcripts the old ``grep`` recipes rejected.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from repro import smoke
from repro.cli import main
from repro.smoke import (
    SMOKES,
    Smoke,
    SmokeFailure,
    _expect_chaos,
    _expect_obs,
    _expect_serve,
    _first_difference,
    run_smokes,
)

ROOT = Path(__file__).resolve().parents[1]


# Stub entries: module-level so the spawned interpreters can unpickle
# them.
def _pid_run(workdir: Path) -> dict:
    return {"header": "same\n", "pid": f"run\npid {os.getpid()}\n"}


def _answer_run(workdir: Path) -> dict:
    (workdir / "answer.txt").write_text("42\n")
    return {"answer": Path("answer.txt").read_text()}


def _crash_run(workdir: Path) -> dict:
    raise RuntimeError("scenario blew up")


def _no_expect(artifacts: dict) -> None:
    pass


def _want_43(artifacts: dict) -> None:
    got = artifacts["answer"].strip()
    if got != "43":
        raise SmokeFailure(f"answer is {got}, want 43")


def test_runs_are_separate_interpreters(monkeypatch, capsys):
    monkeypatch.setattr(smoke, "SMOKES", {
        "pid": Smoke("pid", _pid_run, _no_expect),
    })
    assert run_smokes(["pid"]) == 1
    out = capsys.readouterr().out
    assert re.search(
        r"pid smoke FAILED: runs differ: artifact 'pid' line 2: "
        r"'pid \d+' != 'pid \d+'",
        out,
    ), out


def test_failed_expectation_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(smoke, "SMOKES", {
        "answer": Smoke("answer", _answer_run, _want_43),
    })
    assert run_smokes([]) == 1
    assert "answer smoke FAILED: answer is 42, want 43" in (
        capsys.readouterr().out
    )


def test_crashed_run_reports_the_traceback(monkeypatch, capsys):
    monkeypatch.setattr(smoke, "SMOKES", {
        "crash": Smoke("crash", _crash_run, _no_expect),
    })
    assert run_smokes(["crash"]) == 1
    out = capsys.readouterr().out
    assert "crash smoke FAILED: run in run1 crashed" in out
    assert "RuntimeError: scenario blew up" in out


def test_unknown_name_lists_the_valid_ones(capsys):
    assert main(["smoke", "chaos", "bogus"]) != 0
    err = capsys.readouterr().err
    assert "bogus" in err
    for name in SMOKES:
        assert name in err


def test_first_difference():
    assert _first_difference({"a": "x\n"}, {"a": "x\n"}) is None
    assert _first_difference({"a": "x\n"}, {"b": "x\n"}) == (
        "artifact names ['a'] != ['b']"
    )
    assert _first_difference({"a": "x\ny\n"}, {"a": "x\n"}) == (
        "artifact 'a' line 2: 'y' != None"
    )


def test_ci_and_makefile_invoke_every_smoke():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    # Folded (>-) run lines continue on the next indented line.
    joined = re.sub(r"\n +(?=[a-z])", " ", ci)
    invoked = [
        name
        for line in re.findall(r"python -m repro smoke ([a-z ]+)", joined)
        for name in line.split()
    ]
    assert sorted(invoked) == sorted(SMOKES)
    makefile = (ROOT / "Makefile").read_text()
    assert "%-smoke: ; PYTHONPATH=src $(PYTHON) -m repro smoke $*" in makefile


CHAOS = "epochs {n} | fault events 3 | final rounds 2\nexit 0\n"
SERVE = (
    "compile: digest 0123456789ab epoch 0 lambs 2 survivors 249 "
    "cache_hit False\n"
    "queries: 1000/1000 resolved, total hops 9000\n"
    "recompile: cache_hit {hit} (source current) epoch 0 | stats hits 1 "
    "misses 1\n"
    "delta: +1 node fault -> epoch 1 (incremental True, cache_hit False) "
    "faults 6 lambs 2\n"
    "stale query: typed stale-epoch (requested 0, current 1)\n"
    "drain: orphaned compiles 0 epoch 1\n"
)
PROM = (
    'spans_total{{span="lamb.wvc"}} 3\n'
    'sim_aborts_total{{reason="endpoint-failed"}} 1\n'
    "service_compiles_total {compiles}\n"
    "telemetry_events_dropped 0\n"
)


def test_typed_expectations_accept_and_reject():
    _expect_chaos({"chaos": CHAOS.format(n=3)})
    with pytest.raises(SmokeFailure, match="2 epochs, want >= 3"):
        _expect_chaos({"chaos": CHAOS.format(n=2)})
    _expect_serve({"transcript": SERVE.format(hit=True)})
    with pytest.raises(SmokeFailure, match="cache_hit is 'False'"):
        _expect_serve({"transcript": SERVE.format(hit=False)})
    with pytest.raises(SmokeFailure, match="delta left the epoch at 0"):
        _expect_serve({"transcript": SERVE.format(hit=True)
                       .replace("-> epoch 1", "-> epoch 0")})
    with pytest.raises(SmokeFailure, match="recompile stats hits .0., want >= 1"):
        _expect_serve({"transcript": SERVE.format(hit=True)
                       .replace("stats hits 1", "stats hits 0")})
    with pytest.raises(SmokeFailure, match="typed is 'None'"):
        _expect_serve({"transcript": SERVE.format(hit=True)
                       .replace("typed stale-epoch", "typed None")})
    _expect_obs({"obs.prom": PROM.format(compiles=2)})
    with pytest.raises(SmokeFailure, match="service_compiles_total is 1"):
        _expect_obs({"obs.prom": PROM.format(compiles=1)})
