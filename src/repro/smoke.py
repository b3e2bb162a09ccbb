"""One determinism harness for the seeded end-to-end smokes.

``repro smoke [NAME ...]`` runs each :data:`SMOKES` entry's ``run``
twice, each time in a fresh ``spawn`` interpreter (new hash seed,
import-time state and ambient telemetry registry) whose cwd is its own
working directory, so relative artifact paths print alike.  The two
``{artifact name: text}`` results must match byte for byte; then
``expect`` checks typed facts parsed from them and raises
:class:`SmokeFailure` when one does not hold.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import multiprocessing
import os
import sys
import tempfile
import traceback
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

__all__ = ["SMOKES", "Smoke", "SmokeFailure", "check", "run_smokes"]

Artifacts = Dict[str, str]


class SmokeFailure(Exception):
    """A smoke crashed, its two runs differ, or an expectation failed."""


class Smoke(NamedTuple):
    """A table entry; ``run`` must pickle by reference (a module-level
    function or a ``partial`` of one) to reach the spawned runs."""

    description: str
    run: Callable[[Path], Artifacts]
    expect: Callable[[Artifacts], None]


def _child(run: Callable[[Path], Artifacts], workdir: str, conn) -> None:
    try:
        os.chdir(workdir)
        conn.send(("ok", run(Path(workdir))))
    except BaseException:  # argparse exits too: report, don't hang
        conn.send(("error", traceback.format_exc()))


def _first_difference(a: Artifacts, b: Artifacts) -> Optional[str]:
    if sorted(a) != sorted(b):
        return f"artifact names {sorted(a)} != {sorted(b)}"
    for name in sorted(a):
        pairs = itertools.zip_longest(a[name].splitlines(),
                                      b[name].splitlines())
        for n, (x, y) in enumerate(pairs, 1):
            if x != y:
                return f"artifact {name!r} line {n}: {x!r} != {y!r}"
        if a[name] != b[name]:
            return f"artifact {name!r}: line endings differ"
    return None


def check(smoke: Smoke) -> None:
    """Run ``smoke`` twice in fresh interpreters, diff, then expect."""
    runs: List[Artifacts] = []
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        for i in (1, 2):
            workdir = os.path.join(tmp, f"run{i}")
            os.mkdir(workdir)
            recv, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.get_context("spawn").Process(
                target=_child, args=(smoke.run, workdir, send)
            )
            proc.start()
            send.close()
            try:
                status, payload = recv.recv()
            except EOFError:  # died without reporting
                status, payload = "error", ""
            proc.join()
            if status != "ok":
                raise SmokeFailure(
                    f"run in run{i} crashed (exit {proc.exitcode})\n{payload}"
                )
            runs.append(payload)
    diff = _first_difference(*runs)
    if diff is not None:
        raise SmokeFailure(f"runs differ: {diff}")
    smoke.expect(runs[0])


def run_smokes(names: Sequence[str]) -> int:
    """``repro smoke``: check the named smokes (all when ``names`` is
    empty); returns the exit code."""
    unknown = [name for name in names if name not in SMOKES]
    if unknown:
        print(f"unknown smoke(s) {', '.join(unknown)}; choose from "
              f"{', '.join(SMOKES)}", file=sys.stderr)
        return 2
    failed = 0
    for name in names or list(SMOKES):
        try:
            check(SMOKES[name])
        except SmokeFailure as exc:
            print(f"{name} smoke FAILED: {exc}")
            failed += 1
        else:
            print(f"{name} smoke OK: {SMOKES[name].description}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# The smokes
# ----------------------------------------------------------------------
def _cli(*argv: str) -> str:
    """Run ``repro ARGV`` in this interpreter: its stdout, minus the
    ``wrote PATH`` notices, then an ``exit N`` line."""
    from .cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    kept = (s for s in out.getvalue().splitlines(True)
            if not s.startswith("wrote "))
    return "".join(kept) + f"exit {rc}\n"


def _repro(
    commands: Dict[str, str], files: Sequence[str], workdir: Path
) -> Artifacts:
    """One artifact per ``repro`` command line, plus each of ``files``."""
    artifacts = {name: _cli(*line.split()) for name, line in commands.items()}
    artifacts.update({name: (workdir / name).read_text() for name in files})
    return artifacts


def _need(ok: bool, message: str) -> None:
    if not ok:
        raise SmokeFailure(message)


def _expect(text: str, prefix: str, **want: str) -> List[str]:
    """Check ``key value`` token pairs on the first line starting with
    ``prefix``; returns that line's tokens."""
    line = next((s.split() for s in text.splitlines()
                 if s.strip().startswith(prefix)), None)
    _need(line is not None, f"no line starts with {prefix!r}")
    got = dict(zip(line, line[1:]))
    for key, value in want.items():
        _need(got.get(key) == value,
              f"{prefix} {key} is {got.get(key)!r}, want {value!r}")
    return line


def _expect_chaos(artifacts: Artifacts) -> None:
    _expect(artifacts["chaos"], "exit", exit="0")
    epochs = int(_expect(artifacts["chaos"], "epochs")[1])
    _need(epochs >= 3, f"{epochs} epochs, want >= 3")


def _run_serve(workdir: Path) -> Artifacts:
    """The ``repro.service.smoke`` scenario's fact lines."""
    from .service import smoke

    lines: List[str] = []
    smoke.serve_smoke(smoke.default_smoke_faults(), emit=lines.append)
    return {"transcript": "".join(f"{s}\n" for s in lines)}


def _value(tokens: List[str], key: str) -> str:
    """The token after ``key`` in ``tokens`` (``""`` if absent), as
    :func:`_expect` reads ``key value`` pairs."""
    return dict(zip(tokens, tokens[1:])).get(key, "")


def _expect_serve(artifacts: Artifacts) -> None:
    text = artifacts["transcript"]
    epoch = _value(_expect(text, "compile:", cache_hit="False"), "epoch")
    resolved, _, total = _expect(text, "queries:")[1].partition("/")
    _need(resolved == total, f"{resolved} of {total} queries resolved")
    hits = _value(_expect(text, "recompile:", cache_hit="True", epoch=epoch),
                  "hits")
    _need(hits.isdigit() and int(hits) >= 1,
          f"recompile stats hits {hits!r}, want >= 1")
    delta = _value(_expect(text, "delta:"), "epoch")
    _need(delta != epoch, f"the delta left the epoch at {epoch}")
    _expect(text, "stale query:", typed="stale-epoch")
    _expect(text, "drain:", compiles="0")


def _expect_obs(artifacts: Artifacts) -> None:
    series = dict(line.rsplit(" ", 1)
                  for line in artifacts["obs.prom"].splitlines()
                  if line and not line.startswith("#"))
    _need(any('span="lamb.wvc"' in key for key in series),
          'no span="lamb.wvc" series')
    for key, want in (
        ('sim_aborts_total{reason="endpoint-failed"}', 1),
        ("service_compiles_total", 2),
        ("telemetry_events_dropped", 0),
    ):
        got = float(series[key]) if key in series else None
        _need(got == want, f"{key} is {got}, want {want}")


def _expect_prove(artifacts: Artifacts) -> None:
    _expect(artifacts["good"], "acyclic: deadlock-free")
    _expect(artifacts["good"], "exit", exit="0")
    _expect(artifacts["broken"], "CYCLIC:")
    _expect(artifacts["broken"], "exit", exit="1")


SMOKES: Dict[str, Smoke] = {
    "chaos": Smoke(
        "deterministic and >=3 reconfiguration epochs",
        partial(_repro, {"chaos": "chaos --mesh 8x8 --faults 2 "
                         "--messages 120 --events 3 --seed 0"}, ()),
        _expect_chaos),
    "serve": Smoke(
        "control plane deterministic, cached, epoch-safe, drained",
        _run_serve, _expect_serve),
    "obs": Smoke(
        "redacted telemetry exports stable, every layer present",
        partial(_repro, {"stats": "stats --redact-timings --telemetry obs"},
                ("obs.prom", "obs.ndjson", "obs.json")),
        _expect_obs),
    "prove": Smoke(
        "good discipline proved, single-VC discipline refuted",
        partial(_repro, {"good": "prove --mesh 16x16 --faults 8 --seed 1",
                         "broken": "prove --mesh 4x4 --single-vc"}, ()),
        _expect_prove),
}
