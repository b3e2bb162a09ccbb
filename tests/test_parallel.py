"""Serial-vs-parallel equivalence of the trial engine.

Every sweep repeats an independent seeded computation: trial ``t``
draws all randomness from ``(seed, tag, t)``, so fanning trials across
a process pool must be *bit-identical* to the serial loop on every
deterministic key (wall-clock ``seconds`` keys are machine timings and
excluded).  These tests pin that property for the lamb trials, the
chaos sweep and the EXPERIMENTS.md generator, plus the engine's own
plumbing (worker resolution, chunking, ambient installation).
"""

import os
import signal
import time

import pytest

from repro.experiments.chaos_experiments import fault_arrival_sweep
from repro.experiments.generate import generate
from repro.experiments.harness import SweepResult, TrialSeries, lamb_trials
from repro.experiments.parallel import (
    TrialEngine,
    WorkerCrashError,
    available_cpu_count,
    engine_jobs,
    get_default_engine,
    is_picklable,
    resolve_executor,
    resolve_jobs,
    set_default_jobs,
    worker_memo,
)
from repro.mesh import Mesh

#: Keys that record machine wall-clock time: never bit-identical.
TIMING_KEYS = frozenset(
    {"seconds", "seconds_2d", "seconds_3d", "epoch_seconds",
     "worst_epoch_seconds", "total_seconds"}
)


def _deterministic(series: TrialSeries):
    return {
        k: v for k, v in series.values.items() if k not in TIMING_KEYS
    }


def _sweep_deterministic(result: SweepResult):
    return [(s.x, _deterministic(s)) for s in result.series]


class TestResolveExecutor:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        assert resolve_executor("process") == "process"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "thread")
        assert resolve_executor(None) == "thread"

    def test_default_is_process(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert resolve_executor(None) == "process"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gevent")

    def test_available_cpu_count_positive(self):
        n = available_cpu_count()
        assert isinstance(n, int) and n >= 1

    def test_requires_pickling_tracks_backend(self):
        with TrialEngine(jobs=1, executor="process") as eng:
            assert eng.requires_pickling
        with TrialEngine(jobs=1, executor="thread") as eng:
            assert not eng.requires_pickling


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_zero_means_all_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestEngine:
    def test_chunks_cover_range_in_order(self):
        eng = TrialEngine(jobs=3, chunks_per_worker=2)
        chunks = eng.chunk_indices(17)
        flat = [t for chunk in chunks for t in chunk]
        assert flat == list(range(17))
        eng.close()

    def test_run_trials_orders_results(self):
        from repro.experiments import parallel as par

        with TrialEngine(jobs=2) as eng:
            out = eng.run_trials(_echo_worker, 9, {"base": 100})
        assert out == [100 + t for t in range(9)]

    def test_serial_never_spawns_pool(self):
        with TrialEngine(jobs=1) as eng:
            eng.run_trials(_echo_worker, 4, {"base": 0})
            assert eng._pool is None

    def test_worker_memo_reuses(self):
        calls = []
        a = worker_memo(("t", 1), lambda: calls.append(1) or object())
        b = worker_memo(("t", 1), lambda: calls.append(1) or object())
        assert a is b and len(calls) == 1

    def test_is_picklable(self):
        assert is_picklable(None)
        assert is_picklable(_echo_worker)
        assert not is_picklable(lambda p, t: t)

    def test_is_picklable_requires_round_trip(self):
        # Regression: is_picklable used to test only pickle.dumps, so
        # an object that serializes fine but *fails to deserialize* in
        # the worker process passed the gate and crashed the pool
        # mid-sweep.
        assert not is_picklable(_DumpsButNoLoads())

    def test_is_picklable_does_not_swallow_unrelated_errors(self):
        # Only pickling-shaped failures mean "not picklable"; a bug in
        # the object's __getstate__ raising an unrelated error type
        # must propagate, not be reported as a serial fallback.
        with pytest.raises(ZeroDivisionError):
            is_picklable(_BrokenGetstate())

    def test_ambient_engine_install_and_restore(self):
        base = get_default_engine()
        with engine_jobs(2) as eng:
            assert get_default_engine() is eng
            assert eng.jobs == 2
        assert get_default_engine() is not eng
        set_default_jobs(1)  # restore a known ambient for other tests
        assert get_default_engine().jobs == 1
        assert base.jobs >= 1


def _echo_worker(payload, t):
    return payload["base"] + t


def _explode():
    import pickle

    raise pickle.UnpicklingError("reconstruction fails at load time")


class _DumpsButNoLoads:
    """Pickles fine; blows up when unpickled in the worker."""

    def __reduce__(self):
        return (_explode, ())


class _BrokenGetstate:
    """A bug (not a pickling limitation) during serialization."""

    def __getstate__(self):
        return 1 // 0


def _crash_once_worker(payload, t):
    """Kills its own worker process the first time it sees the victim
    trial (a sentinel file distinguishes the attempts); computes
    normally on retry.  Simulates a transient worker crash."""
    sentinel = os.path.join(payload["dir"], "crashed")
    if t == payload["victim"] and not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return payload["base"] + t


def _always_crash_worker(payload, t):
    """Kills the worker on the victim trial, every attempt."""
    if t == payload["victim"]:
        os.kill(os.getpid(), signal.SIGKILL)
    return t


def _stall_once_worker(payload, t):
    """Wedges (sleeps far past the chunk timeout) the first time it
    sees the victim trial; fast on retry."""
    sentinel = os.path.join(payload["dir"], "stalled")
    if t == payload["victim"] and not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        time.sleep(payload["stall"])
    return t


def _sleep_worker(payload, t):
    time.sleep(payload["sleep"])
    return t


class TestThreadExecutor:
    def test_thread_results_match_serial(self):
        with TrialEngine(jobs=1) as eng:
            serial = eng.run_trials(_echo_worker, 9, {"base": 10})
        with TrialEngine(jobs=3, executor="thread") as eng:
            fanned = eng.run_trials(_echo_worker, 9, {"base": 10})
        assert serial == fanned == [10 + t for t in range(9)]

    def test_thread_pool_runs_unpicklable_workers(self):
        # The thread executor shares the address space, so a closure —
        # which the process path must refuse — fans out fine.
        seen = []

        def worker(payload, t):
            seen.append(t)
            return t * 2

        with TrialEngine(jobs=2, executor="thread") as eng:
            out = eng.run_trials(worker, 6, {})
        assert out == [t * 2 for t in range(6)]
        assert sorted(seen) == list(range(6))

    def test_lamb_trials_fan_unpicklable_extra_over_threads(self):
        # With an ambient *thread* engine the harness keeps the
        # parallel path even for an unpicklable callback (the process
        # path would fall back serially).
        mesh = Mesh.square(2, 10)

        def extra(r):
            return {"twice": 2.0 * len(r.lambs)}

        serial = lamb_trials(mesh, 4, trials=4, seed=1, jobs=1, extra=extra)
        with engine_jobs(3, executor="thread"):
            fanned = lamb_trials(mesh, 4, trials=4, seed=1, extra=extra)
        assert _deterministic(serial) == _deterministic(fanned)
        assert "twice" in fanned.values


class TestAccounting:
    def test_serial_run_is_accounted(self):
        with TrialEngine(jobs=1) as eng:
            eng.run_trials(_echo_worker, 5, {"base": 0})
            acct = eng.last_run
        assert acct.trials_expected == acct.trials_completed == 5
        assert acct.chunks_total == 1
        assert acct.all_accounted
        assert acct.as_dict()["all_accounted"] is True

    def test_parallel_run_is_accounted(self):
        with TrialEngine(jobs=2, executor="thread") as eng:
            eng.run_trials(_echo_worker, 10, {"base": 0})
            acct = eng.last_run
            assert acct.chunks_total == len(eng.chunk_indices(10))
        assert acct.all_accounted and acct.trials_completed == 10
        assert acct.pool_rebuilds == 0 and acct.chunk_retries == 0
        assert acct.executor == "thread" and acct.jobs == 2


class TestCrashRecovery:
    def test_killed_worker_chunk_is_retried_not_lost(self, tmp_path):
        """ISSUE acceptance: a worker killed mid-chunk must not lose
        or double-count any trial — the chunk is retried on a fresh
        pool and every trial lands exactly once, in order."""
        payload = {"dir": str(tmp_path), "victim": 0, "base": 50}
        with TrialEngine(jobs=2, executor="process") as eng:
            out = eng.run_trials(_crash_once_worker, 8, payload)
            acct = eng.last_run
        assert out == [50 + t for t in range(8)]
        assert acct.all_accounted
        assert acct.pool_rebuilds >= 1
        assert acct.chunk_retries >= 1

    def test_persistent_crash_raises_typed_error(self):
        with TrialEngine(
            jobs=2, executor="process", max_crash_retries=1
        ) as eng:
            with pytest.raises(WorkerCrashError) as err:
                eng.run_trials(_always_crash_worker, 8, {"victim": 0})
        # Nothing silently dropped: the error names the unfinished
        # chunks, and the accounting shows the shortfall.
        pending = [t for ts in err.value.pending_chunks for t in ts]
        assert 0 in pending
        assert not eng.last_run.all_accounted
        assert eng.last_run.pool_rebuilds == 1

    def test_wedged_chunk_times_out_and_retries(self, tmp_path):
        payload = {"dir": str(tmp_path), "victim": 0, "stall": 60.0}
        with TrialEngine(
            jobs=2, executor="process", chunk_timeout=3.0
        ) as eng:
            out = eng.run_trials(_stall_once_worker, 6, payload)
            acct = eng.last_run
        assert out == list(range(6))
        assert acct.all_accounted
        assert acct.pool_rebuilds >= 1

    def test_thread_timeout_is_fatal(self):
        # A stuck thread cannot be reclaimed, so the timeout surfaces
        # immediately as the typed error instead of a retry loop.
        with TrialEngine(
            jobs=2, executor="thread", chunk_timeout=0.1
        ) as eng:
            with pytest.raises(WorkerCrashError, match="thread"):
                eng.run_trials(_sleep_worker, 4, {"sleep": 1.0})
        assert not eng.last_run.all_accounted


class TestBitIdenticalSweeps:
    def test_lamb_trials(self):
        mesh = Mesh.square(2, 12)
        serial = lamb_trials(mesh, 6, trials=8, seed=3, tag=2, jobs=1)
        fanned = lamb_trials(mesh, 6, trials=8, seed=3, tag=2, jobs=4)
        assert _deterministic(serial) == _deterministic(fanned)
        assert set(serial.values) == set(fanned.values)  # incl. seconds

    def test_lamb_trials_3d(self):
        mesh = Mesh.square(3, 6)
        serial = lamb_trials(mesh, 5, trials=6, seed=0, tag=9, jobs=1)
        fanned = lamb_trials(mesh, 5, trials=6, seed=0, tag=9, jobs=3)
        assert _deterministic(serial) == _deterministic(fanned)

    def test_unpicklable_extra_falls_back_serially(self):
        mesh = Mesh.square(2, 10)
        extra = lambda r: {"twice": 2.0 * len(r.lambs)}  # noqa: E731
        serial = lamb_trials(mesh, 4, trials=4, seed=1, jobs=1, extra=extra)
        fanned = lamb_trials(mesh, 4, trials=4, seed=1, jobs=4, extra=extra)
        assert _deterministic(serial) == _deterministic(fanned)
        assert "twice" in fanned.values

    def test_fault_arrival_sweep(self):
        kw = dict(event_counts=(0, 2), trials=2, seed=1, num_messages=40)
        serial = fault_arrival_sweep(jobs=1, **kw)
        fanned = fault_arrival_sweep(jobs=4, **kw)
        assert _sweep_deterministic(serial) == _sweep_deterministic(fanned)


def _strip_timing_lines(text: str):
    return [
        line
        for line in text.splitlines()
        if "generation time" not in line
    ]


class TestGenerateReport:
    def test_report_bytes_identical_across_job_counts(self, tmp_path):
        """EXPERIMENTS.md sections must agree byte-for-byte between
        jobs=1 and jobs=2 (modulo the wall-clock footer)."""
        a = generate(path=str(tmp_path / "a.md"), seed=0,
                     sections=("tables", "section3"), jobs=1)
        b = generate(path=str(tmp_path / "b.md"), seed=0,
                     sections=("tables", "section3"), jobs=2)
        assert _strip_timing_lines(a) == _strip_timing_lines(b)

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown sections"):
            generate(path=str(tmp_path / "x.md"), sections=("nope",))


class TestHarnessGuards:
    def test_column_unknown_agg_raises_value_error(self):
        result = SweepResult("f", "d", "x")
        series = TrialSeries(x=1.0)
        series.add(lambs=3.0)
        result.series.append(series)
        assert result.column("lambs", "avg") == [3.0]
        with pytest.raises(ValueError, match="unknown agg"):
            result.column("lambs", "median")

    def test_ci95_available(self):
        series = TrialSeries(x=0.0)
        for v in (1.0, 2.0, 3.0, 4.0):
            series.add(lambs=v)
        assert series.ci95("lambs") > 0.0
