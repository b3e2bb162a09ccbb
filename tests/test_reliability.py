"""Tests for the reliability-campaign subsystem (repro.reliability).

Three layers: the stochastic processes (seeded determinism, interval
bookkeeping, the chaos-schedule bridge), the SLO math (Wilson bounds,
verdict logic), and the Monte Carlo campaign (report shape,
byte-identical reruns, CLI round trip).
"""

import json

import numpy as np
import pytest

from repro.mesh import Mesh
from repro.reliability import (
    CampaignConfig,
    DeterministicRepair,
    ExponentialRepair,
    FaultTimeline,
    FaultTransition,
    PoissonProcess,
    SLOTarget,
    SLOVerdict,
    WeibullProcess,
    arrival_process,
    generate_timeline,
    repair_model,
    run_campaign,
    wilson_interval,
)


class TestProcesses:
    def test_poisson_mean(self):
        p = PoissonProcess(rate=4.0)
        assert p.mean_interarrival == pytest.approx(0.25)
        rng = np.random.default_rng(0)
        draws = [p.sample_interarrival(rng) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(0.25, rel=0.1)

    def test_weibull_shape_one_matches_exponential_mean(self):
        w = WeibullProcess(shape=1.0, scale=2.0)
        assert w.mean_interarrival == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonProcess(rate=0.0)
        with pytest.raises(ValueError):
            WeibullProcess(shape=-1.0, scale=1.0)
        with pytest.raises(ValueError):
            WeibullProcess(shape=1.0, scale=0.0)
        with pytest.raises(ValueError):
            DeterministicRepair(mttr=-1.0)
        with pytest.raises(ValueError):
            ExponentialRepair(mttr=0.0)

    def test_factories(self):
        assert isinstance(arrival_process("poisson", rate=2.0),
                          PoissonProcess)
        assert isinstance(
            arrival_process("weibull", shape=1.5, scale=0.5),
            WeibullProcess,
        )
        assert isinstance(repair_model("deterministic", 1.0),
                          DeterministicRepair)
        assert isinstance(repair_model("exponential", 1.0),
                          ExponentialRepair)
        with pytest.raises(ValueError, match="unknown arrival"):
            arrival_process("uniform")
        with pytest.raises(ValueError, match="unknown repair"):
            repair_model("magic", 1.0)


class TestGenerateTimeline:
    def _timeline(self, seed=0, rate=2.0, mttr=0.4, horizon=3.0):
        mesh = Mesh.square(2, 6)
        return generate_timeline(
            mesh,
            PoissonProcess(rate=rate),
            DeterministicRepair(mttr=mttr),
            horizon,
            np.random.default_rng(seed),
        )

    def test_seeded_determinism(self):
        a = self._timeline(seed=42)
        b = self._timeline(seed=42)
        assert a.transitions == b.transitions
        assert a.interarrivals == b.interarrivals
        c = self._timeline(seed=43)
        assert c.transitions != a.transitions

    def test_transitions_sorted_within_horizon(self):
        tl = self._timeline()
        times = [tr.time for tr in tl]
        assert times == sorted(times)
        assert all(0.0 <= t <= tl.horizon for t in times)

    def test_repairs_follow_fails_with_mttr_gap(self):
        tl = self._timeline(mttr=0.4)
        fails = {tr.node: tr.time for tr in tl if tr.kind == "fail"}
        for tr in tl:
            if tr.kind == "repair":
                assert tr.time == pytest.approx(fails[tr.node] + 0.4)

    def test_permanent_faults_never_repair(self):
        mesh = Mesh.square(2, 6)
        tl = generate_timeline(
            mesh, PoissonProcess(rate=3.0),
            DeterministicRepair(float("inf")), 2.0,
            np.random.default_rng(1),
        )
        assert tl.num_repairs == 0
        assert tl.num_faults > 0

    def test_intervals_partition_horizon(self):
        tl = self._timeline()
        pieces = list(tl.intervals())
        assert pieces[0][0] == 0.0
        assert pieces[-1][1] == tl.horizon
        for (_, t1, _), (t2, _, _) in zip(pieces, pieces[1:]):
            assert t1 == t2
        assert sum(t1 - t0 for t0, t1, _ in pieces) == pytest.approx(
            tl.horizon
        )

    def test_intervals_down_sets_are_sorted_tuples(self):
        for _, _, down in self._timeline().intervals():
            assert list(down) == sorted(down)

    def test_avoid_nodes_never_fail(self):
        mesh = Mesh.square(2, 4)
        avoid = [(0, 0), (1, 1)]
        tl = generate_timeline(
            mesh, PoissonProcess(rate=5.0), DeterministicRepair(0.5),
            4.0, np.random.default_rng(3), avoid=avoid,
        )
        victims = {tr.node for tr in tl if tr.kind == "fail"}
        assert victims.isdisjoint({(0, 0), (1, 1)})

    def test_observed_mttf_mttr(self):
        tl = self._timeline(mttr=0.4)
        assert tl.observed_mttr == pytest.approx(0.4)
        assert tl.observed_mttf is not None and tl.observed_mttf > 0

    def test_bad_horizon(self):
        mesh = Mesh.square(2, 4)
        with pytest.raises(ValueError, match="horizon"):
            generate_timeline(
                mesh, PoissonProcess(1.0), DeterministicRepair(0.1),
                0.0, np.random.default_rng(0),
            )


class TestFaultTimeline:
    def test_transition_validation(self):
        with pytest.raises(ValueError):
            FaultTransition(-1.0, (0, 0), "fail")
        with pytest.raises(ValueError):
            FaultTransition(1.0, (0, 0), "explode")

    def test_beyond_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            FaultTimeline([FaultTransition(5.0, (0, 0), "fail")], 2.0)

    def test_repair_sorts_before_fail_at_equal_time(self):
        tl = FaultTimeline(
            [
                FaultTransition(1.0, (0, 0), "fail"),
                FaultTransition(1.0, (1, 1), "repair"),
            ],
            2.0,
        )
        assert [tr.kind for tr in tl] == ["repair", "fail"]

    def test_to_fault_schedule_drops_repairs_and_offsets(self):
        tl = FaultTimeline(
            [
                FaultTransition(0.1, (0, 0), "fail"),
                FaultTransition(0.5, (0, 0), "repair"),
                FaultTransition(1.0, (2, 3), "fail"),
            ],
            2.0,
        )
        sched = tl.to_fault_schedule(cycles_per_unit=100, start_cycle=20)
        assert len(sched) == 2
        assert sched[0].cycle == 30 and sched[0].node_faults == ((0, 0),)
        assert sched[1].cycle == 120 and sched[1].node_faults == ((2, 3),)

    def test_to_fault_schedule_validates_scale(self):
        tl = FaultTimeline([], 1.0)
        with pytest.raises(ValueError, match="cycles_per_unit"):
            tl.to_fault_schedule(cycles_per_unit=0)


class TestWilson:
    def test_vacuous_with_no_data(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_known_value(self):
        lo, hi = wilson_interval(9, 10)
        # Textbook Wilson bounds for 9/10 at z=1.96.
        assert lo == pytest.approx(0.5958, abs=1e-3)
        assert hi == pytest.approx(0.9821, abs=1e-3)

    def test_bounds_bracket_estimate_and_unit_interval(self):
        for s, n in ((0, 5), (5, 5), (3, 7), (50, 60)):
            lo, hi = wilson_interval(s, n)
            assert 0.0 <= lo <= s / n <= hi <= 1.0

    def test_tightens_with_samples(self):
        lo1, hi1 = wilson_interval(8, 10)
        lo2, hi2 = wilson_interval(80, 100)
        assert (hi2 - lo2) < (hi1 - lo1)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(-1, 5)
        with pytest.raises(ValueError):
            wilson_interval(6, 5)
        with pytest.raises(ValueError):
            wilson_interval(1, 5, z=0.0)


class TestSLO:
    def test_target_validation(self):
        with pytest.raises(ValueError):
            SLOTarget(connectivity=0.0)
        with pytest.raises(ValueError):
            SLOTarget(availability=1.5)

    def test_confident_pass(self):
        v = SLOVerdict.judge(SLOTarget(availability=0.5, connectivity=0.9),
                             0.99, 99, 100)
        assert v.met and v.confident_pass and not v.confident_fail
        assert v.conclusive

    def test_confident_fail(self):
        v = SLOVerdict.judge(SLOTarget(availability=0.999,
                                       connectivity=0.9),
                             0.5, 50, 100)
        assert not v.met and v.confident_fail

    def test_inconclusive_small_sample(self):
        v = SLOVerdict.judge(SLOTarget(availability=0.9, connectivity=0.9),
                             1.0, 3, 3)
        assert v.met and not v.conclusive

    def test_as_dict_round_trips_through_json(self):
        v = SLOVerdict.judge(SLOTarget(), 0.95, 19, 20)
        assert json.loads(json.dumps(v.as_dict())) == v.as_dict()


CAMPAIGN = CampaignConfig(
    widths=(6, 6), rate=1.5, mttr=0.3, horizon=2.0, trials=4, seed=11,
    slo=SLOTarget(connectivity=0.9, availability=0.99),
)


class TestCampaign:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(widths=(1,))
        with pytest.raises(ValueError):
            CampaignConfig(trials=0)
        with pytest.raises(ValueError):
            CampaignConfig(horizon=0.0)
        with pytest.raises(ValueError):
            CampaignConfig(arrival="uniform")
        with pytest.raises(ValueError):
            CampaignConfig(repair="magic")

    def test_report_shape(self):
        report = run_campaign(CAMPAIGN)
        assert len(report.trials) == CAMPAIGN.trials
        body = report.to_dict()
        assert [row["trial"] for row in body["trials"]] == list(
            range(CAMPAIGN.trials)
        )
        assert 0.0 <= body["verdict"]["availability"] <= 1.0
        assert body["config"]["mesh"] == "6x6"
        for row in body["trials"]:
            assert row["epochs_up"] <= row["epochs"]
            assert row["up_time"] + row["down_time"] == pytest.approx(
                CAMPAIGN.horizon
            )

    def test_rerun_is_byte_identical(self):
        assert run_campaign(CAMPAIGN).to_json() == \
            run_campaign(CAMPAIGN).to_json()

    def test_availability_is_time_weighted(self):
        report = run_campaign(CAMPAIGN)
        expected = sum(r["up_time"] for r in report.trials) / (
            CAMPAIGN.horizon * CAMPAIGN.trials
        )
        assert report.availability == pytest.approx(expected)

    def test_zero_rate_limit_is_fully_available(self):
        cfg = CampaignConfig(
            widths=(4, 4), rate=1e-6, mttr=0.1, horizon=1.0, trials=2,
            seed=0,
        )
        report = run_campaign(cfg)
        assert report.availability == 1.0
        assert report.verdict.met

    def test_repair_latency_histogram_recorded(self):
        from repro.obs import use_registry

        with use_registry() as reg:
            report = run_campaign(CAMPAIGN)
        total_repairs = sum(len(r["repair_latencies"])
                            for r in report.trials)
        if total_repairs:
            hist = reg.histogram("reliability_repair_latency")
            assert hist.total == total_repairs
        counters = reg.snapshot()["counters"]
        assert counters["reliability_trials_total"] == CAMPAIGN.trials


class TestReliabilityCLI:
    def test_cli_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        rc = main([
            "reliability", "--mesh", "6x6", "--rate", "1.5",
            "--mttr", "0.3", "--horizon", "2", "--trials", "3",
            "--seed", "11", "--connectivity", "0.9",
            "--availability", "0.99", "--json", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "availability" in text
        body = json.loads(out.read_text())
        assert body["config"]["trials"] == 3
        assert len(body["trials"]) == 3

    def test_cli_require_slo_gates_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        # Brutal fault rate with no repairs: the SLO cannot hold.
        rc = main([
            "reliability", "--mesh", "4x4", "--rate", "50",
            "--mttr", "1000", "--horizon", "2", "--trials", "2",
            "--seed", "0", "--connectivity", "0.95",
            "--availability", "0.999", "--require-slo",
        ])
        capsys.readouterr()
        assert rc == 1
