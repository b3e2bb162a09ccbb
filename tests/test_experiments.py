"""Tests for the experiment harness and figure reproductions
(repro.experiments) — run with tiny trial counts."""

import numpy as np
import pytest

from repro.core import partition_size_bound
from repro.experiments import (
    SweepResult,
    TrialSeries,
    default_trials,
    fig17,
    fig19,
    fig25,
    lamb_trials,
    render_sweep,
    section3_one_vs_two_rounds,
    sweep_to_markdown,
)
from repro.experiments.figures import PERCENTS, _faults_for_percent
from repro.mesh import Mesh


class TestHarness:
    def test_trial_series(self):
        s = TrialSeries(x=1.0)
        s.add(lambs=3, seconds=0.1)
        s.add(lambs=5, seconds=0.2)
        assert s.trials == 2
        assert s.avg("lambs") == 4.0
        assert s.max("lambs") == 5.0
        assert s.min("lambs") == 3.0

    def test_default_trials_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRIALS", raising=False)
        assert default_trials(7) == 7
        monkeypatch.setenv("REPRO_TRIALS", "3")
        assert default_trials(7) == 3
        monkeypatch.setenv("REPRO_TRIALS", "0")
        with pytest.raises(ValueError):
            default_trials(7)

    def test_lamb_trials_deterministic(self):
        mesh = Mesh((10, 10))
        a = lamb_trials(mesh, 4, trials=3, seed=5, tag=1)
        b = lamb_trials(mesh, 4, trials=3, seed=5, tag=1)
        assert a.values["lambs"] == b.values["lambs"]
        c = lamb_trials(mesh, 4, trials=3, seed=6, tag=1)
        # Different seed: measurements recorded independently (may
        # coincide by chance for tiny fault counts, but fields exist).
        assert set(c.values) == set(a.values)

    def test_lamb_trials_records_all_keys(self):
        mesh = Mesh((8, 8))
        s = lamb_trials(mesh, 3, trials=2, seed=0)
        assert set(s.values) == {"lambs", "num_ses", "num_des", "seconds"}
        assert s.trials == 2

    def test_extra_measurements(self):
        mesh = Mesh((8, 8))
        s = lamb_trials(
            mesh, 3, trials=1, seed=0,
            extra=lambda r: {"damage": r.additional_damage()},
        )
        assert "damage" in s.values

    def test_column_unknown_agg_raises_value_error(self):
        result = SweepResult("f", "d", "x")
        series = TrialSeries(x=1.0)
        series.add(lambs=3.0)
        result.series.append(series)
        assert result.column("lambs", "avg") == [3.0]
        with pytest.raises(ValueError, match="unknown agg"):
            result.column("lambs", "median")


class TestFigures:
    def test_fault_percent_rounding(self):
        # 3% of 32768 = 983.04 -> 983, the paper's count.
        assert _faults_for_percent(Mesh.square(3, 32), 3.0) == 983
        assert _faults_for_percent(Mesh.square(2, 32), 3.0) == 31

    def test_fig17_shape(self):
        r = fig17(trials=2, seed=1)
        assert r.figure == "fig17"
        assert r.xs == list(PERCENTS)
        lambs = r.column("lambs")
        assert len(lambs) == 6
        assert all(v >= 0 for v in lambs)
        assert r.column("lambs", "max") >= r.column("lambs", "avg")

    def test_fig19_damage_derivation(self):
        r = fig19(trials=2, seed=1)
        assert {"damage_2d", "damage_3d"} <= set(r.series[0].values)
        # The headline qualitative claim: 3D damage << 2D damage at 3%.
        last = r.series[-1]
        assert last.avg("damage_3d") < last.avg("damage_2d")

    def test_fig25_bound_dominates(self):
        r = fig25(trials=2, seed=1)
        for s in r.series:
            f = _faults_for_percent(Mesh.square(3, 32), s.x)
            bound = partition_size_bound((32, 32, 32), f)
            assert s.values["bound"] == [bound]
            assert s.max("num_ses") <= bound

    def test_fig25_records_section62_densities(self):
        """R1, I1 and R1·I1 densities per trial, from the
        ``section62_densities`` extra."""
        r = fig25(trials=1, seed=1)
        for s in r.series:
            for key in ("R1_density", "I1_density", "R1I1_density"):
                (value,) = s.values[key]
                assert 0.0 <= value <= 1.0
            assert s.avg("R1I1_density") > 0.0

    def test_section3(self):
        r = section3_one_vs_two_rounds(trials=1, seed=0, n=12, f=12)
        s = r.series[0]
        assert s.avg("lambs_k1") >= s.avg("lambs_k2")
        assert r.meta["theorem31_bound"] > 0


class TestReport:
    def _result(self):
        r = SweepResult(figure="figX", description="demo", x_label="x")
        s = TrialSeries(x=1.0)
        s.add(lambs=2)
        s.add(lambs=4)
        r.series.append(s)
        return r

    def test_render_sweep(self):
        text = render_sweep(self._result())
        assert "figX" in text
        assert "avg(lambs)" in text and "max(lambs)" in text
        assert "3" in text and "4" in text

    def test_render_single_agg(self):
        text = render_sweep(self._result(), aggs=("avg",))
        assert "lambs" in text and "avg(" not in text

    def test_markdown(self):
        md = sweep_to_markdown(self._result())
        lines = md.splitlines()
        assert lines[0].startswith("| x |")
        assert lines[1].startswith("|---")
        assert "| 1 | 3 | 4 |" in md

    def test_missing_key_renders_dash(self):
        r = self._result()
        s2 = TrialSeries(x=2.0)
        s2.add(other=1)
        r.series.append(s2)
        text = render_sweep(r)
        assert "-" in text


class TestConfidenceIntervals:
    def test_std_and_ci(self):
        s = TrialSeries(x=0.0)
        for v in (2.0, 4.0, 6.0, 8.0):
            s.add(lambs=v)
        assert s.std("lambs") == pytest.approx(np.std([2, 4, 6, 8], ddof=1))
        ci = s.ci95("lambs")
        assert ci > 0
        # t(0.975, 3) * sem = 3.1824 * (2.582/2)
        assert ci == pytest.approx(3.1824 * np.std([2, 4, 6, 8], ddof=1) / 2, rel=1e-3)

    def test_single_trial_ci_zero(self):
        s = TrialSeries(x=0.0)
        s.add(lambs=1.0)
        assert s.ci95("lambs") == 0.0
        assert s.std("lambs") == 0.0

    def test_render_with_ci(self):
        s = TrialSeries(x=1.0)
        s.add(lambs=2)
        s.add(lambs=4)
        r = SweepResult(figure="f", description="d", x_label="x", series=[s])
        text = render_sweep(r, aggs=("avg", "ci95"))
        assert "ci95(lambs)" in text
