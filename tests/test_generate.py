"""Tests for the EXPERIMENTS.md generator (quick sections only)."""

import pytest

from repro.experiments.generate import ALL_SECTIONS, generate


class TestGenerate:
    def test_tables_section(self, tmp_path):
        path = tmp_path / "out.md"
        text = generate(str(path), sections=("tables",))
        assert path.read_text() == text
        assert "Tables 1 & 2" in text
        assert "bit-exact | True" in text
        assert "| lamb set | {(11,10), (10,11)} | [(10, 11), (11, 10)] | True |" in text
        # Unselected sections are absent.
        assert "Fig. 17" not in text

    def test_section3_quick(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "1")
        text = generate(str(tmp_path / "out.md"), sections=("section3",))
        assert "one round vs two rounds" in text
        assert "2698" in text

    def test_artifacts_section_no_compute(self, tmp_path):
        text = generate(str(tmp_path / "out.md"), sections=("artifacts",))
        assert "Combinatorial artifacts" in text

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate(str(tmp_path / "out.md"), sections=("fig99",))

    def test_no_write_when_path_empty(self):
        text = generate("", sections=("artifacts",))
        assert text.startswith("# EXPERIMENTS")

    def test_all_sections_constant(self):
        assert "tables" in ALL_SECTIONS and "fig26" in ALL_SECTIONS
        assert len(ALL_SECTIONS) == len(set(ALL_SECTIONS))


class TestMonotonicTimers:
    def test_durations_use_monotonic_clock(self):
        # Regression: generation timing used time.time(), which jumps
        # under NTP slews/clock steps and can report negative or wildly
        # wrong durations.  Durations must come from perf_counter.
        import inspect

        import repro.experiments.generate as gen

        source = inspect.getsource(gen)
        assert "time.time(" not in source
        assert "time.perf_counter(" in source


class TestNoPlaceholders:
    def test_every_sweep_section_states_its_trials(self, tmp_path, monkeypatch):
        # Sweeps run on a stub trial runner: the check is the report's
        # text, not the statistics.
        from repro.experiments import figures
        from repro.experiments.harness import TrialSeries

        def stub_trials(mesh, num_faults, trials, seed=0, tag=0, **kw):
            series = TrialSeries(x=0)
            for _ in range(trials):
                series.add(lambs=0, num_ses=1, num_des=1, seconds=0.0)
            return series

        monkeypatch.setattr(figures, "lamb_trials", stub_trials)
        monkeypatch.setenv("REPRO_TRIALS", "1")
        text = generate(str(tmp_path / "out.md"), sections=ALL_SECTIONS)
        assert text.count("Trials per point:") >= 10
        assert "Trials per point: ?" not in text
        assert "Trials per point: 1. Paper reference at 3%" in text


def _sections(text):
    """``{heading: body}`` per ``## `` section (the preamble under
    ``""``), without the wall-clock ``_Total generation time`` footer."""
    out, head = {}, ""
    for line in text.splitlines(keepends=True):
        if line.startswith("## "):
            head = line
        if not line.startswith("_Total generation time"):
            out[head] = out.get(head, "") + line
    return out


class TestCommittedReport:
    def test_deterministic_sections_match_committed_file(self, monkeypatch):
        """The seeded sections with no wall-clock column regenerate the
        committed EXPERIMENTS.md byte for byte."""
        from pathlib import Path

        monkeypatch.delenv("REPRO_TRIALS", raising=False)
        root = Path(__file__).resolve().parents[1]
        committed = _sections((root / "EXPERIMENTS.md").read_text())
        fresh = _sections(generate(
            "", seed=0, sections=("tables", "section3", "chaos", "artifacts"),
        ))
        assert len(fresh) == 5  # the preamble plus the four sections
        for head, body in fresh.items():
            assert body == committed.get(head), f"section {head!r} differs"
