"""The domain lint engine: rule behavior, suppression, CLI, and the
"fixed tree stays clean" acceptance check."""

import json

import pytest

from repro.analysis.static import LintEngine, analyze_paths
from repro.analysis.static.lint import format_violations
from repro.analysis.static.rules import (
    ALL_RULES,
    SEEDED_FIXTURES,
    rule_by_id,
)


def _ids(violations):
    return [v.rule_id for v in violations]


# ----------------------------------------------------------------------
# Each seeded fixture trips exactly its own rule
# ----------------------------------------------------------------------
class TestSeededFixtures:
    @pytest.mark.parametrize("rule_id", sorted(SEEDED_FIXTURES))
    def test_fixture_trips_its_rule(self, rule_id):
        violations = LintEngine().check_source(
            SEEDED_FIXTURES[rule_id], f"fixture_{rule_id}.py"
        )
        assert rule_id in _ids(violations), (
            f"{rule_id} fixture produced {violations}"
        )

    @pytest.mark.parametrize("rule_id", sorted(SEEDED_FIXTURES))
    def test_seeding_a_fixture_breaks_the_tree(self, rule_id, tmp_path):
        """Acceptance: a seeded-violation file turns the exit nonzero."""
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text(SEEDED_FIXTURES[rule_id])
        assert _ids(analyze_paths([str(pkg)]))  # nonempty -> exit 1


# ----------------------------------------------------------------------
# Rule-level behavior
# ----------------------------------------------------------------------
class TestUnseededRandom:
    def check(self, src):
        return _ids(rule_by_id("REP101").check(
            __import__("ast").parse(src), "t.py"
        ))

    def test_flags_legacy_np_random(self):
        assert self.check("np.random.rand(3)\n") == ["REP101"]
        assert self.check("np.random.seed(0)\n") == ["REP101"]

    def test_flags_unseeded_default_rng(self):
        assert self.check("rng = np.random.default_rng()\n") == ["REP101"]

    def test_allows_seeded_default_rng(self):
        assert self.check("rng = np.random.default_rng(42)\n") == []
        assert self.check("rng = np.random.default_rng(seed=s)\n") == []

    def test_allows_generator_types(self):
        assert self.check("g = np.random.Generator(np.random.PCG64(1))\n") == []

    def test_flags_stdlib_random(self):
        assert self.check("import random\nrandom.shuffle(xs)\n") == ["REP101"]
        assert self.check("from random import shuffle\n") == ["REP101"]
        assert self.check("r = random.Random()\n") == ["REP101"]
        assert self.check("r = random.Random(7)\n") == []


class TestHashOrderIteration:
    def check(self, src):
        return _ids(rule_by_id("REP102").check(
            __import__("ast").parse(src), "t.py"
        ))

    def test_flags_set_literal_iteration(self):
        assert self.check("for v in {1, 2}:\n    pass\n") == ["REP102"]

    def test_flags_comprehension_over_set_call(self):
        assert self.check("out = [v for v in set(xs)]\n") == ["REP102"]

    def test_flags_list_of_set(self):
        assert self.check("xs = list({1, 2})\n") == ["REP102"]

    def test_flags_set_typed_local(self):
        src = (
            "def f():\n"
            "    seen = set()\n"
            "    for v in seen:\n"
            "        pass\n"
        )
        assert self.check(src) == ["REP102"]

    def test_flags_set_pop(self):
        src = (
            "def f():\n"
            "    remaining = set(xs)\n"
            "    while remaining:\n"
            "        v = remaining.pop()\n"
        )
        assert self.check(src) == ["REP102"]

    def test_sorted_wrapper_is_clean(self):
        assert self.check("for v in sorted({1, 2}):\n    pass\n") == []
        src = (
            "def f():\n"
            "    seen = set()\n"
            "    for v in sorted(seen):\n"
            "        pass\n"
        )
        assert self.check(src) == []

    def test_rebound_name_not_flagged(self):
        # A name also bound to a list is not treated as a set.
        src = (
            "def f(flag):\n"
            "    xs = set()\n"
            "    xs = [1, 2]\n"
            "    for v in xs:\n"
            "        pass\n"
        )
        assert self.check(src) == []

    def test_membership_test_is_clean(self):
        assert self.check("ok = 3 in {1, 2, 3}\n") == []


class TestMutableDefault:
    def test_mutable_defaults(self):
        engine = LintEngine([rule_by_id("REP103")])
        assert _ids(engine.check_source("def f(a=[], b={}):\n    pass\n")) == \
            ["REP103", "REP103"]
        assert _ids(engine.check_source("def f(a=None, b=()):\n    pass\n")) == []


class TestEngine:
    def test_bare_noqa_suppresses(self):
        src = "xs = list({1, 2})  # noqa\n"
        assert LintEngine().check_source(src) == []

    def test_coded_noqa_suppresses_only_named_rules(self):
        src = "xs = list({1, 2})  # noqa: REP102\n"
        assert LintEngine().check_source(src) == []
        other = "xs = list({1, 2})  # noqa: REP101\n"
        assert _ids(LintEngine().check_source(other)) == ["REP102"]

    def test_syntax_error_reports_rep000(self):
        out = LintEngine().check_source("def f(:\n", "broken.py")
        assert _ids(out) == ["REP000"]
        assert out[0].path == "broken.py"

    def test_violations_sorted_deterministically(self):
        src = SEEDED_FIXTURES["REP103"] + SEEDED_FIXTURES["REP102"]
        a = LintEngine().check_source(src)
        b = LintEngine().check_source(src)
        assert a == b == sorted(a)

    def test_directory_walk_finds_nested_file(self, tmp_path):
        pkg = tmp_path / "a" / "b"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(SEEDED_FIXTURES["REP103"])
        (pkg / "notes.txt").write_text("not python")
        out = analyze_paths([str(tmp_path)])
        assert _ids(out) == ["REP103"]

    def test_json_format(self):
        out = LintEngine().check_source(SEEDED_FIXTURES["REP103"])
        data = json.loads(format_violations(out, fmt="json"))
        assert data["count"] == 1
        assert data["violations"][0]["rule"] == "REP103"

    def test_rule_catalog_complete(self):
        assert [r.id for r in ALL_RULES] == \
            ["REP101", "REP102", "REP103"]
        with pytest.raises(KeyError):
            rule_by_id("REP999")


# ----------------------------------------------------------------------
# Suppression handling: noqa scoping, unknown-rule warnings, JSON schema
# ----------------------------------------------------------------------
class TestSuppressionHandling:
    # One line tripping two rules: unseeded np.random (REP101) inside a
    # comprehension over a set literal (REP102).
    MULTI = "xs = [np.random.rand() for x in {1, 2}]"

    def test_multi_rule_line_trips_both_rules(self):
        assert _ids(LintEngine().check_source(self.MULTI + "\n")) == [
            "REP101",
            "REP102",
        ]

    def test_coded_noqa_scopes_to_named_rule_only(self):
        out = LintEngine().check_source(self.MULTI + "  # noqa: REP101\n")
        assert _ids(out) == ["REP102"]
        out = LintEngine().check_source(self.MULTI + "  # noqa: REP102\n")
        assert _ids(out) == ["REP101"]

    def test_multi_code_noqa_suppresses_each_named_rule(self):
        src = self.MULTI + "  # noqa: REP101, REP102\n"
        assert LintEngine().check_source(src) == []

    def test_bare_noqa_suppresses_every_rule_on_the_line(self):
        assert LintEngine().check_source(self.MULTI + "  # noqa\n") == []

    def test_noqa_only_covers_its_own_line(self):
        src = "xs = list({1, 2})  # noqa: REP102\nys = list({3, 4})\n"
        out = LintEngine().check_source(src)
        assert _ids(out) == ["REP102"]
        assert out[0].line == 2

    def test_unknown_rep_code_in_noqa_warns(self):
        engine = LintEngine()
        engine.check_source("x = 1  # noqa: REP999\n", "mod.py")
        assert engine.warnings == ["mod.py:1: noqa names unknown rule REP999"]

    def test_known_and_foreign_codes_do_not_warn(self):
        engine = LintEngine()
        # Registered lint rule, another tool's code, and a bare noqa:
        # none are typos worth warning on.
        engine.check_source(
            "a = 1  # noqa: REP102\n"
            "c = 3  # noqa: E731\n"
            "d = 4  # noqa\n",
            "mod.py",
        )
        assert engine.warnings == []

    # The retired bare-except rule and the four retired concurrency
    # rules: a pragma naming one of them suppresses nothing now.
    @pytest.mark.parametrize("number", [104, 201, 202, 204, 205])
    def test_retired_rule_code_in_noqa_warns(self, number):
        engine = LintEngine()
        engine.check_source(f"x = 1  # noqa: REP{number}\n", "mod.py")
        assert engine.warnings == [
            f"mod.py:1: noqa names unknown rule REP{number}"
        ]

    def test_check_paths_resets_and_collects_warnings(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1  # noqa: REP998\n")
        engine = LintEngine()
        engine.warnings = ["stale entry from a previous run"]
        engine.check_paths([str(tmp_path)])
        assert engine.warnings == [
            f"{bad}:1: noqa names unknown rule REP998"
        ]

    def test_json_schema_is_stable(self):
        out = LintEngine().check_source(self.MULTI + "\n", "mod.py")
        data = json.loads(format_violations(out, fmt="json"))
        assert sorted(data) == ["count", "violations"]
        assert data["count"] == len(data["violations"]) == 2
        for entry in data["violations"]:
            assert sorted(entry) == [
                "col", "line", "message", "path", "rule",
            ]
            assert entry["path"] == "mod.py"
        # Deterministic serialization: same findings, same bytes.
        assert format_violations(out, fmt="json") == format_violations(
            out, fmt="json"
        )

    def test_json_empty_payload(self):
        data = json.loads(format_violations([], fmt="json"))
        assert data == {"count": 0, "violations": []}

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="unknown format"):
            format_violations([], fmt="yaml")


# ----------------------------------------------------------------------
# Acceptance: the fixed tree is clean; the CLI gates on it
# ----------------------------------------------------------------------
class TestAcceptance:
    def test_src_tree_is_clean(self):
        assert analyze_paths(["src"]) == []

    def test_cli_clean_tree_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["analyze", "src/repro/analysis"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_seeded_violation_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text(SEEDED_FIXTURES["REP101"])
        assert main(["analyze", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REP101" in out and "1 violation" in out

    def test_cli_list_rules(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out
