"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestLambCommand:
    def test_worked_example_faults(self, capsys):
        code, out = run(
            ["lamb", "--mesh", "12x12", "--fault", "9,1", "--fault", "11,6",
             "--fault", "10,10", "--verify", "--show-lambs"],
            capsys,
        )
        assert code == 0
        assert "lambs: 2" in out
        assert "lamb (10, 11)" in out and "lamb (11, 10)" in out
        assert "verification: OK" in out

    def test_random_faults_percent(self, capsys):
        code, out = run(
            ["lamb", "--mesh", "16x16", "--percent", "2", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert "faults 5" in out  # 2% of 256 = 5.12 -> 5

    @pytest.mark.parametrize("flags, message", [
        (["--faults", "-3"], "argument --faults: must be >= 0, got -3"),
        (["--faults", "65"], "argument --faults: 65 exceeds the 64 nodes"),
        (["--percent", "-5"], "argument --percent: must be in (0, 100]"),
        (["--percent", "0"], "argument --percent: must be in (0, 100]"),
        (["--percent", "150"], "argument --percent: must be in (0, 100]"),
    ])
    def test_rejects_impossible_fault_counts(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            main(["lamb", "--mesh", "8x8", *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_accepts_boundary_fault_counts(self, capsys):
        code, out = run(["lamb", "--mesh", "4x4", "--faults", "0"], capsys)
        assert code == 0 and "faults 0" in out
        code, out = run(["lamb", "--mesh", "4x4", "--percent", "100"], capsys)
        assert code == 0 and "faults 16" in out

    def test_render(self, capsys):
        code, out = run(
            ["lamb", "--mesh", "8x8", "--fault", "3,3", "--render"], capsys
        )
        assert code == 0
        assert "X" in out

    def test_out_file_round_trips(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        code, out = run(
            ["lamb", "--mesh", "12x12", "--fault", "9,1", "--fault", "11,6",
             "--fault", "10,10", "--out", str(path)],
            capsys,
        )
        assert code == 0
        record = json.loads(path.read_text())
        assert record["lambs"] == [[10, 11], [11, 10]]

    def test_load_fault_file(self, tmp_path, capsys):
        from repro.mesh import FaultSet, Mesh
        from repro.mesh.serialization import dumps, faults_to_dict

        path = tmp_path / "faults.json"
        faults = FaultSet(Mesh((10, 10)), [(2, 2), (5, 5)])
        path.write_text(dumps(faults_to_dict(faults)))
        code, out = run(["lamb", "--load", str(path)], capsys)
        assert code == 0
        assert "faults 2" in out

    def test_requires_mesh_or_load(self, capsys):
        with pytest.raises(SystemExit):
            main(["lamb"])

    def test_random_and_explicit_conflict(self, capsys):
        with pytest.raises(SystemExit):
            main(["lamb", "--mesh", "8x8", "--faults", "3", "--fault", "1,1"])


class TestPartitionCommand:
    def test_counts_and_bound(self, capsys):
        code, out = run(
            ["partition", "--mesh", "12x12", "--fault", "9,1",
             "--fault", "11,6", "--fault", "10,10", "--list"],
            capsys,
        )
        assert code == 0
        assert "SES partition: 9 sets" in out
        assert "DES partition: 7 sets" in out
        assert "size 48" in out  # (*, [2,5])


class TestSimulateCommand:
    def test_small_simulation(self, capsys):
        code, out = run(
            ["simulate", "--mesh", "8x8", "--faults", "3", "--messages", "20",
             "--flits", "4"],
            capsys,
        )
        assert code == 0
        assert "messages 20/20" in out
        assert "throughput" in out


class TestFigureCommand:
    def test_fig17_tiny(self, capsys):
        code, out = run(["figure", "fig17", "--trials", "1"], capsys)
        assert code == 0
        assert "fig17" in out

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_non_figure_attribute_rejected(self):
        # Attributes of the module that are not figures must not be
        # callable through the CLI.
        with pytest.raises(SystemExit):
            main(["figure", "np"])


class TestWorkedExampleCommand:
    def test_output(self, capsys):
        code, out = run(["worked-example"], capsys)
        assert code == 0
        assert "matches the paper exactly: True" in out
        assert "Table 1" in out and "Table 2" in out


class TestParser:
    def test_mesh_spec_errors(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["lamb", "--mesh", "banana"])
        with pytest.raises(SystemExit):
            parser.parse_args(["lamb", "--mesh", "8x8", "--fault", "a,b"])

    def test_torus_spec(self):
        parser = build_parser()
        args = parser.parse_args(["lamb", "--mesh", "torus:8x8"])
        assert args.mesh.is_torus

    def test_docstring_lists_every_subcommand(self):
        import argparse
        import re

        import repro.cli

        listed = set(re.findall(r"^- ``([a-z-]+)``", repro.cli.__doc__, re.M))
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert listed == set(sub.choices)


class TestReconfigureCommand:
    def test_epoch_script(self, tmp_path, capsys):
        import json

        script = tmp_path / "epochs.json"
        script.write_text(json.dumps({
            "mesh": "10x10",
            "epochs": [
                {"node_faults": [[2, 2], [7, 3]]},
                {"node_faults": [[4, 8]],
                 "link_faults": [[[1, 1], [1, 2]]]},
            ],
        }))
        out_path = tmp_path / "state.json"
        code, out = run(
            ["reconfigure", str(script), "--out", str(out_path)], capsys
        )
        assert code == 0
        assert "epoch 0" in out and "epoch 1" in out
        assert "faults 4" in out
        record = json.loads(out_path.read_text())
        assert record["faults"]["mesh"]["widths"] == [10, 10]


class TestFigureSection3:
    def test_section3_callable(self, capsys):
        code, out = run(
            ["figure", "section3_one_vs_two_rounds", "--trials", "1"], capsys
        )
        assert code == 0
        assert "section3" in out
