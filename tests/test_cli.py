"""Tests for the command-line interface (driven in-process)."""

import pytest

from repro.cli import main


class TestInformational:
    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "scaled" in out
        assert "paper-x86" in out
        assert "STLB" in out

    def test_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "base4k" in out
        assert "thp" in out
        assert "selective:" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "kron-s" in out
        assert "Kr25" in out
        assert "test-small" not in out

    def test_datasets_stats_for_named_graph(self, capsys):
        assert main(["datasets", "kron-s"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert out[0].startswith("kron-s")
        assert "V= 131,072" in out[0]
        assert "avg_deg=" in out[0] and "gini=" in out[0]

    def test_datasets_unknown_name_is_an_error(self, capsys):
        assert main(["datasets", "no-such-graph"]) == 2
        assert "unknown dataset" in capsys.readouterr().err


class TestRun:
    def test_run_tiny_cell(self, capsys):
        code = main(
            [
                "run",
                "--workload",
                "bfs",
                "--dataset",
                "test-small",
                "--policy",
                "thp",
                "--scenario",
                "fresh",
                "--profile",
                "tiny",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel_cycles" in out
        assert "dtlb_miss_rate" in out

    def test_run_selective_policy_spec(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "test-small",
                "--policy",
                "selective:0.5:original",
                "--scenario",
                "constrained:1.0",
                "--profile",
                "tiny",
            ]
        )
        assert code == 0

    def test_unknown_policy_errors(self, capsys):
        code = main(
            ["run", "--dataset", "test-small", "--policy", "bogus",
             "--profile", "tiny"]
        )
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_unknown_scenario_errors(self, capsys):
        code = main(
            ["run", "--dataset", "test-small", "--scenario", "bogus",
             "--profile", "tiny"]
        )
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_fragmented_scenario_spec(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "test-small",
                "--scenario",
                "fragmented:0.25:2.0",
                "--profile",
                "tiny",
            ]
        )
        assert code == 0


class TestFigure:
    def test_figure_on_test_dataset(self, capsys):
        code = main(
            [
                "figure",
                "fig03",
                "--workloads",
                "bfs",
                "--datasets",
                "test-small",
                "--profile",
                "tiny",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig03" in out
        assert "dtlb_miss_4k" in out

    def test_unknown_figure(self, capsys):
        code = main(["figure", "fig99", "--profile", "tiny"])
        assert code == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figure_json_output(self, capsys):
        import json

        code = main(
            [
                "figure",
                "fig03",
                "--workloads",
                "bfs",
                "--datasets",
                "test-small",
                "--profile",
                "tiny",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["figure_id"] == "fig03"
        assert doc["rows"]

    def test_figure_all_runs_every_function(self, capsys):
        code = main(
            [
                "figure",
                "all",
                "--workloads",
                "bfs",
                "--datasets",
                "test-small",
                "--profile",
                "tiny",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for fid in ("fig01", "fig07b", "fig11", "headline", "abl-reorder"):
            assert f"[{fid}]" in out, fid


class TestAdvise:
    def test_advise(self, capsys):
        code = main(["advise", "--dataset", "test-small",
                     "--profile", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "advise fraction" in out
        assert "budget fraction" in out
