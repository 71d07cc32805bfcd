"""Tests for repro.cli."""

import json

import pytest

from repro.cli import build_parser, main
from repro.data import load_dataset


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ds"
    code = main(
        ["generate", "--users", "300", "--seed", "5", "--out", str(path)]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--users", "50", "--out", "x"]
        )
        assert args.users == 50
        assert args.command == "generate"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    @pytest.mark.parametrize("command", ["build-simgraph", "evaluate", "maintain"])
    def test_backend_flag_is_gone(self, command, capsys):
        """One SimGraph build is left, so there is nothing to choose."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "ds", "--backend", "vectorized"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


class TestGenerate:
    def test_dataset_written(self, dataset_dir):
        dataset = load_dataset(dataset_dir)
        assert dataset.user_count == 300

    def test_deterministic_seed(self, tmp_path):
        main(["generate", "--users", "100", "--seed", "9",
              "--out", str(tmp_path / "a")])
        main(["generate", "--users", "100", "--seed", "9",
              "--out", str(tmp_path / "b")])
        a = load_dataset(tmp_path / "a")
        b = load_dataset(tmp_path / "b")
        assert a.retweets() == b.retweets()


class TestAnalyze:
    def test_prints_table1(self, dataset_dir, capsys):
        code = main(["analyze", str(dataset_dir), "--path-sample", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out
        assert "# nodes" in out
        assert "Lifetime" in out


class TestBuildSimgraph:
    def test_prints_table4(self, dataset_dir, capsys):
        code = main(["build-simgraph", str(dataset_dir), "--tau", "0.001"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Nb of nodes" in out



class TestEvaluate:
    def test_single_method_runs(self, dataset_dir, capsys):
        code = main([
            "evaluate", str(dataset_dir),
            "--methods", "cf", "--k", "5,10", "--per-stratum", "30",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "CF" in out
        assert "hits" in out

    def test_unknown_method_rejected(self, dataset_dir, capsys):
        code = main([
            "evaluate", str(dataset_dir), "--methods", "nope",
        ])
        assert code == 2
        assert "unknown methods" in capsys.readouterr().err

    def test_simgraph_method_runs(self, dataset_dir, capsys):
        code = main([
            "evaluate", str(dataset_dir), "--methods", "simgraph",
            "--k", "5", "--per-stratum", "20",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "SimGraph" in out


class TestMaintain:
    def test_delta_maintenance_runs(self, dataset_dir, capsys):
        code = main([
            "maintain", str(dataset_dir), "--rebuild-strategy", "delta",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Maintenance (delta" in out
        assert "speedup vs full build" in out

    def test_metrics_snapshot_written(self, dataset_dir, tmp_path, capsys):
        path = tmp_path / "maintain.json"
        code = main([
            "maintain", str(dataset_dir), "--metrics-json", str(path),
        ])
        assert code == 0
        assert "maintenance.dirty_users" in capsys.readouterr().out
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["maintenance.dirty_users"] > 0

    def test_all_strategies_accepted(self, dataset_dir):
        code = main([
            "maintain", str(dataset_dir),
            "--rebuild-strategy", "crossfold",
        ])
        assert code == 0

    def test_bad_window_rejected(self, dataset_dir, capsys):
        code = main(["maintain", str(dataset_dir), "--window", "oops"])
        assert code == 2
        assert "bad --window" in capsys.readouterr().err

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["maintain", "ds", "--rebuild-strategy", "bogus"]
            )


class TestImport:
    def test_import_builds_dataset(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("1 2\n2 3\n")
        rts = tmp_path / "rts.csv"
        rts.write_text("user,tweet,timestamp\n1,10,5.0\n2,10,6.0\n")
        code = main([
            "import", "--edges", str(edges), "--retweets", str(rts),
            "--out", str(tmp_path / "ds"),
        ])
        assert code == 0
        assert "imported" in capsys.readouterr().out
        dataset = load_dataset(tmp_path / "ds")
        assert dataset.popularity(10) == 2
        assert dataset.follow_graph.edge_count == 2


class TestServe:
    @pytest.fixture(scope="class")
    def serve_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-serve") / "ds"
        code = main([
            "generate", "--users", "80", "--seed", "4",
            "--communities", "4", "--out", str(path),
        ])
        assert code == 0
        return path

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "data"])
        assert args.split == 0.9
        assert args.max_batch == 32
        assert args.admit_rate is None
        assert args.prop_backend == "csr"

    @pytest.mark.parametrize("command", ["evaluate", "maintain", "serve"])
    def test_shards_flag_is_gone(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "ds", "--shards", "2"])

    def test_bad_split_rejected(self, serve_dir, capsys):
        code = main(["serve", str(serve_dir), "--split", "1.5"])
        assert code == 2
        assert "--split" in capsys.readouterr().err

    def test_replay_single_process(self, serve_dir, capsys):
        code = main([
            "serve", str(serve_dir), "--split", "0.9", "--limit", "40",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Serve replay" in out
        assert "status: ok" in out
        assert "p50/p95/p99" in out

    def test_metrics_json_written(self, serve_dir, tmp_path, capsys):
        out_path = tmp_path / "serve_metrics.json"
        code = main([
            "serve", str(serve_dir), "--split", "0.95", "--limit", "20",
            "--metrics-json", str(out_path),
        ])
        assert code == 0
        capsys.readouterr()
        snapshot = json.loads(out_path.read_text())
        assert snapshot["counters"]["serve.requests"] >= 20


class TestLoadgen:
    BASE = [
        "loadgen", "--users", "40", "--live-tweets", "10",
        "--events", "30", "--rate", "2000", "--no-scheduler",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.rate == 500.0
        assert args.profile == "steady"
        assert args.events == 1000
        assert not args.calibrate

    def test_steady_run_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(self.BASE + ["--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Load generation (30 events)" in out
        payload = json.loads(out_path.read_text())
        assert payload["profile"] == "steady"
        report = payload["report"]
        assert report["responses"] == 30
        assert report["dropped"] == 0
        assert "p99" in report["latency"]["ok"]

    def test_burst_profile_runs(self, capsys):
        code = main(self.BASE + [
            "--profile", "burst", "--burst-every", "0.02",
            "--burst-length", "0.005",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "burst" in out.split("offered")[0]  # the profile row

    def test_calibrated_run_reports_admission(self, capsys):
        code = main(self.BASE + ["--calibrate", "--slo", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "calibrated admit rate" in out
        assert "degrade/shed depth" in out
