"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.seed == 2024
        assert args.scale == 0.002
        assert not args.raw_logs
        assert not args.telemetry
        assert args.trace_out is None

    def test_run_options(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "--seed", "7", "--scale", "0.0005", "--output",
             str(tmp_path), "--dataset", "--raw-logs"])
        assert args.seed == 7
        assert args.scale == 0.0005
        assert args.dataset and args.raw_logs

    def test_run_telemetry_options(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "--telemetry", "--trace-out",
             str(tmp_path / "t.json")])
        assert args.telemetry
        assert args.trace_out == tmp_path / "t.json"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_serve_port_base(self):
        args = build_parser().parse_args(["serve", "--port-base", "4000"])
        assert args.port_base == 4000
        assert build_parser().parse_args(["serve"]).port_base is None

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.output == Path("experiment-output")

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.plan == "all"
        assert args.seed == 2024
        assert args.scale == 0.0005
        assert not args.list_plans

    def test_serve_limit_options(self):
        args = build_parser().parse_args(
            ["serve", "--idle-timeout", "10", "--max-session-bytes",
             "4096"])
        assert args.idle_timeout == 10.0
        assert args.max_session_bytes == 4096

    def test_run_live_options(self):
        args = build_parser().parse_args(
            ["run", "--telemetry", "--live-port", "9109",
             "--live-interval", "0.25"])
        assert args.live_port == 9109
        assert args.live_interval == 0.25
        defaults = build_parser().parse_args(["run"])
        assert defaults.live_port is None
        assert defaults.live_interval == 0.0

    def test_serve_live_options(self, tmp_path):
        args = build_parser().parse_args(
            ["serve", "--live-port", "0", "--duration", "5",
             "--report-out", str(tmp_path / "snap.json")])
        assert args.live_port == 0
        assert args.duration == 5.0
        assert args.report_out == tmp_path / "snap.json"

    def test_stats_json_flag(self):
        assert build_parser().parse_args(["stats", "--json"]).json
        assert not build_parser().parse_args(["stats"]).json


class TestCommands:
    def test_run_then_report(self, tmp_path, capsys):
        output = tmp_path / "exp"
        code = main(["run", "--seed", "11", "--scale", "0.0002",
                     "--output", str(output), "--dataset"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "low DB:" in captured
        assert "dataset:" in captured
        assert (output / "low.sqlite").exists()
        assert (output / "dataset" / "README.md").exists()

        code = main(["report", "--output", str(output),
                     "--scale", "0.0002"])
        assert code == 0
        cold = capsys.readouterr()
        assert "Table 5" in cold.out
        assert "Table 8" in cold.out
        assert "Russia" in cold.out
        assert "Kinsing" in cold.out
        # The stderr cache line counts the cells each scan fetched.
        assert "analysis cache [low]: 0 hits" in cold.err
        assert "1 scans" in cold.err and "cells scanned" in cold.err

        # Warm passes never scan; --no-cache rescans.  Both print the
        # cold report byte for byte.
        for extra, scanned in (([], False), (["--no-cache"], True)):
            assert main(["report", "--output", str(output),
                         "--scale", "0.0002", *extra]) == 0
            again = capsys.readouterr()
            assert again.out == cold.out
            assert ("0 scans, 0 cells scanned" in again.err) != scanned

    def test_report_missing_run_errors(self, tmp_path, capsys):
        code = main(["report", "--output", str(tmp_path / "nope")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_report_bad_scale_is_distinct_exit_code(self, tmp_path,
                                                    capsys):
        code = main(["report", "--output", str(tmp_path),
                     "--scale", "-0.5"])
        assert code == 2
        assert "--scale" in capsys.readouterr().err

    def test_report_output_not_a_directory(self, tmp_path, capsys):
        bogus = tmp_path / "file.txt"
        bogus.write_text("hi")
        code = main(["report", "--output", str(bogus)])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_run_telemetry_then_stats(self, tmp_path, capsys):
        output = tmp_path / "exp"
        trace = output / "trace.json"
        code = main(["run", "--seed", "5", "--scale", "0.0001",
                     "--output", str(output), "--telemetry",
                     "--trace-out", str(trace)])
        assert code == 0
        run_out = capsys.readouterr().out
        assert "report:" in run_out

        manifest_path = output / "run_report.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["events_total"] > 0
        assert manifest["events_total"] == \
            sum(manifest["events_by_type"].values())
        assert trace.exists()

        code = main(["stats", "--output", str(output)])
        assert code == 0
        stats_out = capsys.readouterr().out
        assert "phases" in stats_out
        assert "replay" in stats_out
        assert f"{manifest['events_total']}" in stats_out

    def test_trace_out_without_telemetry_is_bad_arguments(self, tmp_path,
                                                          capsys):
        code = main(["run", "--output", str(tmp_path), "--trace-out",
                     str(tmp_path / "t.json")])
        assert code == 2
        assert "--telemetry" in capsys.readouterr().err

    def test_live_port_without_telemetry_is_bad_arguments(self, tmp_path,
                                                          capsys):
        code = main(["run", "--output", str(tmp_path),
                     "--live-port", "0"])
        assert code == 2
        assert "--telemetry" in capsys.readouterr().err

    def test_negative_live_interval_is_bad_arguments(self, tmp_path,
                                                     capsys):
        code = main(["run", "--output", str(tmp_path), "--telemetry",
                     "--live-interval", "-1"])
        assert code == 2
        assert "--live-interval" in capsys.readouterr().err

    def test_run_with_live_port_then_stats_json(self, tmp_path, capsys):
        output = tmp_path / "exp"
        code = main(["run", "--seed", "5", "--scale", "0.0001",
                     "--output", str(output), "--telemetry",
                     "--live-port", "0"])
        assert code == 0
        capsys.readouterr()

        code = main(["stats", "--output", str(output), "--json"])
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["schema"].startswith("repro.run_report/")
        assert len(manifest["run_id"]) == 12
        assert manifest["config"]["live_port"] == 0
        assert manifest["live"]["port"] > 0
        assert manifest["ops_log"] == "ops.jsonl"
        assert (output / "ops.jsonl").exists()

    def test_stats_json_missing_manifest_still_exit_1(self, tmp_path,
                                                      capsys):
        code = main(["stats", "--output", str(tmp_path), "--json"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_stats_missing_manifest_errors(self, tmp_path, capsys):
        code = main(["stats", "--output", str(tmp_path)])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_stats_rejects_foreign_json(self, tmp_path, capsys):
        (tmp_path / "run_report.json").write_text('{"x": 1}',
                                                  encoding="utf-8")
        code = main(["stats", "--output", str(tmp_path)])
        assert code == 1
        assert "not a run_report" in capsys.readouterr().err

    def test_chaos_list_plans(self, capsys):
        code = main(["chaos", "--list-plans"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("none", "wire-corrupt", "sqlite-lock", "all"):
            assert name in out

    def test_chaos_unknown_plan_is_bad_arguments(self, tmp_path, capsys):
        code = main(["chaos", "--plan", "no-such-plan",
                     "--output", str(tmp_path)])
        assert code == 2
        assert "no-such-plan" in capsys.readouterr().err

    def test_chaos_run_conserves_events(self, tmp_path, capsys):
        output = tmp_path / "chaos"
        code = main(["chaos", "--plan", "all", "--scale", "0.0002",
                     "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "conservation: OK" in out
        manifest = json.loads(
            (output / "run_report.json").read_text(encoding="utf-8"))
        section = manifest["resilience"]
        assert section["conservation_ok"] is True
        assert section["events_generated"] == \
            section["events_stored"] + section["events_quarantined"]

    def test_export_dataset_command(self, tmp_path, capsys):
        output = tmp_path / "exp"
        code = main(["export-dataset", "--seed", "11", "--scale",
                     "0.0002", "--output", str(output)])
        assert code == 0
        assert (output / "dataset").is_dir()
        jsonl = list((output / "dataset").glob("*.jsonl"))
        assert jsonl
