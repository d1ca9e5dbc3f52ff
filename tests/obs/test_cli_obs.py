"""CLI observability surface: ``--trace``, ``--log-level``, ``trace summarize``."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import read_trace


class TestParser:
    def test_run_accepts_trace_and_log_level_after_the_subcommand(self):
        args = build_parser().parse_args(
            ["run", "fig6-smoke", "--trace", "t.jsonl", "--log-level", "info"]
        )
        assert args.trace_path == "t.jsonl"
        assert args.log_level == "info"

    def test_sweep_accepts_trace(self):
        args = build_parser().parse_args(
            ["sweep", "fig7-smoke", "--trace", "t.jsonl"]
        )
        assert args.trace_path == "t.jsonl"

    def test_trace_summarize_takes_a_file(self):
        args = build_parser().parse_args(["trace", "summarize", "t.jsonl"])
        assert args.command == "trace"
        assert args.trace_command == "summarize"
        assert args.trace_file == "t.jsonl"

    def test_log_level_defaults_to_warning(self):
        args = build_parser().parse_args(["list"])
        assert args.log_level == "warning"

    def test_bad_log_level_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig6-smoke", "--log-level", "loud"])


class TestRunTrace:
    @pytest.mark.parametrize("transport", ["simulated", "asyncio"])
    def test_run_writes_a_valid_trace(self, tmp_path, capsys, transport):
        trace_path = tmp_path / "run.jsonl"
        argv = ["run", "fig6-smoke", "--set", f"transport.kind={transport}"]
        assert main([*argv, "--trace", str(trace_path)]) == 0
        trace = read_trace(trace_path)
        assert trace.header["scenario"] == "fig6-smoke"
        names = {span.name for span in trace.spans}
        assert {"run", "run.cell", "protocol.run", "protocol.phase"} <= names
        assert trace.counters["net.deliveries"] > 0

    def test_traced_json_stdout_stays_parseable(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "run",
                    "fig6-smoke",
                    "--trace",
                    str(trace_path),
                    "--json",
                    "-",
                    "--log-level",
                    "debug",
                ]
            )
            == 0
        )
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["scenario"] == "fig6-smoke"

    def test_diagnostics_go_to_stderr_not_stdout(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        main(
            [
                "run",
                "fig6-smoke",
                "--trace",
                str(trace_path),
                "--log-level",
                "info",
                "--json",
                "-",
            ]
        )
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout is pure JSON
        assert "wrote trace" in captured.err
        assert "running scenario fig6-smoke" in captured.err

    def test_untraced_run_writes_no_trace_file(self, tmp_path, capsys):
        assert main(["run", "fig6-smoke", "--json", "-"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestSweepTrace:
    def test_sweep_trace_and_stats(self, tmp_path, capsys):
        trace_path = tmp_path / "sweep.jsonl"
        stats_path = tmp_path / "stats.json"
        store = tmp_path / "store"
        code = main(
            [
                "sweep",
                "fig6-smoke",
                "--store",
                str(store),
                "--trace",
                str(trace_path),
                "--stats-json",
                str(stats_path),
            ]
        )
        assert code == 0
        trace = read_trace(trace_path)
        names = {span.name for span in trace.spans}
        assert {"sweep.run", "sweep.unit"} <= names
        assert trace.counters["sweep.units.cache_miss"] > 0
        stats = json.loads(stats_path.read_text())
        assert stats["counters"]["cache_miss"] == stats["computed"]
        assert stats["counters"]["cache_hit"] == 0
        assert stats["counters"]["self_heal"] == 0
        timing = stats["unit_timing"]["serial"]
        assert timing["count"] == stats["computed"]
        assert timing["p50_s"] <= timing["p99_s"] <= timing["max_s"]

    def test_cached_rerun_counts_hits(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        store = tmp_path / "store"
        argv = ["sweep", "fig6-smoke", "--store", str(store)]
        assert main(argv) == 0
        assert main([*argv, "--stats-json", str(stats_path)]) == 0
        stats = json.loads(stats_path.read_text())
        assert stats["counters"]["cache_hit"] == stats["cached"] > 0
        assert stats["counters"]["cache_miss"] == 0
        assert stats["unit_timing"] == {}


class TestTraceSummarize:
    def test_summarizes_a_recorded_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        main(["run", "fig6-smoke", "--trace", str(trace_path)])
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        output = capsys.readouterr().out
        assert "trace summary (fig6-smoke)" in output
        assert "protocol.mini_round" in output
        assert "net.deliveries" in output

    def test_missing_file_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["trace", "summarize", "nowhere.jsonl"])

    def test_malformed_file_is_a_clean_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "header", "schema": "other/v1"}\n')
        with pytest.raises(SystemExit, match="unsupported trace schema"):
            main(["trace", "summarize", str(bad)])
        bad.write_bytes(b"\xff\xfe\n")
        with pytest.raises(SystemExit, match="line 1: not UTF-8 text"):
            main(["trace", "summarize", str(bad)])
