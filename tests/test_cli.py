"""Tests for the ``python -m repro`` experiment CLI."""

import json

import pytest

from repro.cli import _submit_payload, build_parser, main
from repro.spec import SpecError, apply_overrides, get_scenario, parse_set_items
from repro.sweep import ResultStore, SweepPlan, parse_grid_items, plan_units


class TestParser:
    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_fig7_options(self):
        # Fig. 7 knobs are dotted-path overrides on a registered preset.
        args = build_parser().parse_args(
            ["run", "fig7-paper", "--set", "schedule.num_rounds=50"]
        )
        assert args.command == "run"
        assert args.scenario == "fig7-paper"
        assert args.overrides == ["schedule.num_rounds=50"]

    def test_fig8_periods_option(self):
        args = build_parser().parse_args(
            ["run", "fig8-quick", "--set", "schedule.periods=[1,5]"]
        )
        spec = apply_overrides(
            get_scenario(args.scenario), parse_set_items(args.overrides)
        )
        assert spec.schedule.periods == (1, 5)

    def test_complexity_has_the_paper_toggle(self):
        # Paper scale is the -paper preset, not a flag.
        args = build_parser().parse_args(["run", "complexity-paper"])
        paper = get_scenario(args.scenario)
        assert len(paper.network_sweep) > len(
            get_scenario("complexity-quick").network_sweep
        )

    @pytest.mark.parametrize("command", ["fig6", "fig7", "fig8", "complexity"])
    def test_legacy_figure_commands_are_rejected(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])

    def test_run_collects_set_overrides(self):
        args = build_parser().parse_args(
            ["run", "fig7-quick", "--set", "seed=9", "--set", "policies.0.r=2"]
        )
        assert args.scenario == "fig7-quick"
        assert args.overrides == ["seed=9", "policies.0.r=2"]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["not-a-command"])


class TestMain:
    def test_table2_command(self, capsys):
        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "theta" in output
        assert "round_ta_ms" in output

    def test_table2_output_is_pinned(self, capsys):
        assert main(["table2"]) == 0
        assert capsys.readouterr().out == (
            "parameter                value\n"
            "-----------------------  -----\n"
            "  local_broadcast_tb_ms    100\n"
            "local_computation_tl_ms     50\n"
            "data_transmission_td_ms   1000\n"
            "       mini_round_tm_ms    250\n"
            "strategy_decision_ts_ms   1000\n"
            "            round_ta_ms   2000\n"
            "                  theta    0.5\n"
            "   period_efficiency_y1    0.5\n"
            "   period_efficiency_y5    0.9\n"
            "  period_efficiency_y10   0.95\n"
            "  period_efficiency_y20  0.975\n"
        )

    def test_fig6_quick_command(self, capsys):
        assert main(["run", "fig6-quick"]) == 0
        output = capsys.readouterr().out
        assert "weight[20x3]" in output
        assert "convergence_round" in output

    def test_fig7_quick_command_with_overrides(self, capsys):
        argv = ["run", "fig7-quick", "--set", "schedule.num_rounds=30", "--seed", "9"]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "Algorithm2" in output and "LLR" in output

    def test_fig8_quick_command_with_periods(self, capsys):
        argv = [
            "run", "fig8-quick",
            "--set", "schedule.periods=[1,2]",
            "--set", "schedule.num_periods=10",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "actual[Algorithm2][y=2]" in output

    def test_fig8_invalid_periods(self):
        with pytest.raises(SystemExit, match="periods"):
            main(["run", "fig8-quick", "--set", "schedule.periods=[]"])

    def test_complexity_command_defaults_to_quick(self, capsys):
        assert main(["run", "complexity-quick", "--seed", "4"]) == 0
        output = capsys.readouterr().out
        assert "max_messages_per_vertex" in output
        # Quick preset: small sweep.
        assert "10x3" in output and "60x3" not in output


class TestScenarioCommands:
    def test_list_shows_registered_scenarios(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ("fig6-paper", "fig7-quick", "fig8-quick", "complexity-paper"):
            assert name in output

    def test_list_mode_filters_to_protocol_presets(self, capsys):
        assert main(["list", "--mode", "protocol"]) == 0
        output = capsys.readouterr().out
        assert "fig6-paper" in output
        assert "faults-quick" in output
        assert "fig7-quick" not in output
        assert "churn-quick" not in output

    def test_list_mode_dynamic_selects_dynamics_presets(self, capsys):
        assert main(["list", "--mode", "dynamic"]) == 0
        output = capsys.readouterr().out
        assert "churn-quick" in output
        assert "mobility-quick" in output
        assert "fig7-quick" not in output

    def test_list_mode_per_round_excludes_dynamics_presets(self, capsys):
        assert main(["list", "--mode", "per-round"]) == 0
        output = capsys.readouterr().out
        assert "fig7-quick" in output
        assert "churn-quick" not in output

    def test_list_shows_which_presets_accept_overrides(self, capsys):
        assert main(["list", "--mode", "protocol"]) == 0
        output = capsys.readouterr().out
        # Protocol rows advertise the faults/transport override nodes.
        assert "faults,transport" in output

    def test_list_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["list", "--mode", "sideways"])

    def test_show_prints_valid_spec_json(self, capsys):
        assert main(["show", "fig7-quick"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "fig7-quick"
        assert payload["schedule"]["mode"] == "per-round"

    def test_run_prints_text_report(self, capsys):
        assert main(["run", "fig7-smoke"]) == 0
        output = capsys.readouterr().out
        assert "fig7-smoke" in output
        assert "practical_regret[Algorithm2]" in output

    def test_run_with_set_overrides(self, capsys):
        assert main(["run", "fig7-smoke", "--set", "schedule.num_rounds=10"]) == 0
        assert "fig7-smoke" in capsys.readouterr().out

    def test_run_unknown_scenario_exits_with_known_names(self):
        with pytest.raises(SystemExit, match="unknown scenario.*fig7-quick"):
            main(["run", "does-not-exist"])

    def test_run_bad_override_exits_with_path(self):
        with pytest.raises(SystemExit, match="schedule"):
            main(["run", "fig7-smoke", "--set", "schedule.bogus=1"])

    def test_run_mistyped_override_exits_cleanly(self):
        with pytest.raises(SystemExit, match="expected an integer.*'abc'"):
            main(["run", "fig7-smoke", "--set", "schedule.num_rounds=abc"])

    @pytest.mark.parametrize("command", ["run", "sweep", "submit"])
    def test_run_conflicting_seeds_rejected(self, command):
        argv = [command, "fig7-smoke", "--seed", "5", "--set", "seed=9"]
        if command == "submit":
            # Building the payload is enough: no server is needed.
            with pytest.raises(SpecError, match="conflicting seeds"):
                _submit_payload(build_parser().parse_args(argv))
            return
        if command == "sweep":
            argv.append("--no-store")
        with pytest.raises(SystemExit, match="conflicting seeds"):
            main(argv)

    def test_run_faults_on_a_protocol_preset_without_a_faults_node(self, capsys):
        # The docs' faults example: dotted paths into the unset `faults`
        # node start from its defaults.
        argv = [
            "run", "fig6-smoke",
            "--set", "faults.byzantine=0.2",
            "--set", "faults.behavior=weight-inflation",
            "--json", "-",
        ]
        assert main(argv) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["spec"]["faults"]["byzantine"] == 0.2
        assert envelope["spec"]["faults"]["behavior"] == "weight-inflation"

    def test_run_negative_seed_exits_cleanly(self):
        with pytest.raises(SystemExit, match="non-negative"):
            main(["run", "fig7-smoke", "--seed", "-3"])

    def test_show_unknown_scenario_exits(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["show", "does-not-exist"])

    def test_run_spec_file(self, tmp_path, capsys):
        from repro.spec import get_scenario

        spec_path = tmp_path / "custom.json"
        spec_path.write_text(json.dumps(get_scenario("fig7-smoke").to_dict()))
        assert main(["run", str(spec_path)]) == 0
        assert "fig7-smoke" in capsys.readouterr().out

    def test_run_missing_spec_file_exits(self):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["run", "no-such-spec.json"])

    @pytest.mark.parametrize(
        "content, problem",
        [
            (b"\xff\xfe{}", "not UTF-8"),
            (b"[" * 100000 + b"]" * 100000, "nested too deeply"),
            (b"{not json", "invalid JSON"),
        ],
        ids=["not-utf8", "nested", "not-json"],
    )
    def test_run_undecodable_spec_file_exits_naming_it(self, tmp_path, content, problem):
        spec_path = tmp_path / "broken.json"
        spec_path.write_bytes(content)
        with pytest.raises(SystemExit, match=f"repro: spec file .*broken.json.*{problem}"):
            main(["run", str(spec_path)])

    def test_run_json_export_parses_and_matches_run_scenario(self, tmp_path, capsys):
        """`repro run fig7-smoke --json` writes an envelope that passes strict
        validation, carries series, echoes its spec and matches the library."""
        from repro.spec import ExperimentResult, run_scenario

        out_path = tmp_path / "result.json"
        assert main(["run", "fig7-smoke", "--json", str(out_path)]) == 0
        capsys.readouterr()
        envelope = ExperimentResult.from_json(out_path.read_text())
        assert envelope.scenario == "fig7-smoke"
        assert envelope.series
        assert envelope.spec_object().name == "fig7-smoke"
        direct = run_scenario(get_scenario("fig7-smoke"))
        for name in ("Algorithm2", "LLR"):
            key = f"practical_regret[{name}]"
            assert envelope.series[key] == direct.series[key]

    def test_run_json_dash_prints_envelope(self, capsys):
        assert main(["run", "fig7-smoke", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.scenario-result/v1"
        assert payload["scenario"] == "fig7-smoke"


class TestSweepCommand:
    SWEEP_ARGS = [
        "sweep", "fig7-smoke",
        "--grid", "replication.replications=1,2",
        "--set", "schedule.num_rounds=8",
    ]

    def _run(self, tmp_path, capsys, *extra):
        store = str(tmp_path / "store")
        assert main([*self.SWEEP_ARGS, "--store", store, *extra]) == 0
        return capsys.readouterr().out

    def test_sweep_runs_and_reports_unit_accounting(self, tmp_path, capsys):
        output = self._run(tmp_path, capsys)
        assert "2 point(s)" in output
        assert "2 computed, 0 cached" in output
        assert "replication.replications=2" in output

    def test_rerun_reports_full_cache_hits(self, tmp_path, capsys):
        self._run(tmp_path, capsys)
        output = self._run(tmp_path, capsys)
        assert "0 computed, 2 cached" in output

    def test_stats_json_is_machine_checkable(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        self._run(tmp_path, capsys, "--stats-json", str(stats_path))
        stats = json.loads(stats_path.read_text())
        assert stats["points"] == 2
        assert stats["computed"] == 2
        assert stats["cached"] == 0
        self._run(tmp_path, capsys, "--stats-json", str(stats_path))
        stats = json.loads(stats_path.read_text())
        assert stats["computed"] == 0
        assert stats["cached"] == stats["unique_units"] == 2

    def test_json_envelope_export(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        self._run(tmp_path, capsys, "--json", str(out))
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.sweep-result/v1"
        assert len(payload["points"]) == 2

    def test_process_backend_through_the_cli(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        process = ["--backend", "process", "--jobs", "2", "--stats-json", str(stats_path)]
        output = self._run(tmp_path, capsys, *process)
        assert "backend=process" in output
        plan = SweepPlan.from_grid(
            "fig7-smoke-sweep",
            apply_overrides(get_scenario("fig7-smoke"), {"schedule.num_rounds": 8}),
            parse_grid_items(["replication.replications=1,2"]),
        )
        expected = {unit.hash for point in plan.points() for unit in plan_units(point)}
        assert set(ResultStore(tmp_path / "store").hashes()) == expected
        stats = json.loads(stats_path.read_text())
        assert stats["computed"] == stats["unique_units"] == len(expected)
        self._run(tmp_path, capsys, *process)
        stats = json.loads(stats_path.read_text())
        assert stats["computed"] == 0
        assert stats["cached"] == stats["unique_units"] == len(expected)

    def test_summarize_store_without_target(self, tmp_path, capsys):
        self._run(tmp_path, capsys)
        store = str(tmp_path / "store")
        assert main(["sweep", "--summarize", "--store", store]) == 0
        output = capsys.readouterr().out
        assert "2 valid entries" in output
        assert "fig7-smoke" in output

    def test_summarize_plan_does_not_run_anything(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([*self.SWEEP_ARGS, "--store", store, "--summarize"]) == 0
        output = capsys.readouterr().out
        assert "0/3 unit(s) cached" in output
        assert "pending" in output

    def test_list_plans(self, capsys):
        assert main(["sweep", "--list-plans"]) == 0
        output = capsys.readouterr().out
        for name in ("fig6-paper-sweep", "fig7-paper-sweep", "fig8-paper-sweep"):
            assert name in output

    def test_no_target_without_summarize_is_an_error(self):
        with pytest.raises(SystemExit, match="give a scenario"):
            main(["sweep"])

    def test_builtin_plan_rejects_grid_flags(self):
        with pytest.raises(SystemExit, match="built-in preset"):
            main(["sweep", "fig7-paper-sweep", "--grid", "seed=1,2"])

    def test_bad_grid_axis_exits_with_path(self):
        with pytest.raises(SystemExit, match="bogus"):
            main(["sweep", "fig7-smoke", "--grid", "schedule.bogus=1,2"])

    def test_unknown_backend_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["sweep", "fig7-smoke", "--backend", "gpu"])
