"""Tests for run_scenario and the ExperimentResult envelope."""

import pytest

from repro.spec import (
    ExperimentResult,
    RESULT_SCHEMA,
    SpecError,
    apply_overrides,
    get_scenario,
    run_scenario,
)
from repro.sim.backends import ThreadBackend


@pytest.fixture(scope="module")
def smoke_result():
    return run_scenario(get_scenario("fig7-smoke"))


class TestPerRoundScenario:
    def test_envelope_identity(self, smoke_result):
        assert smoke_result.scenario == "fig7-smoke"
        assert smoke_result.mode == "per-round"
        assert smoke_result.spec["name"] == "fig7-smoke"
        assert smoke_result.wall_clock_s > 0

    def test_series_cover_both_policies(self, smoke_result):
        for label in ("Algorithm2", "LLR"):
            for metric in (
                "expected_reward",
                "effective_throughput",
                "practical_regret",
                "beta_regret",
                "cumulative_practical_regret",
            ):
                assert f"{metric}[{label}]" in smoke_result.series

    def test_replication_series_have_one_row_per_replication(self, smoke_result):
        rows = smoke_result.replication_series["expected_reward[Algorithm2]"]
        assert len(rows) == 1
        assert len(rows[0]) == 40

    def test_summary_holds_the_scalars(self, smoke_result):
        summary = smoke_result.summary
        assert summary["theta"] == pytest.approx(0.5)
        assert summary["optimal_value"] > 0
        assert summary["theorem1_bound"] > 0

    def test_artifacts_expose_raw_batches(self, smoke_result):
        batches = smoke_result.artifacts["batches"]
        assert set(batches) == {"Algorithm2", "LLR"}
        assert batches["Algorithm2"].num_rounds == 40


class TestPeriodicScenario:
    @pytest.fixture(scope="class")
    def periodic_result(self):
        spec = apply_overrides(
            get_scenario("fig8-quick"),
            {"schedule.periods": [1, 2], "schedule.num_periods": 6},
        )
        return run_scenario(spec)

    def test_series_keyed_by_policy_and_period(self, periodic_result):
        for period in (1, 2):
            for label in ("Algorithm2", "LLR"):
                assert f"actual[{label}][y={period}]" in periodic_result.series
                assert f"estimated[{label}][y={period}]" in periodic_result.series

    def test_records_carry_period_efficiency(self, periodic_result):
        assert periodic_result.records["y=1"]["efficiency"] == pytest.approx(0.5)
        assert periodic_result.records["y=2"]["efficiency"] == pytest.approx(0.75)

    def test_policies_share_streams_within_a_replication(self, periodic_result):
        # Common random numbers: both policies replay the same spawned
        # channel stream, so their runs are directly comparable.
        runs = periodic_result.artifacts["periodic_runs"]
        assert runs[(1, "Algorithm2")][0].num_periods == 6


class TestProtocolScenario:
    @pytest.fixture(scope="class")
    def protocol_result(self):
        return run_scenario(get_scenario("complexity-quick"))

    def test_one_record_per_sweep_cell(self, protocol_result):
        assert set(protocol_result.records) == {"10x3", "20x3"}

    def test_records_respect_theoretical_bounds(self, protocol_result):
        for record in protocol_result.records.values():
            assert record["max_messages_per_vertex"] <= record["message_bound"]
            assert record["max_stored_weights"] <= record["num_vertices"]

    def test_weight_trajectories_non_decreasing(self, protocol_result):
        for name, series in protocol_result.series.items():
            assert name.startswith("weight[")
            assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))


class TestResultSerialization:
    def test_json_round_trip(self, smoke_result):
        restored = ExperimentResult.from_json(smoke_result.to_json())
        assert restored.scenario == smoke_result.scenario
        assert restored.mode == smoke_result.mode
        assert restored.series == {
            k: list(v) for k, v in smoke_result.series.items()
        }
        assert restored.summary == smoke_result.summary
        # Artifacts are in-process only.
        assert restored.artifacts == {}

    def test_spec_echo_rehydrates(self, smoke_result):
        assert smoke_result.spec_object() == get_scenario("fig7-smoke")

    def test_schema_marker_enforced(self, smoke_result):
        payload = smoke_result.to_dict()
        payload["schema"] = "something-else"
        with pytest.raises(SpecError, match="schema"):
            ExperimentResult.from_dict(payload)

    def test_missing_fields_reported(self):
        with pytest.raises(SpecError, match="missing field"):
            ExperimentResult.from_dict({"schema": RESULT_SCHEMA})

    def test_invalid_json_reported(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            ExperimentResult.from_json("{not json")


class TestFormatResult:
    def test_text_report_mentions_scenario_and_series(self, smoke_result):
        from repro.spec import format_result

        text = format_result(smoke_result)
        assert "fig7-smoke" in text
        assert "practical_regret[Algorithm2]" in text
        assert "theta" in text


@pytest.mark.parametrize("name", ["fig7-quick", "fig8-quick", "churn-quick"])
def test_replication_jobs_never_change_the_envelope(name, shrunk_spec):
    # Per-round, periodic and dynamic runs fan replications out through one
    # map; the echoed spec is the only envelope field jobs may reach.
    envelopes = []
    for jobs in (1, 3):
        spec = apply_overrides(
            shrunk_spec(name),
            {"replication.replications": 3, "replication.jobs": jobs},
        )
        data = run_scenario(spec).to_dict()
        del data["wall_clock_s"]
        data["summary"].pop("simulated_wall_clock_s", None)
        assert data["spec"]["replication"].pop("jobs") == jobs
        envelopes.append(data)
    assert envelopes[0] == envelopes[1]


def test_dynamic_runs_honour_replication_jobs(monkeypatch, shrunk_spec):
    seen_jobs = []
    thread_map = ThreadBackend.map

    def recording_map(self, fn, items, jobs):
        seen_jobs.append(jobs)
        return thread_map(self, fn, items, jobs)

    monkeypatch.setattr(ThreadBackend, "map", recording_map)
    spec = apply_overrides(
        shrunk_spec("churn-quick"),
        {"replication.replications": 3, "replication.jobs": 3},
    )
    run_scenario(spec)
    # One fan-out per policy, each on the scenario's three jobs.
    assert seen_jobs == [3] * len(spec.policies)
