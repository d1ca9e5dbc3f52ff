"""Declarative layer of the dynamics subsystem: spec, runner, sweep, CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.dynamics.events import NodeDeparture
from repro.spec import (
    ChannelSpec,
    DynamicsSpec,
    ExperimentResult,
    PolicySpec,
    ScenarioSpec,
    ScheduleSpec,
    SpecError,
    TopologySpec,
    get_scenario,
    run_scenario,
    spec_hash,
)
from repro.spec.overrides import apply_overrides
from repro.sweep import ResultStore, SweepPlan, get_plan, plan_units, run_sweep


def tiny_churn_spec(**overrides):
    spec = apply_overrides(
        get_scenario("churn-quick"),
        {"schedule.num_rounds": 30, "topology.num_nodes": 6, "dynamics.rate": 0.2},
    )
    return apply_overrides(spec, overrides) if overrides else spec


class TestDynamicsSpec:
    def test_round_trips_through_dicts(self):
        for spec in (
            DynamicsSpec(kind="poisson-churn", rate=0.1, arrival_bias=0.7),
            DynamicsSpec(kind="periodic-flap", period=25, flap_fraction=0.5),
            DynamicsSpec(kind="random-waypoint", speed=1.5, step_every=5),
            DynamicsSpec(
                kind="trace", trace=(NodeDeparture(round_index=4, node=1),)
            ),
        ):
            rebuilt = DynamicsSpec.from_dict(spec.to_dict())
            assert rebuilt == spec

    def test_trace_accepts_plain_dict_events(self):
        spec = DynamicsSpec(
            kind="trace",
            trace=({"type": "node-departure", "round_index": 2, "node": 0},),
        )
        assert spec.trace == (NodeDeparture(round_index=2, node=0),)

    def test_validation_errors_carry_paths(self):
        with pytest.raises(SpecError, match="dynamics.rate"):
            DynamicsSpec(kind="poisson-churn", rate=-1.0)
        with pytest.raises(SpecError, match="dynamics.flap_fraction"):
            DynamicsSpec(kind="periodic-flap", flap_fraction=2.0)
        with pytest.raises(SpecError, match="dynamics.trace"):
            DynamicsSpec(kind="trace")
        with pytest.raises(SpecError, match="dynamics.trace"):
            DynamicsSpec(kind="poisson-churn", trace=(NodeDeparture(round_index=1),))
        with pytest.raises(SpecError, match=r"dynamics\.trace\[0\]\.round_index"):
            DynamicsSpec(
                kind="trace",
                trace=({"type": "node-departure", "round_index": 0, "node": 1},),
            )

    def test_scenario_level_constraints(self):
        base = tiny_churn_spec()
        with pytest.raises(SpecError, match="per-round"):
            apply_overrides(base, {"schedule.mode": "protocol"})
        with pytest.raises(SpecError, match="oracle"):
            apply_overrides(base, {"policies.0.kind": "oracle"})
        with pytest.raises(SpecError, match="random-waypoint"):
            apply_overrides(
                base, {"dynamics.kind": "random-waypoint", "topology.kind": "ring"}
            )

    def test_scenario_json_round_trip_with_dynamics(self):
        spec = tiny_churn_spec()
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_schedule_generation_is_deterministic(self):
        spec = tiny_churn_spec()
        rng = np.random.default_rng(0)
        graph = spec.topology.build(rng)
        one = spec.dynamics.build_schedule(graph, 30, spec.seed)
        two = spec.dynamics.build_schedule(graph, 30, spec.seed)
        assert one == two
        assert one.content_hash() == two.content_hash()


class TestDynamicRunner:
    def test_churn_envelope_has_dynamics_metrics(self):
        result = run_scenario(tiny_churn_spec())
        assert result.mode == "dynamic"
        assert result.summary["num_events"] >= 1
        assert "avg_reconvergence_mini_rounds[Algorithm2]" in result.summary
        assert "total_messages[Algorithm2]" in result.summary
        assert "active_nodes" in result.series
        assert "dynamic_optimal" in result.series
        assert "dynamic_regret[Algorithm2]" in result.series
        assert any(key.startswith("event@r") for key in result.records)
        record = next(iter(result.records.values()))
        assert "reconvergence_mini_rounds[Algorithm2]" in record
        assert "messages[LLR]" in record
        rebuilt = ExperimentResult.from_json(result.to_json())
        assert rebuilt.spec_object() == tiny_churn_spec()

    def test_trace_dynamics_apply_exactly(self):
        spec = ScenarioSpec(
            name="trace-test",
            seed=5,
            topology=TopologySpec(kind="ring", num_nodes=6, num_channels=2),
            policies=(PolicySpec(kind="algorithm2", r=1),),
            schedule=ScheduleSpec(mode="per-round", num_rounds=12),
            dynamics=DynamicsSpec(
                kind="trace",
                trace=(
                    {"type": "node-departure", "round_index": 4, "node": 0},
                    {"type": "node-arrival", "round_index": 9, "node": 0},
                ),
            ),
        )
        result = run_scenario(spec)
        active = result.series["active_nodes"]
        assert active[:3] == [6.0, 6.0, 6.0]
        assert active[3:8] == [5.0] * 5
        assert active[8:] == [6.0] * 4

    def test_mobility_preset_runs_end_to_end(self):
        spec = apply_overrides(
            get_scenario("mobility-quick"),
            {"schedule.num_rounds": 20, "topology.num_nodes": 6},
        )
        result = run_scenario(spec)
        assert result.mode == "dynamic"
        assert result.summary["num_events"] == 2 * 6  # two steps, every node moves


class TestChannelKindsWiring:
    def test_gilbert_elliott_reachable_from_spec(self):
        spec = apply_overrides(
            get_scenario("fig7-smoke"),
            {"channels.kind": "gilbert-elliott", "compute_optimal": False},
        )
        result = run_scenario(spec)
        assert result.series["expected_reward[Algorithm2]"]

    def test_adversarial_reachable_from_spec(self):
        spec = apply_overrides(
            get_scenario("fig7-smoke"),
            {
                "channels.kind": "adversarial",
                "channels.adversarial_period": 4,
                "compute_optimal": False,
            },
        )
        result = run_scenario(spec)
        assert result.series["expected_reward[Algorithm2]"]

    def test_stateful_channels_reject_replications(self):
        with pytest.raises(SpecError, match="replications"):
            apply_overrides(
                get_scenario("fig7-smoke"),
                {
                    "channels.kind": "gilbert-elliott",
                    "replication.replications": 2,
                },
            )

    def test_ge_parameters_validated_with_paths(self):
        with pytest.raises(SpecError, match="channels.ge_bad_fraction"):
            ChannelSpec(kind="gilbert-elliott", ge_bad_fraction=1.5)
        with pytest.raises(SpecError, match="channels.adversarial_period"):
            ChannelSpec(kind="adversarial", adversarial_period=0)

    def test_build_means_matches_build_state(self):
        spec = ChannelSpec(kind="gilbert-elliott")
        means = spec.build_means(4, 2, np.random.default_rng(3))
        state = spec.build_state(4, 2, np.random.default_rng(3))
        assert np.allclose(means, state.mean_matrix())
        assert state.has_stateful_models

    def test_channel_spec_round_trips(self):
        spec = ChannelSpec(
            kind="adversarial", adversarial_period=8, rates=(1.0, 2.0)
        )
        assert ChannelSpec.from_dict(spec.to_dict()) == spec

    def test_policies_are_isolated_from_each_others_channel_state(self):
        from dataclasses import replace

        base = apply_overrides(
            get_scenario("fig7-smoke"),
            {"channels.kind": "gilbert-elliott", "compute_optimal": False},
        )
        both = run_scenario(base)
        llr_only = run_scenario(replace(base, policies=(base.policies[1],)))
        # LLR's trace must not depend on Algorithm2 having sampled the
        # shared Markov chains first.
        assert (
            both.series["expected_reward[LLR]"]
            == llr_only.series["expected_reward[LLR]"]
        )

    def test_kind_irrelevant_knobs_are_rejected(self):
        with pytest.raises(SpecError, match="channels.ge_bad_fraction"):
            ChannelSpec(kind="paper-rates", ge_bad_fraction=0.7)
        with pytest.raises(SpecError, match="channels.adversarial_period"):
            ChannelSpec(kind="gilbert-elliott", adversarial_period=8)
        with pytest.raises(SpecError, match="channels.relative_std"):
            ChannelSpec(kind="adversarial", relative_std=0.2)
        with pytest.raises(SpecError, match="dynamics.period"):
            DynamicsSpec(kind="poisson-churn", period=10)
        with pytest.raises(SpecError, match="dynamics.rate"):
            DynamicsSpec(kind="periodic-flap", rate=0.5)
        with pytest.raises(SpecError, match="dynamics.speed"):
            DynamicsSpec(kind="poisson-churn", speed=2.0)


class TestSolverThreading:
    def test_solver_choice_reaches_the_dynamics_engine(self):
        exact = run_scenario(tiny_churn_spec(**{"policies.0.solver": "exact"}))
        greedy = run_scenario(tiny_churn_spec(**{"policies.0.solver": "greedy"}))
        # Both run end-to-end; the spec echo records the choice.
        assert exact.spec["policies"][0]["solver"] == "exact"
        assert greedy.spec["policies"][0]["solver"] == "greedy"

    def test_solver_override_changes_the_spec_hash(self):
        assert spec_hash(tiny_churn_spec(**{"policies.0.solver": "exact"})) != spec_hash(
            tiny_churn_spec(**{"policies.0.solver": "greedy"})
        )


class TestHashCompatibility:
    """Specs expressible before the dynamics subsystem keep their hashes.

    ``canonical_spec_dict`` omits default-valued extension fields, so a
    results store populated by an earlier release keeps resolving (see
    ``ENGINE_VERSION`` in ``repro/spec/canon.py``).
    """

    def test_default_extension_fields_are_stripped_from_the_hashed_form(self):
        from repro.spec import canonical_spec_dict

        data = canonical_spec_dict(get_scenario("fig7-smoke"))
        assert "dynamics" not in data
        assert "ge_bad_fraction" not in data["channels"]
        assert "adversarial_period" not in data["channels"]
        # The stripped form still rehydrates to the identical spec.
        assert ScenarioSpec.from_dict(data) == get_scenario("fig7-smoke")

    def test_non_default_extension_fields_are_hashed(self):
        from repro.spec import canonical_spec_dict

        dynamic = canonical_spec_dict(tiny_churn_spec())
        assert dynamic["dynamics"]["kind"] == "poisson-churn"
        ge = canonical_spec_dict(
            apply_overrides(
                get_scenario("fig7-smoke"),
                {"channels.kind": "gilbert-elliott", "channels.ge_bad_fraction": 0.5},
            )
        )
        assert ge["channels"]["ge_bad_fraction"] == 0.5
        assert spec_hash(get_scenario("fig7-smoke")) != spec_hash(
            apply_overrides(
                get_scenario("fig7-smoke"), {"channels.kind": "gilbert-elliott"}
            )
        )


class TestDynamicSweep:
    def test_dynamic_scenarios_are_whole_scenario_units(self):
        plan = SweepPlan.from_grid(
            "churn-test", tiny_churn_spec(), {"dynamics.rate": [0.1, 0.2]}
        )
        for point in plan.points():
            units = plan_units(point)
            assert len(units) == 1
            assert units[0].replication is None

    def test_churn_rate_sweep_dedups_in_the_store(self, tmp_path):
        plan = SweepPlan.from_grid(
            "churn-test",
            tiny_churn_spec(),
            {"dynamics.rate": [0.1, 0.2]},
        )
        store = ResultStore(tmp_path / "store")
        first = run_sweep(plan, store=store)
        assert first.computed_units == 2
        assert first.cached_units == 0
        again = run_sweep(plan, store=store)
        assert again.computed_units == 0
        assert again.cached_units == 2
        # Growing the grid only computes the new point.
        grown = run_sweep(
            SweepPlan.from_grid(
                "churn-test",
                tiny_churn_spec(),
                {"dynamics.rate": [0.1, 0.2, 0.3]},
            ),
            store=store,
        )
        assert grown.computed_units == 1
        assert grown.cached_units == 2

    def test_registered_churn_rate_sweep_dedups_on_the_process_backend(self, tmp_path):
        plan = get_plan("churn-rate-sweep")
        store = ResultStore(tmp_path / "store")
        first = run_sweep(plan, store=store, backend="process", jobs=2)
        assert first.computed_units > 0
        assert first.cached_units == 0
        again = run_sweep(plan, store=store, backend="process", jobs=2)
        assert again.computed_units == 0
        assert again.cached_units == first.computed_units

    def test_sweep_results_match_direct_runs(self, tmp_path):
        plan = SweepPlan.from_grid(
            "churn-test", tiny_churn_spec(), {"dynamics.rate": [0.15]}
        )
        sweep = run_sweep(plan, store=ResultStore(tmp_path / "store"))
        direct = run_scenario(tiny_churn_spec(**{"dynamics.rate": 0.15}))
        (outcome,) = sweep.outcomes
        assert outcome.result.series == direct.series
        assert outcome.result.summary == direct.summary


class TestDynamicsCLI:
    def test_run_churn_quick_with_overrides_and_json(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert (
            main(
                [
                    "run",
                    "churn-quick",
                    "--set",
                    "schedule.num_rounds=25",
                    "--set",
                    "topology.num_nodes=6",
                    "--json",
                    str(out),
                ]
            )
            == 0
        )
        result = ExperimentResult.from_json(out.read_text())
        assert result.mode == "dynamic"
        assert result.summary["num_events"] >= 0
        assert "active_nodes" in result.series
        capsys.readouterr()

    def test_run_registered_churn_quick_json(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["run", "churn-quick", "--json", str(out)]) == 0
        result = ExperimentResult.from_json(out.read_text())
        assert result.mode == "dynamic"
        assert result.summary["num_events"] > 0
        assert "avg_reconvergence_mini_rounds[Algorithm2]" in result.summary
        assert "active_nodes" in result.series
        assert "dynamic_regret[Algorithm2]" in result.series
        assert any(key.startswith("event@r") for key in result.records)
        capsys.readouterr()

    def test_list_shows_dynamic_mode(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "churn-quick" in output
        assert "dynamic/poisson-churn" in output
        assert "mobility-quick" in output
