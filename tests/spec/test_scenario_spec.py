"""Tests for the declarative ScenarioSpec tree: round-trips and validation."""

import json

import pytest

from repro.spec import (
    ChannelSpec,
    DynamicsSpec,
    FaultSpec,
    PolicySpec,
    ScenarioSpec,
    ScheduleSpec,
    SpecError,
    TopologySpec,
    apply_overrides,
    default_registry,
    get_scenario,
    list_scenarios,
    parse_set_items,
    spec_hash,
)


class TestRoundTrip:
    @pytest.mark.parametrize("name", default_registry().names())
    def test_every_registered_scenario_round_trips(self, name):
        spec = get_scenario(name)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("name", default_registry().names())
    def test_every_registered_scenario_survives_json(self, name):
        spec = get_scenario(name)
        payload = json.dumps(spec.to_dict())
        assert ScenarioSpec.from_dict(json.loads(payload)) == spec

    def test_custom_scenario_with_pinned_means_round_trips(self):
        spec = ScenarioSpec(
            name="pinned",
            topology=TopologySpec(kind="ring", num_nodes=5, num_channels=2),
            channels=ChannelSpec(
                kind="mean-matrix",
                means=tuple((150.0, 300.0) for _ in range(5)),
            ),
            policies=(PolicySpec(kind="algorithm2", r=1),),
            schedule=ScheduleSpec(mode="per-round", num_rounds=10),
        )
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_tuples_are_restored_from_json_lists(self):
        spec = get_scenario("fig8-quick")
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert isinstance(restored.schedule.periods, tuple)
        assert isinstance(restored.policies, tuple)


class TestValidationMessages:
    def test_unknown_topology_kind_lists_choices(self):
        with pytest.raises(SpecError, match="topology.kind.*'donut'.*choose one of"):
            TopologySpec(kind="donut")

    def test_grid_shape_mismatch_is_explained(self):
        with pytest.raises(SpecError, match="num_nodes.*must equal.*rows \\* cols"):
            TopologySpec(kind="grid", num_nodes=7, rows=2, cols=3)

    def test_unknown_field_is_rejected_with_allowed_list(self):
        with pytest.raises(SpecError, match="unknown field.*'rownds'.*allowed"):
            ScheduleSpec.from_dict({"mode": "per-round", "rownds": 5})

    def test_nested_error_carries_the_path(self):
        data = get_scenario("fig7-quick").to_dict()
        data["policies"][1]["kind"] = "thompson"
        with pytest.raises(SpecError, match="policies\\[1\\].kind"):
            ScenarioSpec.from_dict(data)

    def test_negative_rounds_rejected(self):
        with pytest.raises(SpecError, match="num_rounds.*positive"):
            ScheduleSpec(mode="per-round", num_rounds=0)

    def test_periodic_needs_periods(self):
        with pytest.raises(SpecError, match="periods.*at least one"):
            ScheduleSpec(mode="periodic", periods=())

    def test_scenario_needs_a_policy(self):
        with pytest.raises(SpecError, match="at least one policy"):
            ScenarioSpec(name="empty", policies=())

    def test_duplicate_policy_labels_rejected(self):
        with pytest.raises(SpecError, match="duplicate policy label"):
            ScenarioSpec(
                name="dup",
                policies=(PolicySpec(kind="algorithm2"), PolicySpec(kind="algorithm2")),
            )

    def test_sweep_requires_protocol_mode(self):
        with pytest.raises(SpecError, match="network_sweep.*protocol"):
            ScenarioSpec(name="sweepy", network_sweep=((5, 2),))

    def test_mean_matrix_needs_means(self):
        with pytest.raises(SpecError, match="means.*mean-matrix"):
            ChannelSpec(kind="mean-matrix")

    def test_negative_seed_rejected_before_numpy_sees_it(self):
        with pytest.raises(SpecError, match="seed.*non-negative"):
            apply_overrides(get_scenario("fig7-quick"), {"seed": -3})

    def test_missing_name_rejected(self):
        with pytest.raises(SpecError, match="name"):
            ScenarioSpec.from_dict({"seed": 1})

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(SpecError, match="expected a JSON object"):
            ScenarioSpec.from_dict([1, 2, 3])

    @pytest.mark.parametrize(
        "cls, data, message",
        [
            (TopologySpec, {"kind": "grid"}, "^cfg: grid topologies"),
            (PolicySpec, {"r": 0}, "^cfg.r: the PTAS radius"),
            (ScheduleSpec, {"num_rounds": 0}, "^cfg.num_rounds: must be positive"),
            (FaultSpec, {"crash": 0.4, "byzantine": 0.4}, "^cfg: crash \\+ byzantine"),
        ],
    )
    def test_validation_errors_carry_the_callers_path(self, cls, data, message):
        with pytest.raises(SpecError, match=message):
            cls.from_dict(data, "cfg")

    def test_nested_validation_error_names_the_tuple_index(self):
        data = get_scenario("fig7-quick").to_dict()
        data["policies"][1]["r"] = 0
        with pytest.raises(SpecError, match="^scenario.policies\\[1\\].r: the PTAS"):
            ScenarioSpec.from_dict(data)

    def test_list_entries_are_type_checked_with_indexed_paths(self):
        data = get_scenario("fig8-quick").to_dict()
        data["schedule"]["periods"] = [1, "5"]
        with pytest.raises(SpecError, match="schedule.periods\\[1\\]: expected an integer"):
            ScenarioSpec.from_dict(data)

    def test_non_finite_numbers_rejected(self):
        data = get_scenario("fig7-quick").to_dict()
        data["alpha"] = float("inf")
        with pytest.raises(SpecError, match="alpha: expected a finite number"):
            ScenarioSpec.from_dict(data)


class TestOverrides:
    def test_dotted_paths_reach_nested_specs(self):
        spec = get_scenario("fig7-quick")
        out = apply_overrides(
            spec, {"seed": 9, "schedule.num_rounds": 33, "policies.0.r": 2}
        )
        assert (out.seed, out.schedule.num_rounds, out.policies[0].r) == (9, 33, 2)
        # The original frozen spec is untouched.
        assert (spec.seed, spec.schedule.num_rounds) == (2014, 120)

    def test_list_values_become_tuples(self):
        spec = get_scenario("fig8-quick")
        out = apply_overrides(spec, {"schedule.periods": [1, 2, 3]})
        assert out.schedule.periods == (1, 2, 3)

    def test_none_values_are_skipped(self):
        spec = get_scenario("fig7-quick")
        assert apply_overrides(spec, {"seed": None}) == spec

    def test_unknown_field_lists_alternatives(self):
        with pytest.raises(SpecError, match="no field 'rounds'.*num_rounds"):
            apply_overrides(get_scenario("fig7-quick"), {"schedule.rounds": 10})

    def test_bad_tuple_index_reported(self):
        with pytest.raises(SpecError, match="out of range"):
            apply_overrides(get_scenario("fig7-quick"), {"policies.7.r": 1})

    def test_invalid_override_value_fails_validation(self):
        with pytest.raises(SpecError, match="num_rounds.*positive"):
            apply_overrides(get_scenario("fig7-quick"), {"schedule.num_rounds": -4})

    def test_scalar_overrides_are_type_checked(self):
        spec = get_scenario("fig7-quick")
        with pytest.raises(SpecError, match="num_rounds.*integer.*'abc'"):
            apply_overrides(spec, {"schedule.num_rounds": "abc"})
        with pytest.raises(SpecError, match="num_rounds.*integer"):
            apply_overrides(spec, {"schedule.num_rounds": 20.5})
        with pytest.raises(SpecError, match="kind.*string"):
            apply_overrides(spec, {"topology.kind": 3})
        with pytest.raises(SpecError, match="true or false"):
            apply_overrides(spec, {"compute_optimal": 1})
        with pytest.raises(SpecError, match="expected a list"):
            apply_overrides(spec, {"schedule.periods": 5})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"faults.byzantine": 0.2, "faults.behavior": "weight-inflation"},
            {"faults": {"byzantine": 0.2, "behavior": "weight-inflation"}},
        ],
    )
    def test_override_into_an_unset_faults_node(self, overrides):
        spec = apply_overrides(get_scenario("fig6-quick"), overrides)
        assert spec.faults == FaultSpec(byzantine=0.2, behavior="weight-inflation")

    @pytest.mark.parametrize(
        "overrides",
        [{"dynamics.rate": 0.05}, {"dynamics": {"kind": "poisson-churn", "rate": 0.05}}],
    )
    def test_override_into_an_unset_dynamics_node(self, overrides):
        spec = apply_overrides(get_scenario("fig7-quick"), overrides)
        assert spec.dynamics == DynamicsSpec(rate=0.05)

    def test_object_override_that_fails_cross_validation_is_a_spec_error(self):
        with pytest.raises(SpecError, match="dynamics.*per-round"):
            apply_overrides(get_scenario("fig6-quick"), {"dynamics": {"kind": "poisson-churn"}})

    @pytest.mark.parametrize(
        "items, message",
        [
            (["schedule.periods=[1.5,2]"], "schedule.periods\\[0\\]: expected an integer"),
            (["policies.0.label=5"], "policies.0.label: expected a string"),
            (["network_sweep=[[10,2,3]]"], "network_sweep\\[0\\]: expected a list of 2"),
        ],
    )
    def test_overrides_that_could_not_round_trip_are_rejected(self, items, message):
        with pytest.raises(SpecError, match=message):
            apply_overrides(get_scenario("fig8-quick"), parse_set_items(items))

    def test_int_list_on_a_float_field_hashes_like_its_json(self):
        spec = apply_overrides(
            get_scenario("fig7-quick"), parse_set_items(["channels.rates=[1,2,3]"])
        )
        assert spec.channels.rates == (1.0, 2.0, 3.0)
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert spec_hash(restored) == spec_hash(spec)

    def test_parse_set_items_json_and_strings(self):
        parsed = parse_set_items(
            ["seed=7", "topology.kind=ring", "schedule.periods=[1,5]", "alpha=2.5"]
        )
        assert parsed == {
            "seed": 7,
            "topology.kind": "ring",
            "schedule.periods": [1, 5],
            "alpha": 2.5,
        }

    def test_parse_set_items_requires_equals(self):
        with pytest.raises(SpecError, match="KEY=VALUE"):
            parse_set_items(["seed"])


class TestBuild:
    def test_build_materializes_system_and_policies(self):
        spec = apply_overrides(get_scenario("fig7-smoke"), {"schedule.num_rounds": 5})
        system, factories = spec.build()
        assert system.conflict_graph.num_nodes == spec.topology.num_nodes
        assert set(factories) == {"Algorithm2", "LLR"}
        policy = factories["Algorithm2"]()
        assert policy.name

    def test_pinned_mean_matrix_is_used_verbatim(self):
        means = tuple((150.0, 900.0) for _ in range(4))
        spec = ScenarioSpec(
            name="pinned",
            topology=TopologySpec(kind="ring", num_nodes=4, num_channels=2),
            channels=ChannelSpec(kind="mean-matrix", means=means),
            policies=(PolicySpec(kind="algorithm2", r=1),),
            schedule=ScheduleSpec(mode="per-round", num_rounds=5),
        )
        system, _ = spec.build()
        assert system.channels.mean_matrix().tolist() == [list(row) for row in means]

    def test_mean_matrix_shape_mismatch_is_actionable(self):
        spec = ScenarioSpec(
            name="bad-shape",
            topology=TopologySpec(kind="ring", num_nodes=5, num_channels=2),
            channels=ChannelSpec(
                kind="mean-matrix", means=((150.0, 300.0), (300.0, 600.0))
            ),
            policies=(PolicySpec(kind="algorithm2", r=1),),
            schedule=ScheduleSpec(mode="per-round", num_rounds=5),
        )
        with pytest.raises(SpecError, match="does not match the topology"):
            spec.build()


class TestScenarioNames:
    def test_paper_and_quick_presets_exist_for_every_experiment(self):
        names = set(list_scenarios())
        for family in ("fig6", "fig7", "fig8", "complexity"):
            assert f"{family}-paper" in names
            assert f"{family}-quick" in names
