"""FaultSpec validation, serialization and runner wiring."""

import dataclasses

import pytest

from repro.spec import (
    FaultSpec,
    ScenarioSpec,
    SpecError,
    apply_overrides,
    get_scenario,
    run_scenario,
    spec_hash,
)
from repro.spec.canon import canonical_spec_dict


def faults_scenario(**fault_kwargs):
    base = get_scenario("faults-quick")
    return dataclasses.replace(base, faults=FaultSpec(**fault_kwargs))


class TestValidation:
    def test_defaults_are_inactive(self):
        spec = FaultSpec()
        assert not spec.is_active

    def test_fraction_bounds(self):
        with pytest.raises(SpecError, match="faults.crash"):
            FaultSpec(crash=1.0)
        with pytest.raises(SpecError, match="faults.byzantine"):
            FaultSpec(byzantine=-0.1)

    def test_honest_majority_required(self):
        with pytest.raises(SpecError, match="0.5"):
            FaultSpec(crash=0.3, byzantine=0.3)

    def test_behavior_gated_on_byzantine(self):
        with pytest.raises(SpecError, match="behavior"):
            FaultSpec(crash=0.1, behavior="weight-inflation")
        FaultSpec(byzantine=0.1, behavior="weight-inflation")  # fine

    def test_unknown_behavior_rejected(self):
        with pytest.raises(SpecError, match="behavior"):
            FaultSpec(byzantine=0.1, behavior="sulking")

    def test_quorum_knobs_gated_on_quorum(self):
        with pytest.raises(SpecError, match="quorum_threshold"):
            FaultSpec(crash=0.1, quorum_threshold=3)
        with pytest.raises(SpecError, match="eps"):
            FaultSpec(crash=0.1, eps=0.2)
        FaultSpec(crash=0.1, quorum=True, quorum_threshold=3, eps=0.2)  # fine

    def test_max_crash_round_gated_on_crash(self):
        with pytest.raises(SpecError, match="max_crash_round"):
            FaultSpec(byzantine=0.1, max_crash_round=5)

    def test_faults_require_protocol_mode(self):
        per_round = get_scenario("fig7-quick")
        with pytest.raises(SpecError, match="faults"):
            dataclasses.replace(per_round, faults=FaultSpec(crash=0.1))


class TestSerialization:
    def test_round_trip(self):
        spec = FaultSpec(
            crash=0.1, byzantine=0.2, behavior="winner-usurpation",
            max_crash_round=2, quorum=True, quorum_threshold=3, eps=0.01, seed=5,
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="gremlins"):
            FaultSpec.from_dict({"crash": 0.1, "gremlins": True})

    def test_scenario_round_trip_carries_faults(self):
        spec = faults_scenario(crash=0.1, byzantine=0.1, quorum=True)
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.faults is not None

    def test_error_paths_are_prefixed(self):
        data = faults_scenario(crash=0.1).to_dict()
        data["faults"]["crash"] = 2.0
        with pytest.raises(SpecError, match="scenario.faults.crash"):
            ScenarioSpec.from_dict(data)


class TestCanonicalization:
    def test_absent_faults_node_is_stripped_from_the_hash(self):
        # Specs expressible before the faults field existed must keep their
        # content hash: the canonical dict simply omits the None node.
        spec = get_scenario("fig6-smoke")
        canonical = canonical_spec_dict(spec)
        assert "faults" not in canonical

    def test_present_faults_node_changes_the_hash(self):
        base = get_scenario("fig6-smoke")
        withf = dataclasses.replace(base, faults=FaultSpec(crash=0.1))
        assert spec_hash(base) != spec_hash(withf)
        assert "faults" in canonical_spec_dict(withf)


class TestPresetsAndRunner:
    def test_fault_presets_registered(self):
        for name in ("faults-quick", "faults-paper"):
            spec = get_scenario(name)
            assert spec.faults is not None and spec.faults.is_active
            assert spec.schedule.mode == "protocol"
        assert get_scenario("faults-paper").faults.quorum

    def test_byzantine_sweep_plan_exists(self):
        from repro.sweep.presets import get_plan

        plan = get_plan("byzantine-sweep")
        paths = {axis.path for axis in plan.axes}
        assert paths == {"faults.byzantine", "faults.quorum"}

    def test_fault_records_surface_in_the_envelope(self):
        arms = (
            ({}, 0.2),  # mixed crash + Byzantine
            ({"faults.byzantine": 0.0}, 0.1),  # crash-only
            ({"faults.quorum": True}, 0.2),  # quorum mitigation
        )
        for overrides, fraction in arms:
            spec = apply_overrides(get_scenario("faults-quick"), overrides)
            record = run_scenario(spec).records["20x3"]
            for key in (
                "fault_fraction", "num_crashed", "num_byzantine",
                "corrupted_winner_rate", "honest_winner_weight",
                "baseline_winner_weight", "fault_regret", "reconvergence_cost",
                "final_winners",
            ):
                assert key in record, (overrides, key)
            assert record["fault_fraction"] == pytest.approx(fraction), overrides

    def test_honest_records_carry_no_fault_fields(self):
        result = run_scenario(get_scenario("fig6-smoke"))
        for record in result.records.values():
            assert not any(k.startswith("fault") for k in record)
            assert "corrupted_winner_rate" not in record

    def test_quorum_strictly_reduces_corruption_at_the_same_seed(self):
        spec = get_scenario("faults-quick")
        plain = run_scenario(spec).records["20x3"]
        hardened = run_scenario(
            apply_overrides(spec, {"faults.quorum": True})
        ).records["20x3"]
        assert plain["corrupted_winner_rate"] > 0.0
        assert (
            hardened["corrupted_winner_rate"] < plain["corrupted_winner_rate"]
        )

    def test_corrupted_winners_monotone_in_byzantine_fraction(self):
        spec = get_scenario("faults-quick")
        curve = []
        for fraction in (0.0, 0.1, 0.2, 0.3):
            rec = run_scenario(
                apply_overrides(spec, {"faults.byzantine": fraction})
            ).records["20x3"]
            curve.append(rec["corrupted_winners"])
        assert curve == sorted(curve)
        assert curve[-1] > curve[0]

    def test_regret_monotone_in_crash_fraction(self):
        spec = get_scenario("faults-quick")
        curve = []
        for fraction in (0.05, 0.1, 0.2, 0.3):
            rec = run_scenario(
                apply_overrides(
                    spec, {"faults.byzantine": 0.0, "faults.crash": fraction}
                )
            ).records["20x3"]
            curve.append(rec["fault_regret"])
        assert curve == sorted(curve)
        assert curve[-1] > curve[0]

    def test_inactive_faults_take_the_honest_code_path(self):
        spec = get_scenario("faults-quick")
        inactive = apply_overrides(
            spec, {"faults.crash": 0.0, "faults.byzantine": 0.0}
        )
        without = dataclasses.replace(spec, faults=None)
        a = run_scenario(inactive).to_dict()
        b = run_scenario(without).to_dict()
        for field in ("wall_clock_s", "spec"):
            a.pop(field), b.pop(field)
        assert a == b

    def test_nested_plans_grow_with_the_fraction(self):
        spec = get_scenario("faults-quick").faults
        small = spec.build_plan(60, run_seed=2014, cell=(20, 3))
        grown = dataclasses.replace(spec, byzantine=0.2).build_plan(
            60, run_seed=2014, cell=(20, 3)
        )
        assert set(small.byzantine) <= set(grown.byzantine)
        assert small.crashes == grown.crashes
