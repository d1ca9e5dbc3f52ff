"""Sweep engine: resume, unit dedup, backend bit-equality, self-healing."""

import json

import pytest

from repro.spec import get_scenario, run_scenario
from repro.sweep import (
    ResultStore,
    SweepPlan,
    parse_grid_items,
    plan_units,
    run_sweep,
)


def _deterministic(result):
    """The fields that must be bit-identical across backends and runs."""
    return (
        result.series,
        result.replication_series,
        result.records,
        {k: v for k, v in result.summary.items() if "wall_clock" not in k},
    )


@pytest.fixture()
def smoke_plan():
    """fig7-smoke, shortened, gridded over the replication count."""
    from dataclasses import replace

    base = get_scenario("fig7-smoke")
    base = replace(base, schedule=replace(base.schedule, num_rounds=10))
    return SweepPlan.from_grid(
        "fig7-smoke-sweep", base, parse_grid_items(["replication.replications=1,2"])
    )


class TestUnitPlanning:
    def test_per_round_points_shard_per_replication(self, smoke_plan):
        one, two = smoke_plan.points()
        assert [u.replication for u in plan_units(one)] == [0]
        assert [u.replication for u in plan_units(two)] == [0, 1]

    def test_replication_grid_shares_units(self, smoke_plan):
        one, two = smoke_plan.points()
        assert plan_units(one)[0].hash == plan_units(two)[0].hash

    def test_protocol_points_are_whole_scenario_units(self):
        plan = SweepPlan.from_grid(
            "p", get_scenario("complexity-quick"), {"seed": [1, 2]}
        )
        for point in plan.points():
            units = plan_units(point)
            assert len(units) == 1
            assert units[0].replication is None


class TestResume:
    def test_rerun_is_served_entirely_from_the_store(self, tmp_path, smoke_plan):
        store = ResultStore(tmp_path / "store")
        first = run_sweep(smoke_plan, store=store)
        assert first.computed_units == 2  # 3 unit refs, 2 unique
        assert first.cached_units == 0
        assert first.total_units == 3

        second = run_sweep(smoke_plan, store=store)
        assert second.computed_units == 0
        assert second.cached_units == 2
        assert all(outcome.status == "cached" for outcome in second.outcomes)
        for a, b in zip(first.outcomes, second.outcomes):
            assert _deterministic(a.result) == _deterministic(b.result)

    def test_growing_the_grid_resumes_the_overlap(self, tmp_path):
        from dataclasses import replace

        base = get_scenario("fig7-smoke")
        base = replace(base, schedule=replace(base.schedule, num_rounds=10))
        store = ResultStore(tmp_path / "store")
        small = SweepPlan.from_grid(
            "s", base, parse_grid_items(["replication.replications=1"])
        )
        run_sweep(small, store=store)
        grown = SweepPlan.from_grid(
            "s", base, parse_grid_items(["replication.replications=1,2"])
        )
        sweep = run_sweep(grown, store=store)
        assert sweep.cached_units == 1  # replication 0 carried over
        assert sweep.computed_units == 1  # only replication 1 ran

    def test_corrupt_entry_is_recomputed_and_healed(self, tmp_path, smoke_plan):
        store = ResultStore(tmp_path / "store")
        first = run_sweep(smoke_plan, store=store)
        victim = first.outcomes[0].unit_hashes[0]
        store.path_for(victim).write_text("{broken")
        healed = run_sweep(smoke_plan, store=store)
        assert healed.corrupt_units == 1
        assert healed.computed_units == 1
        assert store.load(victim) is not None  # strict load passes again
        for a, b in zip(first.outcomes, healed.outcomes):
            assert _deterministic(a.result) == _deterministic(b.result)

    def test_byzantine_sweep_rerun_on_the_process_backend_computes_nothing(
        self, tmp_path
    ):
        from repro.sweep.presets import get_plan

        plan = get_plan("byzantine-sweep")
        store = ResultStore(tmp_path / "store")
        first = run_sweep(plan, store=store, backend="process", jobs=2)
        assert first.computed_units == first.stats()["unique_units"] > 0
        second = run_sweep(plan, store=store, backend="process", jobs=2)
        assert second.computed_units == 0
        assert second.cached_units == second.stats()["unique_units"] > 0
        for a, b in zip(first.outcomes, second.outcomes):
            assert _deterministic(a.result) == _deterministic(b.result)

    def test_storeless_run_recomputes_everything(self, smoke_plan):
        sweep = run_sweep(smoke_plan, store=None)
        assert sweep.computed_units == 2
        assert sweep.cached_units == 0


class TestBackendEquivalence:
    def test_merged_point_matches_direct_run_scenario(self, smoke_plan):
        sweep = run_sweep(smoke_plan, store=None)
        for outcome in sweep.outcomes:
            direct = run_scenario(outcome.point.spec)
            assert _deterministic(outcome.result) == _deterministic(direct)

    def test_process_backend_bit_identical_to_serial(self, tmp_path, smoke_plan):
        serial = run_sweep(smoke_plan, store=None, backend="serial")
        process = run_sweep(
            smoke_plan,
            store=ResultStore(tmp_path / "store"),
            backend="process",
            jobs=2,
        )
        assert [o.point.hash for o in serial.outcomes] == [
            o.point.hash for o in process.outcomes
        ]
        for a, b in zip(serial.outcomes, process.outcomes):
            assert _deterministic(a.result) == _deterministic(b.result)

    def test_thread_backend_bit_identical_to_serial(self, smoke_plan):
        serial = run_sweep(smoke_plan, store=None, backend="serial")
        threaded = run_sweep(smoke_plan, store=None, backend="thread", jobs=2)
        for a, b in zip(serial.outcomes, threaded.outcomes):
            assert _deterministic(a.result) == _deterministic(b.result)


class TestEnvelope:
    def test_sweep_result_serializes_with_stats(self, tmp_path, smoke_plan):
        sweep = run_sweep(smoke_plan, store=ResultStore(tmp_path / "store"))
        payload = sweep.to_dict()
        assert payload["schema"] == "repro.sweep-result/v1"
        assert payload["stats"]["points"] == 2
        assert payload["stats"]["computed"] == 2
        assert len(payload["points"]) == 2
        json.dumps(payload)  # JSON-clean
        # Point envelopes echo the *point* spec, not the normalized unit form.
        assert (
            payload["points"][1]["result"]["spec"]["replication"]["replications"]
            == 2
        )

    def test_point_result_validates_as_scenario_envelope(self, smoke_plan):
        from repro.spec import ExperimentResult

        sweep = run_sweep(smoke_plan, store=None)
        for outcome in sweep.outcomes:
            rehydrated = ExperimentResult.from_dict(outcome.result.to_dict())
            assert rehydrated.scenario == "fig7-smoke"
