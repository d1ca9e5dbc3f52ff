"""Job planning and content-derived identity."""

import asyncio

import pytest

from repro.serve import plan_job
from repro.serve.jobs import JOB_SCHEMA, Job
from repro.spec import apply_overrides
from repro.sweep import SweepPlan


@pytest.fixture()
def run_plan(tiny_spec):
    return SweepPlan(name=tiny_spec.name, base=tiny_spec)


class TestPlanJob:
    def test_run_plan_is_one_point(self, run_plan):
        job_plan = plan_job("run", run_plan)
        assert job_plan.kind == "run"
        assert len(job_plan.work.points) == 1
        assert len(job_plan.work.unique_units) == 1

    def test_unknown_kind_rejected(self, run_plan):
        with pytest.raises(ValueError, match="kind"):
            plan_job("batch", run_plan)

    def test_replication_grid_dedups_shared_units(self, tiny_spec):
        plan = SweepPlan.from_grid(
            "reps", tiny_spec, {"replication.replications": [1, 2]}
        )
        job_plan = plan_job("sweep", plan)
        # Point 1 (2 reps) shares replication 0 with point 0.
        assert len(job_plan.work.points) == 2
        assert len(job_plan.work.unique_units) == 2

    def test_key_is_deterministic_and_kind_scoped(self, run_plan):
        a = plan_job("run", run_plan)
        b = plan_job("run", run_plan)
        sweep = plan_job("sweep", run_plan)
        assert a.key == b.key
        assert len(a.key) == 64
        assert a.key != sweep.key  # same units, different envelope shape

    def test_key_normalizes_the_jobs_field(self, tiny_spec, run_plan):
        # `jobs` is execution detail, not content: same results either way.
        other = apply_overrides(tiny_spec, {"replication.jobs": 4})
        assert plan_job("run", SweepPlan(name=other.name, base=other)).key == (
            plan_job("run", run_plan).key
        )

    def test_key_depends_on_the_spec(self, tiny_spec, run_plan):
        other = apply_overrides(tiny_spec, {"seed": 999})
        assert plan_job("run", SweepPlan(name=other.name, base=other)).key != (
            plan_job("run", run_plan).key
        )

    def test_schema_constant_is_versioned(self):
        assert JOB_SCHEMA == "repro.serve-job/v1"


class TestJobEvents:
    def _job(self, run_plan):
        job_plan = plan_job("run", run_plan)
        return Job(
            id=job_plan.key[:16],
            key=job_plan.key,
            kind="run",
            name="tiny",
            owner="t",
            job_plan=job_plan,
            created_s=0.0,
        )

    def test_describe_is_json_ready(self, run_plan):
        import json

        descriptor = self._job(run_plan).describe()
        assert descriptor["state"] == "queued"
        assert descriptor["total_units"] == 1
        json.dumps(descriptor)

    def test_late_subscriber_replays_history(self, run_plan):
        async def scenario():
            job = self._job(run_plan)
            job.publish({"event": "state", "state": "running"})
            job.publish({"event": "progress", "completed_units": 1})
            queue = job.subscribe()
            job.publish({"event": "done"})
            events = [queue.get_nowait()["event"] for _ in range(3)]
            assert events == ["state", "progress", "done"]
            job.unsubscribe(queue)
            job.publish({"event": "late"})
            assert queue.empty()

        asyncio.run(scenario())
