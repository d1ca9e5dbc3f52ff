"""ResultService semantics: caching, coalescing, quotas, failure, drain.

These tests drive the asyncio core directly (no sockets) with injected
unit runners, so every concurrency property is asserted deterministically:
gates instead of sleeps, invocation counters instead of timing.
"""

import asyncio
import copy
import json
import threading

import pytest

from repro.serve import (
    QuotaConfig,
    QuotaExceeded,
    ResultService,
    ServiceConfig,
    ServiceDraining,
)
from repro.spec import apply_overrides, run_scenario
from repro.sweep import ResultStore, SweepPlan, run_sweep
from repro.sweep.engine import plan_sweep

from serve_helpers import CountingRunner, GatedRunner


def _config(tmp_path, **kwargs):
    kwargs.setdefault("store", str(tmp_path / "store"))
    kwargs.setdefault("backend", "thread")
    kwargs.setdefault("jobs", 2)
    return ServiceConfig(**kwargs)


async def _wait_for(condition):
    """Poll ``condition`` on the event loop until it holds."""
    for _ in range(6000):
        if condition():
            return
        await asyncio.sleep(0.01)
    raise TimeoutError("condition never held")


async def _settle(service):
    """Wait for every in-flight job task of ``service`` to finish."""
    if service._tasks:
        await asyncio.wait_for(
            asyncio.gather(*service._tasks, return_exceptions=True), timeout=60
        )


def _normalized(envelope):
    """An envelope with its nondeterministic wall-clock fields removed."""
    data = json.loads(json.dumps(envelope))
    data.pop("wall_clock_s", None)
    if "summary" in data:
        data["summary"] = {
            k: v for k, v in data["summary"].items() if "wall_clock" not in k
        }
    return data


class TestConfig:
    def test_rejects_unknown_backend(self, tmp_path):
        from repro.spec import SpecError

        with pytest.raises(SpecError, match="backend"):
            _config(tmp_path, backend="gpu")

    def test_rejects_non_positive_jobs(self, tmp_path):
        from repro.spec import SpecError

        with pytest.raises(SpecError, match="jobs"):
            _config(tmp_path, jobs=0)


class TestCachingAndCoalescing:
    def test_concurrent_identical_submissions_compute_once(
        self, tmp_path, tiny_spec, tiny_result
    ):
        runner = GatedRunner(tiny_result)
        spec_dict = tiny_spec.to_dict()

        async def scenario():
            service = ResultService(_config(tmp_path), unit_runner=runner)
            submissions = [await service.submit_run(spec_dict) for _ in range(5)]
            jobs = {job.id for job, _ in submissions}
            assert len(jobs) == 1
            assert [created for _, created in submissions] == [True] + [False] * 4
            assert submissions[0][0].coalesced == 4
            runner.gate.set()
            await _settle(service)
            job = submissions[0][0]
            assert job.state == "done"
            assert job.computed_units == 1
            assert service.counter("serve.jobs.coalesced") == 4
            await service.drain()

        asyncio.run(scenario())
        assert runner.calls == 1  # five clients, one computation

    def test_warm_cache_after_restart_does_zero_work(
        self, tmp_path, tiny_spec, tiny_result
    ):
        spec_dict = tiny_spec.to_dict()
        first = CountingRunner(tiny_result)

        async def cold():
            service = ResultService(_config(tmp_path), unit_runner=first)
            job, _ = await service.submit_run(spec_dict)
            await _settle(service)
            assert job.state == "done"
            await service.drain()

        asyncio.run(cold())
        assert first.calls == 1

        second = CountingRunner(tiny_result)

        async def warm():
            # A fresh service over the same store: the "restart".
            service = ResultService(_config(tmp_path), unit_runner=second)
            job, created = await service.submit_run(spec_dict)
            assert created is True  # new service, new job table
            assert job.state == "done"  # completed synchronously
            assert job.cached_units == 1
            assert job.computed_units == 0
            assert service.counter("serve.units.cache_hit") == 1
            assert service.counter("serve.units.cache_miss") == 0
            await service.drain()

        asyncio.run(warm())
        assert second.calls == 0  # zero simulation work

    def test_finished_job_replays_without_new_work(
        self, tmp_path, tiny_spec, tiny_result
    ):
        runner = CountingRunner(tiny_result)
        spec_dict = tiny_spec.to_dict()

        async def scenario():
            service = ResultService(_config(tmp_path), unit_runner=runner)
            job, _ = await service.submit_run(spec_dict)
            await _settle(service)
            replay, created = await service.submit_run(spec_dict)
            assert replay is job
            assert created is False
            assert service.counter("serve.jobs.replayed") == 1
            await service.drain()

        asyncio.run(scenario())
        assert runner.calls == 1

    def test_corrupt_store_entry_self_heals(self, tmp_path, tiny_spec, tiny_result):
        runner = CountingRunner(tiny_result)
        spec_dict = tiny_spec.to_dict()

        async def scenario(expect_healed):
            service = ResultService(_config(tmp_path), unit_runner=runner)
            job, _ = await service.submit_run(spec_dict)
            await _settle(service)
            assert job.state == "done"
            assert job.healed_units == expect_healed
            await service.drain()

        asyncio.run(scenario(0))
        store = ResultStore(tmp_path / "store")
        path = store.path_for(store.hashes()[0])
        path.write_text(path.read_text()[:30])  # torn write
        asyncio.run(scenario(1))
        assert runner.calls == 2  # recomputed, not served corrupt
        assert store.load(store.hashes()[0]) is not None  # overwritten clean


class TestQuota:
    def test_quota_exhaustion_rejects_with_retry_after(
        self, tmp_path, tiny_spec, tiny_result
    ):
        runner = GatedRunner(tiny_result)
        config = _config(
            tmp_path, quota=QuotaConfig(max_inflight_jobs=1, units_per_minute=0)
        )

        async def scenario():
            service = ResultService(config, unit_runner=runner)
            await service.submit_run(tiny_spec.to_dict())
            other = apply_overrides(tiny_spec, {"seed": 777})
            with pytest.raises(QuotaExceeded) as excinfo:
                await service.submit_run(other.to_dict())
            assert excinfo.value.retry_after_s is not None
            assert service.counter("serve.quota_rejected") == 1
            runner.gate.set()
            await _settle(service)
            # Slot released on completion: the retry now succeeds.
            job, _ = await service.submit_run(other.to_dict())
            runner.gate.set()
            await _settle(service)
            assert job.state == "done"
            await service.drain()

        asyncio.run(scenario())

    def test_unit_budget_counts_only_computed_units(
        self, tmp_path, tiny_spec, tiny_result
    ):
        clock_now = [0.0]
        config = _config(
            tmp_path, quota=QuotaConfig(max_inflight_jobs=0, units_per_minute=1)
        )

        async def scenario():
            service = ResultService(
                config,
                unit_runner=CountingRunner(tiny_result),
                quota_clock=lambda: clock_now[0],
            )
            spec_dict = tiny_spec.to_dict()
            job, _ = await service.submit_run(spec_dict)
            await _settle(service)
            assert job.state == "done"
            # The 1 unit/minute budget is now spent: a new spec is rejected
            # until the bucket refills...
            other = apply_overrides(tiny_spec, {"seed": 31}).to_dict()
            with pytest.raises(QuotaExceeded) as excinfo:
                await service.submit_run(other)
            assert excinfo.value.retry_after_s == pytest.approx(60.0)
            clock_now[0] += 60.0
            job2, _ = await service.submit_run(other)
            await _settle(service)
            assert job2.state == "done"
            await service.drain()
            # ...but cache hits are free: a fresh service with the same
            # tiny budget serves the warm store without charging a unit.
            fresh = ResultService(
                _config(tmp_path, quota=QuotaConfig(0, 1)),
                unit_runner=CountingRunner(tiny_result),
                quota_clock=lambda: clock_now[0],
            )
            warm, _ = await fresh.submit_run(spec_dict)
            assert warm.state == "done"
            assert fresh.quotas.snapshot() == {}  # quota never consulted
            await fresh.drain()

        asyncio.run(scenario())


class TestFailureAndDrain:
    def test_runner_failure_fails_the_job_with_the_error(
        self, tmp_path, tiny_spec
    ):
        def explode(payload):
            raise RuntimeError("solver melted")

        async def scenario():
            service = ResultService(_config(tmp_path), unit_runner=explode)
            job, _ = await service.submit_run(tiny_spec.to_dict())
            await _settle(service)
            assert job.state == "failed"
            assert "solver melted" in job.error
            assert job.events[-1]["event"] == "failed"
            assert service.counter("serve.jobs.failed") == 1
            # The client slot was released despite the failure.
            assert service.quotas.snapshot()["anonymous"]["inflight_jobs"] == 0
            await service.drain()

        asyncio.run(scenario())

    def test_draining_rejects_new_submissions(self, tmp_path, tiny_spec, tiny_result):
        async def scenario():
            service = ResultService(
                _config(tmp_path), unit_runner=CountingRunner(tiny_result)
            )
            await service.drain()
            with pytest.raises(ServiceDraining):
                await service.submit_run(tiny_spec.to_dict())

        asyncio.run(scenario())

    def test_drain_waits_for_inflight_work(self, tmp_path, tiny_spec, tiny_result):
        runner = GatedRunner(tiny_result)

        async def scenario():
            service = ResultService(_config(tmp_path), unit_runner=runner)
            job, _ = await service.submit_run(tiny_spec.to_dict())
            runner.gate.set()
            await service.drain()
            assert job.state == "done"
            # The computed unit was persisted before shutdown completed.
            assert len(ResultStore(tmp_path / "store")) == 1

        asyncio.run(scenario())


class TestEnvelopes:
    def test_served_run_envelope_matches_run_scenario(self, tmp_path, tiny_spec):
        async def scenario():
            service = ResultService(_config(tmp_path))  # real execute_unit
            job, _ = await service.submit_run(tiny_spec.to_dict())
            await _settle(service)
            assert job.state == "done"
            await service.drain()
            return job.result

        served = asyncio.run(scenario())
        direct = run_scenario(tiny_spec).to_dict()
        assert _normalized(served) == _normalized(direct)
        # Key order of the envelope is part of the byte-identity contract.
        assert list(served) == list(direct)

    def test_served_sweep_envelope_matches_run_sweep(self, tmp_path, tiny_spec):
        def points(envelope):
            cleaned = []
            for point in envelope["points"]:
                entry = json.loads(json.dumps(point))
                entry["result"] = _normalized(entry["result"])
                cleaned.append(entry)
            return cleaned

        def corrupt(store, key_hash):
            path = ResultStore(store).path_for(key_hash)
            path.write_text(path.read_text()[:30])  # torn write

        # A grid over the seed computes two units into empty stores; a grid
        # over the replication count shares replication 0 between its
        # points, and that unit's entry is corrupt in a warm store.
        for name, grid, broken in (
            ("seeds", {"seed": [11, 12]}, False),
            ("reps", {"replication.replications": [1, 2]}, True),
        ):
            plan = SweepPlan.from_grid(name, tiny_spec, grid)
            served_store = str(tmp_path / name / "served")
            direct_store = str(tmp_path / name / "direct")
            if broken:
                shared = plan_sweep(plan).units_by_point[0][0].hash
                for store in (served_store, direct_store):
                    run_sweep(plan, store=store)
                    corrupt(store, shared)

            async def scenario():
                service = ResultService(_config(tmp_path, store=served_store))
                job, _ = await service.submit_sweep(
                    {"base": tiny_spec.to_dict(), "grid": grid, "name": name}
                )
                await _settle(service)
                assert job.state == "done"
                await service.drain()
                return job.result

            served = asyncio.run(scenario())
            direct = run_sweep(plan, store=direct_store).to_dict()

            assert points(served) == points(direct)
            assert served["plan"] == direct["plan"]
            for key in ("computed", "cached", "corrupt", "counters"):
                assert served["stats"][key] == direct["stats"][key], (name, key)
            expected = (1, 1, 1) if broken else (2, 0, 0)
            assert (
                served["stats"]["computed"],
                served["stats"]["cached"],
                served["stats"]["corrupt"],
            ) == expected

    def test_unit_timing_covers_only_the_jobs_own_units(
        self, tmp_path, tiny_spec, tiny_result
    ):
        # Each unit blocks on its own gate and reports a fixed wall clock:
        # job A's two 1 s units finish around job B's one 100 s unit.
        gates = {seed: threading.Event() for seed in (11, 12, 13)}
        wall_clock = {11: 1.0, 12: 1.0, 13: 100.0}

        def runner(payload):
            seed = payload[0]["seed"]
            if not gates[seed].wait(timeout=60):
                raise TimeoutError(f"gate of seed {seed} never opened")
            result = copy.deepcopy(tiny_result)
            result["wall_clock_s"] = wall_clock[seed]
            return result

        def sweep(seeds):
            return {"base": tiny_spec.to_dict(), "grid": {"seed": seeds}}

        async def scenario():
            service = ResultService(_config(tmp_path, jobs=3), unit_runner=runner)
            job_a, _ = await service.submit_sweep(sweep([11, 12]))
            job_b, _ = await service.submit_sweep(sweep([13]))
            gates[11].set()
            await _wait_for(lambda: job_a.computed_units == 1)
            gates[13].set()
            await _wait_for(lambda: job_b.state == "done")
            gates[12].set()
            await _settle(service)
            await service.drain()
            return job_a.result, job_b.result

        result_a, result_b = asyncio.run(scenario())
        timing_a = result_a["stats"]["unit_timing"]["thread"]
        timing_b = result_b["stats"]["unit_timing"]["thread"]
        assert (timing_a["count"], timing_a["total_s"]) == (2, 2.0)
        assert (timing_b["count"], timing_b["total_s"]) == (1, 100.0)

    def test_sweep_by_builtin_plan_name_is_accepted(self, tmp_path):
        from repro.spec import SpecError

        async def scenario():
            service = ResultService(_config(tmp_path))
            with pytest.raises(SpecError, match="built-in plan"):
                await service.submit_sweep({"plan": "no-such-plan"})
            with pytest.raises(SpecError, match="'plan' name"):
                await service.submit_sweep({})

        asyncio.run(scenario())

    def test_stats_payload_shape(self, tmp_path, tiny_spec, tiny_result):
        async def scenario():
            service = ResultService(
                _config(tmp_path), unit_runner=CountingRunner(tiny_result)
            )
            await service.submit_run(tiny_spec.to_dict(), token="alice")
            await _settle(service)
            stats = service.stats()
            assert stats["schema"] == "repro.serve-stats/v1"
            assert stats["job_states"] == {"done": 1}
            assert stats["counters"]["serve.units.computed"] == 1
            assert "alice" in stats["quota"]["clients"]
            json.dumps(stats)
            await service.drain()

        asyncio.run(scenario())
