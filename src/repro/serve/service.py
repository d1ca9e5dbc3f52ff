"""The results service: cached scenario/sweep execution behind submissions.

:class:`ResultService` is the transport-agnostic core of ``repro serve``.
Submissions (a scenario spec or a sweep plan) decompose into the sweep
engine's content-hashed work units; every unit already present in the
:class:`~repro.sweep.store.ResultStore` is a cache hit served without any
simulation, misses queue onto a bounded worker pool, and envelopes are
reassembled exactly as ``repro run`` / ``repro sweep`` build them — served
results are bit-identical to the CLI's.

Three properties make the service safe to hit from many clients at once:

* **Coalescing** — jobs are content-addressed, so N concurrent identical
  submissions attach to one in-flight job and the computation runs once.
* **Quotas** — per-client token buckets (computed units/minute) plus an
  in-flight-jobs cap; rejections say how long to back off.
* **Graceful drain** — shutdown stops admissions, finishes in-flight
  units, and persists every computed result before the process exits.

Everything that mutates service state runs on one asyncio event loop;
simulation happens off-loop in the worker pool.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro._codec import DecodeError, decode_fields
from repro.obs import current_observer
from repro.obs.metrics import MetricsRegistry
from repro.serve.jobs import Job, plan_job
from repro.serve.quota import QuotaConfig, QuotaRegistry
from repro.spec.canon import unit_key
from repro.spec.scenario import ScenarioSpec, SpecError
from repro.sweep.engine import SweepUnit, assemble, resolve
# Re-exported: benchmark harnesses wrap ``repro.serve.service.assemble_point``
# by name; envelopes assemble in ``repro.sweep.engine.assemble``.
from repro.sweep.engine import assemble_point  # noqa: F401
from repro.sweep.plan import SweepPlan
from repro.sweep.presets import builtin_plans, get_plan
from repro.sweep.store import ResultStore
from repro.sweep.worker import execute_unit

__all__ = [
    "ServiceConfig",
    "ResultService",
    "QuotaExceeded",
    "ServiceDraining",
    "STATS_SCHEMA",
]

#: Schema identifier of the stats payload (``/v1/stats`` and ``--stats-json``).
STATS_SCHEMA = "repro.serve-stats/v1"

#: Executor kinds accepted by :attr:`ServiceConfig.backend`.
_BACKENDS = ("serial", "thread", "process")


class QuotaExceeded(RuntimeError):
    """A submission was rejected by the client's quota (HTTP 429)."""

    def __init__(self, reason: str, retry_after_s: Optional[float]) -> None:
        super().__init__(reason)
        self.retry_after_s = retry_after_s


class ServiceDraining(RuntimeError):
    """The service is shutting down and admits no new work (HTTP 503)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one :class:`ResultService` instance."""

    #: Content-addressed store directory shared with ``repro sweep``.
    store: str = ".repro-store"
    #: Worker pool kind: ``process`` (true multicore), ``thread``, or
    #: ``serial`` (a single worker thread — tests and tiny deployments).
    backend: str = "process"
    #: Worker pool size (concurrent units in flight).
    jobs: int = 2
    quota: QuotaConfig = field(default_factory=QuotaConfig)
    #: Finished jobs kept addressable for replay/descriptor lookups.
    max_job_history: int = 256
    #: Seconds :meth:`drain` waits for in-flight jobs before giving up.
    drain_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise SpecError(
                f"serve: unknown backend {self.backend!r}; choose one of {list(_BACKENDS)}"
            )
        if self.jobs <= 0:
            raise SpecError(f"serve: jobs must be positive, got {self.jobs}")
        if self.max_job_history <= 0:
            raise SpecError(
                f"serve: max_job_history must be positive, got {self.max_job_history}"
            )


@dataclass(frozen=True)
class _SweepRequest:
    """The body of ``POST /v1/sweep``: a built-in ``plan``, or a ``base`` spec
    swept over ``grid`` (dotted path -> values) as plan ``name``."""

    plan: Optional[str] = None
    base: Optional[ScenarioSpec] = None
    grid: Dict[str, List[object]] = field(default_factory=dict)
    name: Optional[str] = None


class ResultService:
    """Content-addressed results-as-a-service over one :class:`ResultStore`.

    ``unit_runner`` is the callable executed per work unit (default: the
    sweep engine's :func:`~repro.sweep.worker.execute_unit`); tests inject
    instrumented runners to control timing deterministically.  It must be
    picklable when ``config.backend == "process"``.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        observer=None,
        unit_runner: Optional[Callable] = None,
        quota_clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServiceConfig()
        self.store = ResultStore(self.config.store)
        self.obs = observer if observer is not None else current_observer()
        self.metrics = MetricsRegistry()
        self.quotas = QuotaRegistry(config=self.config.quota, clock=quota_clock)
        self._unit_runner = unit_runner or execute_unit
        self._executor = None
        self._jobs: Dict[str, Job] = {}  # insertion-ordered: eviction order
        self._tasks: set = set()
        self._queued_units = 0
        self._draining = False
        self._started_at = time.time()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_executor(self):
        if self._executor is None:
            if self.config.backend == "process":
                self._executor = ProcessPoolExecutor(max_workers=self.config.jobs)
            else:
                workers = 1 if self.config.backend == "serial" else self.config.jobs
                self._executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-serve"
                )
        return self._executor

    @property
    def draining(self) -> bool:
        """Whether the service has stopped admitting new work."""
        return self._draining

    async def drain(self, timeout: Optional[float] = None) -> None:
        """Stop admissions, wait for in-flight jobs, persist everything.

        Jobs still unfinished after the timeout get a ``shutdown`` event so
        streaming clients are not left hanging.
        """
        self._draining = True
        pending = [task for task in self._tasks if not task.done()]
        if pending:
            await asyncio.wait(
                pending, timeout=timeout if timeout is not None else self.config.drain_timeout_s
            )
        for job in self._jobs.values():
            if not job.finished and job.subscribers:
                job.publish({"event": "shutdown", "job": job.id, "state": job.state})
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Submissions
    # ------------------------------------------------------------------
    async def submit_run(self, spec_dict: Dict, token: str = "anonymous") -> Tuple[Job, bool]:
        """Submit one scenario run; returns ``(job, created)``.

        ``created=False`` means the submission coalesced onto (or replayed)
        an existing job instead of creating new work.
        """
        spec = ScenarioSpec.from_dict(spec_dict, path="run.spec")
        plan = SweepPlan(name=spec.name, base=spec)
        return await self._submit("run", spec.name, plan, token)

    async def submit_sweep(self, payload: Dict, token: str = "anonymous") -> Tuple[Job, bool]:
        """Submit a sweep: ``{"plan": name}`` or ``{"base": spec, "grid": {...}}``."""
        try:
            body = _SweepRequest(**decode_fields(_SweepRequest, payload, "sweep"))
        except DecodeError as err:
            raise SpecError(str(err)) from None
        if body.plan is not None:
            if body.plan not in builtin_plans():
                raise SpecError(
                    f"sweep.plan: unknown built-in plan {body.plan!r} "
                    f"(available: {', '.join(sorted(builtin_plans()))})"
                )
            plan = get_plan(body.plan)
        elif body.base is not None:
            for path, values in body.grid.items():
                if not values:
                    raise SpecError(
                        f"sweep.grid[{path!r}]: expected a non-empty list of values"
                    )
            plan = SweepPlan.from_grid(
                body.name or f"{body.base.name}-sweep",
                body.base,
                {path: tuple(values) for path, values in body.grid.items()},
            )
        else:
            raise SpecError("sweep: body needs either a 'plan' name or a 'base' spec")
        return await self._submit("sweep", plan.name, plan, token)

    async def _submit(
        self, kind: str, name: str, plan: SweepPlan, token: str
    ) -> Tuple[Job, bool]:
        if self._draining:
            raise ServiceDraining("service is draining and admits no new jobs")
        job_plan = plan_job(kind, plan)
        key = job_plan.key
        job_id = key[:16]
        existing = self._jobs.get(job_id)
        if existing is not None:
            if existing.finished:
                self._count("serve.jobs.replayed")
            else:
                existing.coalesced += 1
                self._count("serve.jobs.coalesced")
            return existing, False

        # Resolve every unit against the store before admitting the job, so
        # quota only charges what actually computes.
        results, misses, healed = resolve(job_plan.work, self.store)
        self._count("serve.units.cache_hit", len(results))
        self._count("serve.units.cache_miss", len(misses))
        self._count("serve.units.self_heal", healed)

        if misses:
            decision = self.quotas.admit_job(token, len(misses))
            if not decision.allowed:
                self._count("serve.quota_rejected")
                raise QuotaExceeded(decision.reason, decision.retry_after_s)

        job = Job(
            id=job_id,
            key=key,
            kind=kind,
            name=name,
            owner=token,
            job_plan=job_plan,
            created_s=time.time(),
            cached_units=len(results),
            healed_units=healed,
        )
        self._remember(job)
        self._count("serve.jobs.submitted")
        if not misses:
            # Pure cache hit: the envelope assembles synchronously, with
            # zero simulation work — the warm-store fast path.
            job.state = "running"
            job.started_s = time.time()
            self._finish(job, results, wall_clock_s=0.0, computed_hashes=set())
            return job, True
        job.publish(
            {
                "event": "state",
                "job": job.id,
                "state": "queued",
                "total_units": job.total_units,
                "cached_units": job.cached_units,
            }
        )
        task = asyncio.get_running_loop().create_task(
            self._run_job(job, misses, results, token)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job, True

    def get_job(self, job_id: str) -> Optional[Job]:
        """Look up a job by id (``None`` when unknown or evicted)."""
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """All remembered jobs, oldest first."""
        return list(self._jobs.values())

    def _remember(self, job: Job) -> None:
        self._jobs[job.id] = job
        finished = [j for j in self._jobs.values() if j.finished]
        overflow = len(finished) - self.config.max_job_history
        for stale in finished[:max(0, overflow)]:
            del self._jobs[stale.id]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _run_job(
        self,
        job: Job,
        misses: List[SweepUnit],
        results: Dict[str, Dict],
        token: str,
    ) -> None:
        loop = asyncio.get_running_loop()
        executor = self._ensure_executor()
        started = time.perf_counter()
        with self.obs.span(
            "serve.job",
            job=job.id,
            kind=job.kind,
            target=job.name,
            units=job.total_units,
        ) as job_span:
            job.state = "running"
            job.started_s = time.time()
            job.publish({"event": "state", "job": job.id, "state": "running"})
            self._queued_units += len(misses)
            self._gauge_queue_depth()

            async def run_one(unit: SweepUnit) -> Tuple[SweepUnit, Dict]:
                result = await loop.run_in_executor(
                    executor, self._unit_runner, unit.payload()
                )
                return unit, result

            tasks = [asyncio.ensure_future(run_one(unit)) for unit in misses]
            try:
                for future in asyncio.as_completed(tasks):
                    unit, result_dict = await future
                    self.store.put(
                        unit.hash, unit_key(unit.spec, unit.replication), result_dict
                    )
                    results[unit.hash] = result_dict
                    job.computed_units += 1
                    self._queued_units -= 1
                    self._gauge_queue_depth()
                    self._count("serve.units.computed")
                    wall_clock = float(result_dict.get("wall_clock_s", 0.0))
                    self._observe("serve.unit_wall_clock_s", wall_clock)
                    job.publish(
                        {
                            "event": "progress",
                            "job": job.id,
                            "unit": unit.hash[:12],
                            "completed_units": job.cached_units + job.computed_units,
                            "total_units": job.total_units,
                        }
                    )
                self._finish(
                    job,
                    results,
                    wall_clock_s=time.perf_counter() - started,
                    computed_hashes={unit.hash for unit in misses},
                )
            except Exception as err:  # noqa: BLE001 - reported on the job
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                # Units that never completed leave the queue with the job.
                self._queued_units -= len(misses) - job.computed_units
                self._gauge_queue_depth()
                self._fail(job, f"{type(err).__name__}: {err}")
            finally:
                self.quotas.release(token)
                job_span.set_attrs(
                    state=job.state,
                    cached=job.cached_units,
                    computed=job.computed_units,
                )

    def _finish(
        self,
        job: Job,
        results: Dict[str, Dict],
        wall_clock_s: float,
        computed_hashes: set,
    ) -> None:
        try:
            sweep = assemble(
                job.job_plan.work,
                results,
                computed_hashes,
                backend=self.config.backend,
                jobs=self.config.jobs,
                corrupt=job.healed_units,
                wall_clock_s=wall_clock_s,
            )
            job.result = (
                sweep.outcomes[0].result.to_dict()
                if job.kind == "run"
                else sweep.to_dict()
            )
        except (SpecError, KeyError, ValueError) as err:
            self._fail(job, f"envelope assembly failed: {err}")
            return
        job.state = "done"
        job.finished_s = time.time()
        self._count("serve.jobs.completed")
        job.publish(
            {
                "event": "done",
                "job": job.id,
                "state": "done",
                "cached_units": job.cached_units,
                "computed_units": job.computed_units,
            }
        )

    def _fail(self, job: Job, error: str) -> None:
        job.state = "failed"
        job.error = error
        job.finished_s = time.time()
        self._count("serve.jobs.failed")
        job.publish({"event": "failed", "job": job.id, "state": "failed", "error": error})

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _count(self, name: str, value: int = 1) -> None:
        if value:
            self.metrics.count(name, value)
            self.obs.count(name, value)

    def _observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)
        self.obs.observe(name, value)

    def _gauge_queue_depth(self) -> None:
        self.metrics.gauge("serve.queue_depth", self._queued_units)
        self.obs.gauge("serve.queue_depth", self._queued_units)

    def counter(self, name: str) -> float:
        """Current value of one service counter (0 when never incremented)."""
        return self.metrics.counter_value(name)

    def stats(self) -> Dict[str, object]:
        """Machine-readable service statistics (``repro.serve-stats/v1``)."""
        snapshot = self.metrics.snapshot()
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "schema": STATS_SCHEMA,
            "store": str(self.store.root),
            "backend": self.config.backend,
            "jobs": self.config.jobs,
            "uptime_s": time.time() - self._started_at,
            "draining": self._draining,
            "job_states": {state: states[state] for state in sorted(states)},
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": snapshot["histograms"],
            "quota": {
                "max_inflight_jobs": self.config.quota.max_inflight_jobs,
                "units_per_minute": self.config.quota.units_per_minute,
                "clients": self.quotas.snapshot(),
            },
        }

