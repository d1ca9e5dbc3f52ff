"""Job model of the results service.

A *job* is one submitted piece of work — a single scenario run or a whole
sweep — decomposed into the same content-hashed work units the sweep engine
uses.  Jobs are identified by the SHA-256 of their canonical content
(``repro.serve-job/v1``: the kind plus every point's canonical spec and
unit hashes), which is what makes deduplication trivial: two clients
submitting the same scenario — concurrently or hours apart — land on the
same job id, so concurrent identical submissions coalesce onto one
in-flight computation and a completed job answers replays instantly.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.spec.canon import canonical_json, canonical_spec_dict
from repro.sweep.engine import SweepUnit, SweepWork, plan_sweep
from repro.sweep.plan import SweepPlan, SweepPoint

__all__ = ["JOB_SCHEMA", "Job", "JobPlan", "job_key", "plan_job"]

#: Schema identifier hashed into every job key.
JOB_SCHEMA = "repro.serve-job/v1"


@dataclass(frozen=True)
class JobPlan:
    """A submission's kind and its planned sweep work."""

    kind: str  # "run" | "sweep"
    work: SweepWork

    @property
    def key(self) -> str:
        """Content hash identifying this job (see :func:`job_key`)."""
        return job_key(self.kind, self.work.points, self.work.units_by_point)


def plan_job(kind: str, plan: SweepPlan) -> JobPlan:
    """Expand a submission into its :class:`JobPlan`."""
    if kind not in ("run", "sweep"):
        raise ValueError(f"job kind must be 'run' or 'sweep', got {kind!r}")
    return JobPlan(kind=kind, work=plan_sweep(plan))


def job_key(
    kind: str,
    points: List[SweepPoint],
    units_by_point: Dict[int, List[SweepUnit]],
) -> str:
    """Canonical content hash of one job.

    Covers the kind, every point's canonical (jobs-normalized) spec and its
    unit hashes — so two submissions describe the same job exactly when
    they would produce the same envelope from the same stored units.
    """
    payload = {
        "schema": JOB_SCHEMA,
        "kind": kind,
        "points": [
            {
                "spec": canonical_spec_dict(point.spec),
                "units": [unit.hash for unit in units_by_point[point.index]],
            }
            for point in points
        ],
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class Job:
    """One submitted job and its live execution state.

    Mutated only on the service's event loop, so no locking is needed;
    cross-thread readers go through the HTTP API or :meth:`describe`.
    """

    id: str
    key: str
    kind: str
    name: str  # scenario or plan name, for humans
    owner: str  # client token that created the job
    job_plan: JobPlan
    created_s: float
    #: ``queued -> running -> done | failed``.  A job whose units are all
    #: store hits passes through ``running`` to ``done`` inside the submit
    #: call and publishes no ``queued`` or ``running`` event.
    state: str = "queued"
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    cached_units: int = 0
    computed_units: int = 0
    healed_units: int = 0
    #: Clients whose identical submissions coalesced onto this job.
    coalesced: int = 0
    error: Optional[str] = None
    #: The response envelope (scenario-result or sweep-result dict).
    result: Optional[Dict[str, object]] = None
    #: Event history, replayed to late progress subscribers.
    events: List[Dict[str, object]] = field(default_factory=list)
    subscribers: List["asyncio.Queue[Dict[str, object]]"] = field(default_factory=list)

    @property
    def total_units(self) -> int:
        """Distinct work units of this job."""
        return len(self.job_plan.work.unique_units)

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in ("done", "failed")

    def describe(self) -> Dict[str, object]:
        """JSON-ready job descriptor (the API's ``job`` object)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "name": self.name,
            "state": self.state,
            "points": len(self.job_plan.work.points),
            "total_units": self.total_units,
            "cached_units": self.cached_units,
            "computed_units": self.computed_units,
            "coalesced": self.coalesced,
            "error": self.error,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
        }

    def publish(self, event: Dict[str, object]) -> None:
        """Record one event and fan it out to live subscribers."""
        self.events.append(event)
        for queue in self.subscribers:
            queue.put_nowait(event)

    def subscribe(self) -> "asyncio.Queue[Dict[str, object]]":
        """Attach a progress subscriber, pre-loaded with the event history."""
        queue: "asyncio.Queue[Dict[str, object]]" = asyncio.Queue()
        for event in self.events:
            queue.put_nowait(event)
        self.subscribers.append(queue)
        return queue

    def unsubscribe(self, queue: "asyncio.Queue[Dict[str, object]]") -> None:
        """Detach a progress subscriber."""
        if queue in self.subscribers:
            self.subscribers.remove(queue)
