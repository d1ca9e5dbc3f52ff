"""The sweep engine: expand a plan, execute its units, resume from the store.

Execution model
---------------
Every grid point decomposes into *work units*:

* per-round scenarios shard into one unit per replication (the unit key
  normalizes ``replication.replications`` to 1, so a grid over the
  replication count shares units between points);
* periodic and protocol scenarios execute as one whole-scenario unit.

Units are deduplicated by content hash, looked up in the
:class:`~repro.sweep.store.ResultStore`, and only the misses are executed —
on a pluggable backend (:mod:`repro.sim.backends`): serial, thread, or a
:class:`~concurrent.futures.ProcessPoolExecutor` for true multicore.  Every
computed unit is written back to the store, so an interrupted sweep resumes
where it stopped and an identical re-run performs zero simulation work.

Point envelopes are reassembled from their units with
:func:`repro.spec.runner.merge_replication_results`, which is bit-identical
to running the point directly — the backend choice never changes results.

:func:`run_sweep` is :func:`plan_sweep` -> :func:`resolve` -> compute ->
:func:`assemble`; the results service runs the same plan, resolve and
assemble steps around its own asynchronous compute step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.obs import current_observer
from repro.obs.metrics import summarize_values
from repro.reporting import render_table
from repro.sim.backends import ExecutionBackend, fan_out, resolve_backend
from repro.spec.canon import canonical_spec, unit_hash, unit_key
from repro.spec.runner import ExperimentResult, merge_replication_results
from repro.spec.scenario import ScenarioSpec, SpecError
from repro.sweep.plan import SweepPlan, SweepPoint
from repro.sweep.store import ResultStore
from repro.sweep.worker import execute_unit

__all__ = [
    "SweepUnit",
    "SweepWork",
    "PointOutcome",
    "SweepResult",
    "assemble",
    "assemble_point",
    "plan_sweep",
    "plan_units",
    "resolve",
    "run_sweep",
    "format_sweep",
    "format_store_summary",
    "SWEEP_SCHEMA",
]

#: Schema identifier of the serialized sweep envelope.
SWEEP_SCHEMA = "repro.sweep-result/v1"


@dataclass(frozen=True)
class SweepUnit:
    """One executable work unit of a sweep point."""

    point_index: int
    #: Global replication index for per-round shards, ``None`` for whole runs.
    replication: Optional[int]
    #: The normalized spec the unit actually runs (what the hash describes).
    spec: ScenarioSpec
    hash: str

    def payload(self):
        """The picklable payload handed to :func:`repro.sweep.worker.execute_unit`."""
        return (self.spec.to_dict(), self.replication)


def plan_units(point: SweepPoint) -> List[SweepUnit]:
    """Decompose one grid point into its work units (see module docstring).

    Dynamic-topology scenarios execute as whole-scenario units like periodic
    and protocol runs: their envelopes carry cross-replication topology
    series that a per-replication merge cannot reassemble.
    """
    spec = point.spec
    if spec.schedule.mode == "per-round" and spec.dynamics is None:
        normalized = canonical_spec(spec, single_replication=True)
        return [
            SweepUnit(
                point_index=point.index,
                replication=index,
                spec=normalized,
                hash=unit_hash(spec, index),
            )
            for index in range(spec.replication.replications)
        ]
    normalized = canonical_spec(spec)
    return [
        SweepUnit(
            point_index=point.index,
            replication=None,
            spec=normalized,
            hash=unit_hash(spec, None),
        )
    ]


@dataclass
class PointOutcome:
    """One grid point's result plus how its units were satisfied."""

    point: SweepPoint
    result: ExperimentResult
    unit_hashes: List[str]
    cached_units: int
    computed_units: int

    @property
    def status(self) -> str:
        """``cached`` / ``computed`` / ``mixed``."""
        if self.computed_units == 0:
            return "cached"
        if self.cached_units == 0:
            return "computed"
        return "mixed"


@dataclass
class SweepResult:
    """Everything one :func:`run_sweep` call produced."""

    plan: SweepPlan
    outcomes: List[PointOutcome] = field(default_factory=list)
    backend: str = "serial"
    jobs: int = 1
    #: Unique units executed this run / served from the store.
    computed_units: int = 0
    cached_units: int = 0
    #: Store entries that failed validation and were recomputed.
    corrupt_units: int = 0
    wall_clock_s: float = 0.0
    #: Per-backend timing summary of the units *computed* this run
    #: (``{backend: {count, total_s, mean_s, p50_s, p90_s, p99_s, max_s}}``;
    #: empty when every unit was served from the store).
    unit_timing: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def num_points(self) -> int:
        """Number of grid points."""
        return len(self.outcomes)

    @property
    def total_units(self) -> int:
        """Unit references across all points (shared units counted per point)."""
        return sum(len(outcome.unit_hashes) for outcome in self.outcomes)

    @property
    def unique_units(self) -> int:
        """Distinct work units after content-hash deduplication."""
        return self.computed_units + self.cached_units

    def stats(self) -> Dict[str, object]:
        """Machine-readable run statistics (the CLI's ``--stats-json``)."""
        return {
            "plan": self.plan.name,
            "backend": self.backend,
            "jobs": self.jobs,
            "points": self.num_points,
            "total_units": self.total_units,
            "unique_units": self.unique_units,
            "computed": self.computed_units,
            "cached": self.cached_units,
            "corrupt": self.corrupt_units,
            "wall_clock_s": self.wall_clock_s,
            "counters": {
                "cache_hit": self.cached_units,
                "cache_miss": self.computed_units,
                "self_heal": self.corrupt_units,
            },
            "unit_timing": {
                backend: dict(timing)
                for backend, timing in sorted(self.unit_timing.items())
            },
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready sweep envelope (``repro.sweep-result/v1``)."""
        return {
            "schema": SWEEP_SCHEMA,
            "plan": self.plan.to_dict(),
            "stats": self.stats(),
            "points": [
                {
                    "index": outcome.point.index,
                    "overrides": [
                        [path, value] for path, value in outcome.point.overrides
                    ],
                    "status": outcome.status,
                    "unit_hashes": list(outcome.unit_hashes),
                    "result": outcome.result.to_dict(),
                }
                for outcome in self.outcomes
            ],
        }


def _run_unit(payload) -> Dict[str, object]:
    """One work unit under a ``sweep.unit`` span (module-level, for process
    pools; ``execute_unit`` is looked up in this module at call time)."""
    spec_dict, replication = payload
    with current_observer().span(
        "sweep.unit", scenario=spec_dict.get("name"), replication=replication
    ):
        return execute_unit(payload)


def run_sweep(
    plan: SweepPlan,
    store: Union[ResultStore, str, None] = None,
    backend: Union[str, ExecutionBackend, None] = None,
    jobs: int = 1,
) -> SweepResult:
    """Execute a sweep plan, resuming completed units from the store.

    ``store=None`` runs without persistence (every unit recomputes).
    Returns a :class:`SweepResult` whose point envelopes are bit-identical
    across backends and to direct :func:`~repro.spec.runner.run_scenario`
    calls on the same specs.
    """
    if jobs <= 0:
        raise SpecError(f"sweep: jobs must be positive, got {jobs}")
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    executor = resolve_backend(backend, default="serial")
    started_at = time.perf_counter()
    obs = current_observer()

    with obs.span(
        "sweep.run", plan=plan.name, backend=executor.name, jobs=jobs
    ) as sweep_span:
        work = plan_sweep(plan)
        results, misses, corrupt = resolve(work, store)
        if results:
            obs.count("sweep.units.cache_hit", len(results))
        if corrupt:
            obs.count("sweep.units.self_heal", corrupt)
        obs.count("sweep.units.cache_miss", len(misses))
        obs.gauge("sweep.jobs", jobs)
        obs.gauge("sweep.queue_depth", len(misses))

        if misses:
            payloads = [unit.payload() for unit in misses]
            computed = fan_out(executor, _run_unit, payloads, jobs)
            for unit, result_dict in zip(misses, computed):
                results[unit.hash] = result_dict
                wall_clock = float(result_dict.get("wall_clock_s", 0.0))
                obs.observe("sweep.unit_wall_clock_s", wall_clock)
                if store is not None:
                    store.put(
                        unit.hash, unit_key(unit.spec, unit.replication), result_dict
                    )

        sweep = assemble(
            work,
            results,
            {unit.hash for unit in misses},
            backend=executor.name,
            jobs=jobs,
            corrupt=corrupt,
            wall_clock_s=time.perf_counter() - started_at,
        )
        sweep_span.set_attrs(
            points=sweep.num_points,
            computed=sweep.computed_units,
            cached=sweep.cached_units,
        )
    return sweep


@dataclass(frozen=True)
class SweepWork:
    """A plan expanded into points and content-hash-deduplicated units."""

    plan: SweepPlan
    points: List[SweepPoint]
    units_by_point: Dict[int, List[SweepUnit]]
    #: Distinct units, in first-seen order.
    unique_units: List[SweepUnit]


def plan_sweep(plan: SweepPlan) -> SweepWork:
    """Expand ``plan``; units shared between points are planned once."""
    points = plan.points()
    units_by_point = {point.index: plan_units(point) for point in points}
    unique: Dict[str, SweepUnit] = {}
    for point in points:
        for unit in units_by_point[point.index]:
            unique.setdefault(unit.hash, unit)
    return SweepWork(
        plan=plan,
        points=points,
        units_by_point=units_by_point,
        unique_units=list(unique.values()),
    )


def resolve(
    work: SweepWork, store: Optional[ResultStore]
) -> Tuple[Dict[str, Dict[str, object]], List[SweepUnit], int]:
    """Look the unique units of ``work`` up in ``store`` (``None``: all miss).

    Returns ``(results, misses, corrupt)``: stored envelopes by hash, the
    units to compute, and how many of those had a corrupt entry.
    """
    results: Dict[str, Dict[str, object]] = {}
    misses: List[SweepUnit] = []
    corrupt = 0
    for unit in work.unique_units:
        if store is not None and unit.hash in store:
            cached = store.load(unit.hash, strict=False)
            if cached is not None:
                results[unit.hash] = cached
                continue
            corrupt += 1
        misses.append(unit)
    return results, misses, corrupt


def assemble(
    work: SweepWork,
    results: Dict[str, Dict[str, object]],
    computed_hashes: Set[str],
    *,
    backend: str,
    jobs: int,
    corrupt: int,
    wall_clock_s: float,
) -> SweepResult:
    """Build the :class:`SweepResult` of ``work`` from every unit's envelope.

    ``unit_timing`` summarizes the units in ``computed_hashes`` only.  One
    assembly for ``repro sweep`` and the results service keeps a served
    envelope bit-identical to the CLI's.
    """
    outcomes: List[PointOutcome] = []
    for point in work.points:
        units = work.units_by_point[point.index]
        hashes = [unit.hash for unit in units]
        unit_results = [ExperimentResult.from_dict(results[h]) for h in hashes]
        computed = sum(1 for h in hashes if h in computed_hashes)
        outcomes.append(
            PointOutcome(
                point=point,
                result=assemble_point(point, units, unit_results),
                unit_hashes=hashes,
                cached_units=len(hashes) - computed,
                computed_units=computed,
            )
        )
    unit_timing: Dict[str, Dict[str, float]] = {}
    wall_clocks = [
        float(results[unit.hash].get("wall_clock_s", 0.0))
        for unit in work.unique_units
        if unit.hash in computed_hashes
    ]
    if wall_clocks:
        summary = summarize_values(wall_clocks)
        unit_timing[backend] = {"count": summary["count"]}
        for key in ("total", "mean", "p50", "p90", "p99", "max"):
            unit_timing[backend][f"{key}_s"] = summary[key]
    return SweepResult(
        plan=work.plan,
        outcomes=outcomes,
        backend=backend,
        jobs=jobs,
        computed_units=len(computed_hashes),
        cached_units=len(work.unique_units) - len(computed_hashes),
        corrupt_units=corrupt,
        wall_clock_s=wall_clock_s,
        unit_timing=unit_timing,
    )


def assemble_point(
    point: SweepPoint, units: List[SweepUnit], unit_results: List[ExperimentResult]
) -> ExperimentResult:
    """Rebuild one point's scenario envelope from its unit envelopes."""
    if units[0].replication is None:
        result = unit_results[0]
        # Echo the point's actual spec (the unit form normalizes jobs).
        result.spec = point.spec.to_dict()
        result.scenario = point.spec.name
        return result
    return merge_replication_results(point.spec, unit_results)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _headline(result: ExperimentResult) -> str:
    """A one-cell summary of a point result, mode-appropriate."""
    if result.mode == "per-round":
        finals = [
            f"{name.split('[', 1)[1].rstrip(']')}={values[-1]:.1f}"
            for name, values in sorted(result.series.items())
            if name.startswith("effective_throughput[") and values
        ]
        return "final eff. throughput " + ", ".join(finals) if finals else "-"
    if result.mode == "dynamic":
        events = int(result.summary.get("num_events", 0))
        reconvergence = [
            f"{key.split('[', 1)[1].rstrip(']')}={value:.1f}"
            for key, value in sorted(result.summary.items())
            if key.startswith("avg_reconvergence_mini_rounds[")
        ]
        tail = f", reconv {', '.join(reconvergence)}" if reconvergence else ""
        return f"{events} topology event(s){tail}"
    if result.mode == "protocol":
        cells = len(result.records)
        return f"{cells} network cell(s)"
    if result.mode == "periodic":
        cells = sorted(
            result.records.items(), key=lambda kv: kv[1].get("period", 0)
        )
        return f"periods {', '.join(name for name, _ in cells)}"
    return "-"


def format_sweep(sweep: SweepResult) -> str:
    """Render a sweep outcome as diffable text (the CLI report)."""
    stats = sweep.stats()
    header = (
        f"sweep {sweep.plan.name}: {stats['points']} point(s), "
        f"{stats['unique_units']} unique unit(s) "
        f"({stats['computed']} computed, {stats['cached']} cached"
        + (f", {stats['corrupt']} corrupt recomputed" if stats["corrupt"] else "")
        + f") backend={stats['backend']} jobs={stats['jobs']} "
        f"wall_clock={stats['wall_clock_s']:.2f}s"
    )
    rows = []
    for outcome in sweep.outcomes:
        rows.append(
            [
                outcome.point.index,
                outcome.point.label,
                f"{outcome.computed_units}+{outcome.cached_units}c",
                outcome.status,
                outcome.point.hash[:12],
                _headline(outcome.result),
            ]
        )
    table = render_table(
        ["point", "overrides", "units", "status", "spec hash", "headline"], rows
    )
    return header + "\n\n" + table


def format_store_summary(store: ResultStore) -> str:
    """Render the contents of a result store as a table."""
    rows = []
    corrupt = 0
    seen = set(store.hashes())
    for key_hash, entry in store.entries(strict=False):
        seen.discard(key_hash)
        key = entry["key"]
        result = entry["result"]
        spec = key.get("spec", {})
        replication = key.get("replication")
        rows.append(
            [
                key_hash[:12],
                spec.get("name", "?"),
                result.get("mode", "?"),
                "-" if replication is None else replication,
                f"{result.get('wall_clock_s', 0.0):.2f}",
            ]
        )
    corrupt = len(seen)  # listed on disk but failed validation
    header = f"store {store.root}: {len(rows)} valid entr{'y' if len(rows) == 1 else 'ies'}"
    if corrupt:
        header += f", {corrupt} corrupt"
    if not rows:
        return header
    table = render_table(
        ["hash", "scenario", "mode", "replication", "wall_clock_s"], rows
    )
    return header + "\n\n" + table
