"""Run a :class:`~repro.spec.scenario.ScenarioSpec` and package the outcome.

Every scenario — per-round bandit run, periodic stale-weight run, or pure
strategy-decision protocol run — produces the same
:class:`ExperimentResult` envelope: the spec echo, per-replication series,
replication-averaged series, per-cell scalar records, a scalar summary and
the wall clock.  The envelope serializes to stable JSON
(``repro.scenario-result/v1``) so benchmark trajectories, plotting layers
and services all consume one schema.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro._codec import NOT_SERIALIZED, DecodeError, Number, decode_fields, loads
from repro.core.bounds import theorem1_regret_bound
from repro.distributed.costs import theoretical_message_bound, theoretical_space_bound
from repro.distributed.ptas import DistributedRobustPTAS
from repro.mwis.greedy import GreedyMWISSolver
from repro.obs import current_observer
from repro.reporting import render_series, render_table
from repro.sim.backends import ThreadBackend, fan_out
from repro.sim.batch import child_seed_sequences
from repro.sim.timing import TimingConfig
from repro.spec.scenario import ScenarioSpec, SpecError

__all__ = [
    "ExperimentResult",
    "run_scenario",
    "run_scenario_replication",
    "merge_replication_results",
    "format_result",
    "RESULT_SCHEMA",
]

#: Schema identifier embedded in every serialized result.
RESULT_SCHEMA = "repro.scenario-result/v1"


@dataclass
class ExperimentResult:
    """Uniform envelope around one scenario run.

    ``series`` holds replication-averaged traces keyed
    ``metric[policy]`` (plus ``[y=period]`` for periodic scenarios and
    ``[NxM]`` for protocol sweeps); ``replication_series`` holds the same
    keys with one row per replication; ``records`` holds per-cell scalar
    measurements (period efficiencies, protocol costs); ``summary`` holds
    scenario-level scalars (theta, R_1, the Theorem-1 bound, ...).

    ``artifacts`` carries the raw runtime objects (batches, periodic runs,
    the materialized system) for in-process consumers; it is **not**
    serialized.
    """

    scenario: str
    mode: str
    spec: Dict[str, object]
    summary: Dict[str, Number] = field(default_factory=dict)
    series: Dict[str, List[Number]] = field(default_factory=dict)
    replication_series: Dict[str, List[List[Number]]] = field(default_factory=dict)
    records: Dict[str, Dict[str, Number]] = field(default_factory=dict)
    wall_clock_s: Number = 0.0
    artifacts: Dict[str, object] = field(default_factory=dict, metadata=NOT_SERIALIZED)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (``artifacts`` excluded)."""
        return {
            "schema": RESULT_SCHEMA,
            "scenario": self.scenario,
            "mode": self.mode,
            "spec": self.spec,
            "summary": dict(self.summary),
            "series": {k: list(v) for k, v in self.series.items()},
            "replication_series": {
                k: [list(row) for row in rows]
                for k, rows in self.replication_series.items()
            },
            "records": {k: dict(v) for k, v in self.records.items()},
            "wall_clock_s": self.wall_clock_s,
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize to the stable ``repro.scenario-result/v1`` JSON schema."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data, path: str = "result") -> "ExperimentResult":
        """Strictly validate and load a serialized result envelope."""
        try:
            kwargs = decode_fields(cls, data, path, complete=True, schema_id=RESULT_SCHEMA)
        except DecodeError as err:
            raise SpecError(str(err)) from None
        if not kwargs["scenario"]:
            raise SpecError(f"{path}.scenario: expected a non-empty string")
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Inverse of :meth:`to_json` (strictly validated)."""
        try:
            data = loads(text, "result")
        except DecodeError as err:
            raise SpecError(str(err)) from None
        return cls.from_dict(data)

    def spec_object(self) -> ScenarioSpec:
        """Rehydrate the echoed spec as a :class:`ScenarioSpec`."""
        return ScenarioSpec.from_dict(self.spec)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def run_scenario(spec: ScenarioSpec) -> ExperimentResult:
    """Run one scenario and return its :class:`ExperimentResult` envelope."""
    spec.validate(spec.name)
    started_at = time.perf_counter()
    obs = current_observer()
    with obs.span("run", scenario=spec.name) as run_span:
        if spec.dynamics is not None:
            result = _run_dynamic(spec)
        elif spec.schedule.mode == "per-round":
            result = _run_per_round(spec)
        elif spec.schedule.mode == "periodic":
            result = _run_periodic(spec)
        elif spec.schedule.mode == "protocol":
            result = _run_protocol(spec)
        else:  # pragma: no cover - validate() rejects unknown modes
            raise SpecError(
                f"{spec.name}: unhandled schedule mode {spec.schedule.mode!r}"
            )
        run_span.set_attrs(mode=result.mode)
    result.wall_clock_s = time.perf_counter() - started_at
    if obs.enabled:
        # The observer rides along for in-process consumers (CLI trace
        # export); artifacts never serialize, so envelopes stay identical.
        result.artifacts["observability"] = obs
    return result


def _per_round_policy_series(
    result: ExperimentResult,
    label: str,
    expected_matrix: np.ndarray,
    theta: float,
    optimal_value,
    alpha: float,
) -> None:
    """Fill one policy's per-round series from its ``(R, T)`` reward matrix.

    Shared by the direct and dynamic runners and the sweep layer's
    replication merge so a merged envelope is bit-identical to a
    single-process run.
    """
    result.replication_series[f"expected_reward[{label}]"] = [
        row.tolist() for row in expected_matrix
    ]
    expected = expected_matrix.mean(axis=0)
    effective = theta * expected
    result.series[f"expected_reward[{label}]"] = expected.tolist()
    result.series[f"effective_throughput[{label}]"] = effective.tolist()
    if optimal_value is not None:
        practical = optimal_value - effective
        benchmark = theta * optimal_value / alpha
        result.series[f"practical_regret[{label}]"] = practical.tolist()
        result.series[f"beta_regret[{label}]"] = (benchmark - effective).tolist()
        result.series[f"cumulative_practical_regret[{label}]"] = np.cumsum(
            practical
        ).tolist()


def _run_per_round(
    spec: ScenarioSpec,
    replications: "int | None" = None,
    first_replication: int = 0,
) -> ExperimentResult:
    """Fig. 7 regime: per-slot decisions through ``simulate_batch``.

    ``replications``/``first_replication`` narrow the run to a window of the
    spec's replication streams (the sweep layer runs one replication per
    work unit); the default runs the spec's full replication plan.
    """
    if replications is None:
        replications = spec.replication.replications
    system, factories = spec.build()
    optimal_value = system.optimal_value() if spec.compute_optimal else None
    theta = system.timing.theta
    result = ExperimentResult(
        scenario=spec.name, mode="per-round", spec=spec.to_dict()
    )
    result.summary["theta"] = float(theta)
    result.summary["alpha"] = float(spec.alpha)
    result.summary["replications"] = float(replications)
    if optimal_value is not None:
        result.summary["optimal_value"] = float(optimal_value)
        result.summary["theorem1_bound"] = float(
            theorem1_regret_bound(
                horizon=spec.schedule.num_rounds,
                num_nodes=system.conflict_graph.num_nodes,
                num_arms=system.extended_graph.num_vertices,
                beta=spec.alpha,
            )
        )
    batches = {}
    simulated_wall_clock = 0.0
    run_system, run_factories = system, factories
    for index, label in enumerate(factories):
        if index > 0 and spec.channels.is_stateful:
            # Stateful channel models accumulate chain/cursor state while a
            # policy samples them; replay the identical construction so every
            # policy faces the same fresh environment and the head-to-head
            # comparison stays valid.
            run_system, run_factories = spec.build()
        factory = run_factories[label]
        batch = run_system.simulate_batch(
            lambda index: factory(),
            num_rounds=spec.schedule.num_rounds,
            replications=replications,
            jobs=spec.replication.jobs,
            optimal_value=optimal_value,
            first_replication=first_replication,
        )
        batches[label] = batch
        simulated_wall_clock += batch.total_wall_clock()
        _per_round_policy_series(
            result,
            label,
            batch.expected_reward_matrix(),
            theta,
            optimal_value,
            spec.alpha,
        )
    result.summary["simulated_wall_clock_s"] = simulated_wall_clock
    result.artifacts["system"] = system
    result.artifacts["batches"] = batches
    result.artifacts["optimal_value"] = optimal_value
    return result


def run_scenario_replication(
    spec: ScenarioSpec, replication_index: int
) -> ExperimentResult:
    """Run exactly one replication of a per-round scenario.

    The replication consumes the same seed stream it would inside the full
    ``R``-replication run (stream ``replication_index`` spawned from the
    scenario seed), so its trace is bit-identical to the corresponding row
    of :func:`run_scenario` — this is the sweep layer's work unit.  Only
    per-round schedules shard to replication granularity; periodic and
    protocol scenarios execute as whole-scenario units.
    """
    spec.validate(spec.name)
    if spec.schedule.mode != "per-round" or spec.dynamics is not None:
        raise SpecError(
            f"{spec.name}: run_scenario_replication only supports per-round "
            f"schedules without dynamics (got mode={spec.schedule.mode!r}, "
            f"dynamics={'set' if spec.dynamics is not None else 'none'}); "
            "run the whole scenario instead"
        )
    if replication_index < 0:
        raise SpecError(
            f"{spec.name}: replication_index must be non-negative, "
            f"got {replication_index}"
        )
    started_at = time.perf_counter()
    result = _run_per_round(
        spec, replications=1, first_replication=replication_index
    )
    result.wall_clock_s = time.perf_counter() - started_at
    return result


def merge_replication_results(
    spec: ScenarioSpec, results: List["ExperimentResult"]
) -> ExperimentResult:
    """Stitch single-replication envelopes back into one scenario envelope.

    ``results`` must hold one per-round envelope per replication, ordered by
    replication index.  The merged series are recomputed with the same
    numpy expressions the direct runner uses, so every deterministic field
    (series, replication series, summary minus wall clocks) is bit-identical
    to ``run_scenario(spec)``; wall clocks are summed.
    """
    if not results:
        raise SpecError(f"{spec.name}: cannot merge zero replication results")
    if spec.schedule.mode != "per-round" or spec.dynamics is not None:
        raise SpecError(
            f"{spec.name}: merge_replication_results only supports per-round "
            f"schedules without dynamics (got {spec.schedule.mode!r})"
        )
    base = results[0]
    merged = ExperimentResult(
        scenario=spec.name, mode="per-round", spec=spec.to_dict()
    )
    merged.summary = dict(base.summary)
    merged.summary["replications"] = float(len(results))
    merged.summary["simulated_wall_clock_s"] = float(
        sum(r.summary.get("simulated_wall_clock_s", 0.0) for r in results)
    )
    theta = base.summary["theta"]
    alpha = base.summary["alpha"]
    optimal_value = base.summary.get("optimal_value")
    for policy in spec.policies:
        label = policy.display_label
        key = f"expected_reward[{label}]"
        rows = []
        for index, result in enumerate(results):
            if key not in result.replication_series:
                raise SpecError(
                    f"{spec.name}: replication {index} is missing the "
                    f"{key!r} series; cannot merge"
                )
            rows.extend(result.replication_series[key])
        _per_round_policy_series(
            merged,
            label,
            np.asarray(rows, dtype=float),
            theta,
            optimal_value,
            alpha,
        )
    merged.wall_clock_s = float(sum(r.wall_clock_s for r in results))
    return merged


def _replication_seeds(root_seed: int, replications: int) -> List[object]:
    """System seeds for the replications of one periodic experiment cell.

    A single replication uses the cell's ``root_seed`` directly (the system
    then consumes child 0 of it); multiple replications get spawn children
    of the same root — the stream-derivation scheme of
    :func:`repro.sim.batch.child_seed_sequences`, so replication ``i`` sees
    the same streams regardless of the replication count.
    """
    if replications == 1:
        return [root_seed]
    return list(child_seed_sequences(root_seed, replications))


def _run_periodic(spec: ScenarioSpec) -> ExperimentResult:
    """Fig. 8 regime: one decision per ``y``-slot period."""
    from repro.api import ChannelAccessSystem

    graph, channels = spec.materialize()
    if spec.replication.replications > 1 and channels.has_stateful_models:
        raise SpecError(
            f"{spec.name}: averaging over replications requires i.i.d. channel "
            "models; stateful models would couple the replications"
        )
    timing = TimingConfig.paper_defaults()
    result = ExperimentResult(
        scenario=spec.name, mode="periodic", spec=spec.to_dict()
    )
    result.summary["theta"] = float(timing.theta)
    result.summary["replications"] = float(spec.replication.replications)
    runs_by_cell: Dict[tuple, List[object]] = {}

    for period in spec.schedule.periods:
        result.records[f"y={period}"] = {
            "period": float(period),
            "efficiency": float(timing.period_efficiency(period)),
        }

        def run_replication(seed):
            # One fresh system per policy: every policy replays the same
            # spawned channel stream (common random numbers), which makes
            # the per-policy traces directly comparable.  Stateful channel
            # models additionally get a freshly materialized environment per
            # policy — their chain/cursor state would otherwise leak from
            # one policy's run into the next.
            runs = {}
            for policy_spec in spec.policies:
                policy_channels = (
                    spec.materialize()[1] if channels.has_stateful_models else channels
                )
                system = ChannelAccessSystem(graph, policy_channels, seed=seed)
                runs[policy_spec.display_label] = system.simulate_periodic(
                    policy_spec.build(system),
                    num_periods=spec.schedule.num_periods,
                    period_slots=period,
                )
            return runs

        seeds = _replication_seeds(spec.seed + period, spec.replication.replications)
        replication_runs = fan_out(
            ThreadBackend(), run_replication, seeds, spec.replication.jobs
        )

        for policy_spec in spec.policies:
            label = policy_spec.display_label
            runs = [replication[label] for replication in replication_runs]
            runs_by_cell[(period, label)] = runs
            for metric, rows in (
                ("actual", [run.average_actual_trace() for run in runs]),
                ("estimated", [run.average_estimated_trace() for run in runs]),
            ):
                key = f"{metric}[{label}][y={period}]"
                result.replication_series[key] = [row.tolist() for row in rows]
                result.series[key] = np.mean(rows, axis=0).tolist()
    result.artifacts["periodic_runs"] = runs_by_cell
    return result


def _run_dynamic(spec: ScenarioSpec) -> ExperimentResult:
    """Churn / mobility / link-flap regime: per-round learning on a changing
    topology (``spec.dynamics`` present, see :mod:`repro.dynamics`).

    The event schedule is generated deterministically from the scenario seed
    and is identical across policies and replications, so the topology
    trajectory (active nodes, dynamic-oracle value) is a property of the
    scenario while the reward traces are averaged over replication streams.
    """
    from repro.dynamics.engine import DynamicStrategyEngine
    from repro.dynamics.graph import index_frame
    from repro.sim.dynamic import DynamicSimulator

    graph, channels = spec.materialize()
    num_rounds = spec.schedule.num_rounds
    schedule = spec.dynamics.build_schedule(graph, num_rounds, spec.seed)
    index_graph = index_frame(graph.num_nodes, graph.num_channels)
    reward_scale = float(channels.mean_matrix().max())
    theta = float(TimingConfig.paper_defaults().theta)
    replications = spec.replication.replications

    result = ExperimentResult(scenario=spec.name, mode="dynamic", spec=spec.to_dict())
    result.summary["theta"] = theta
    result.summary["replications"] = float(replications)
    result.summary["num_events"] = float(schedule.num_events)
    result.summary["num_event_rounds"] = float(len(schedule.event_rounds))
    result.summary["event_rate"] = float(schedule.num_events) / float(num_rounds)

    def run_replication(item):
        policy_spec, child = item
        # Stateful models carry chain/cursor state across samples; every run
        # gets a freshly materialized environment (the same seed replays the
        # identical construction).
        run_graph, run_channels = (
            spec.materialize() if channels.has_stateful_models else (graph, channels)
        )
        engine = DynamicStrategyEngine(
            run_graph,
            r=policy_spec.r,
            local_solver=policy_spec.build_local_solver(index_graph.num_vertices),
        )
        policy = policy_spec.build_dynamic(engine, index_graph, reward_scale)
        simulator = DynamicSimulator(
            engine,
            run_channels,
            schedule,
            rng=np.random.default_rng(child),
            compute_optimal=spec.compute_optimal,
            frame=index_graph,
        )
        return simulator.run(policy, num_rounds)

    children = child_seed_sequences(spec.seed, replications)
    runs_by_label: Dict[str, List[object]] = {}
    for policy_spec in spec.policies:
        label = policy_spec.display_label
        items = [(policy_spec, child) for child in children]
        runs = fan_out(ThreadBackend(), run_replication, items, spec.replication.jobs)
        runs_by_label[label] = runs
        expected_matrix = np.array([run.expected_reward_trace() for run in runs])
        _per_round_policy_series(result, label, expected_matrix, theta, None, spec.alpha)
        result.series[f"protocol_mini_rounds[{label}]"] = np.mean(
            [run.mini_rounds_trace() for run in runs], axis=0
        ).tolist()
        result.series[f"protocol_messages[{label}]"] = np.mean(
            [run.messages_trace() for run in runs], axis=0
        ).tolist()
        result.summary[f"total_messages[{label}]"] = float(
            np.mean([run.total_messages() for run in runs])
        )
        result.summary[f"total_deliveries[{label}]"] = float(
            np.mean([run.total_deliveries() for run in runs])
        )
        if spec.compute_optimal:
            regret = np.mean(
                [run.dynamic_regret_trace() for run in runs], axis=0
            )
            result.series[f"dynamic_regret[{label}]"] = regret.tolist()
            result.series[f"cumulative_dynamic_regret[{label}]"] = np.cumsum(
                regret
            ).tolist()
            result.summary[f"mean_dynamic_regret[{label}]"] = float(regret.mean())
        if runs[0].event_batches:
            for name, field_name in (
                ("avg_reconvergence_mini_rounds", "reconvergence_mini_rounds"),
                ("avg_messages_per_event_round", "messages"),
            ):
                result.summary[f"{name}[{label}]"] = float(
                    np.mean([
                        np.mean([getattr(b, field_name) for b in run.event_batches])
                        for run in runs
                    ])
                )

    first = runs_by_label[spec.policies[0].display_label][0]
    result.series["active_nodes"] = first.active_nodes_trace().tolist()
    result.series["events_per_round"] = [
        float(len(schedule.events_for_round(t))) for t in range(1, num_rounds + 1)
    ]
    if spec.compute_optimal:
        result.series["dynamic_optimal"] = first.optimal_value_trace().tolist()
    # Every run applies the same schedule, so its event batches line up.
    for index, batch in enumerate(first.event_batches):
        record: Dict[str, float] = {
            "round": float(batch.round_index),
            "num_events": float(batch.num_events),
            "touched_vertices": float(batch.touched_vertices),
            "recomputed_neighborhoods": float(batch.recomputed_neighborhoods),
            "active_nodes": float(batch.active_nodes),
            "num_edges": float(batch.num_edges),
        }
        for label, runs in runs_by_label.items():
            matching = [run.event_batches[index] for run in runs]
            record[f"reconvergence_mini_rounds[{label}]"] = float(
                np.mean([b.reconvergence_mini_rounds for b in matching])
            )
            record[f"messages[{label}]"] = float(
                np.mean([b.messages for b in matching])
            )
        result.records[f"event@r{batch.round_index}"] = record
    result.artifacts["runs"] = runs_by_label
    result.artifacts["schedule"] = schedule
    return result


def _pad_trajectory(values: List[float], length: int) -> List[float]:
    """Pad a trajectory with its last value (converged weight) to ``length``."""
    if not values:
        return [0.0] * length
    padded = list(values[:length])
    while len(padded) < length:
        padded.append(padded[-1])
    return padded


def _transport_telemetry(spec: ScenarioSpec, transport) -> Dict[str, float]:
    """Delivery telemetry of one protocol cell, or ``{}``.

    Telemetry fields surface only when the transport actually has lossy
    knobs enabled (drops, latency or reordering); a lossless transport's
    records stay byte-identical to the simulated oracle's, which is what
    the transport-equivalence contract (and its tests) lock down.
    """
    lossy = spec.transport.kind == "asyncio" and (
        spec.transport.drop > 0.0
        or spec.transport.latency != "none"
        or spec.transport.reorder
    )
    return transport.telemetry_summary() if lossy else {}


def _run_protocol(spec: ScenarioSpec) -> ExperimentResult:
    """Fig. 6 / Section IV-C regime: run Algorithm 3 once per network cell."""
    decision = spec.policies[0]
    rng = np.random.default_rng(spec.seed)
    result = ExperimentResult(
        scenario=spec.name, mode="protocol", spec=spec.to_dict()
    )
    result.summary["r"] = float(decision.r)
    cells = spec.network_sweep or (
        (spec.topology.num_nodes, spec.topology.num_channels),
    )
    faults_active = spec.faults is not None and spec.faults.is_active
    protocol_runs = {}
    fault_reports = {}
    for num_nodes, num_channels in cells:
        label = f"{num_nodes}x{num_channels}"
        graph = spec.topology.with_size(num_nodes, num_channels).build(rng)
        weights = spec.channels.build_means(num_nodes, num_channels, rng).reshape(-1)
        neighborhoods = graph.neighborhood_table(decision.r)
        adjacency = neighborhoods.adjacency
        num_vertices = len(adjacency)
        local_solver = (
            GreedyMWISSolver()
            if decision.use_greedy_local_solver(num_vertices)
            else None
        )
        telemetry: Dict[str, float] = {}
        fault_record: Dict[str, float] = {}
        with current_observer().span(
            "run.cell", cell=label, num_vertices=num_vertices
        ) as cell_span:
            if faults_active:
                run, fault_record, telemetry = _run_faulty_cell(
                    spec, decision, neighborhoods, weights, local_solver,
                    cell=(num_nodes, num_channels),
                )
                fault_reports[label] = fault_record
            else:
                transport = spec.transport.build(
                    adjacency, run_seed=spec.seed, neighborhoods=neighborhoods
                )
                try:
                    run = DistributedRobustPTAS(
                        adjacency,
                        r=decision.r,
                        local_solver=local_solver,
                        neighborhoods=neighborhoods,
                        transport=transport,
                    ).run(weights)
                    telemetry = _transport_telemetry(spec, transport)
                finally:
                    transport.close()
            cell_span.set_attrs(
                mini_rounds=run.num_mini_rounds,
                total_messages=run.costs.communication.total_messages,
            )
        protocol_runs[label] = run
        trajectory = list(run.weight_trajectory())
        if spec.schedule.max_mini_rounds > 0:
            trajectory = _pad_trajectory(trajectory, spec.schedule.max_mini_rounds)
        result.series[f"weight[{label}]"] = [float(v) for v in trajectory]
        result.replication_series[f"weight[{label}]"] = [
            [float(v) for v in trajectory]
        ]
        costs = run.costs
        mini_rounds = run.num_mini_rounds
        final_weight = trajectory[-1] if trajectory else 0.0
        convergence_round = next(
            (
                index + 1
                for index, value in enumerate(trajectory)
                if value >= final_weight
            ),
            len(trajectory),
        )
        result.records[label] = {
            "num_vertices": float(num_vertices),
            "average_degree": float(graph.average_degree()),
            "mini_rounds": float(mini_rounds),
            "max_messages_per_vertex": float(
                costs.communication.max_messages_per_vertex
            ),
            "total_messages": float(costs.communication.total_messages),
            "total_deliveries": float(costs.communication.total_deliveries),
            "mini_timeslots_wb": float(
                costs.communication.mini_timeslots_per_phase.get("WB", 0)
            ),
            "mini_timeslots_ld": float(
                costs.communication.mini_timeslots_per_phase.get("LD", 0)
            ),
            "mini_timeslots_lb": float(
                costs.communication.mini_timeslots_per_phase.get("LB", 0)
            ),
            "total_mini_timeslots": float(costs.communication.total_mini_timeslots),
            "message_bound": float(theoretical_message_bound(decision.r, mini_rounds)),
            "max_stored_weights": float(costs.max_stored_weights),
            "space_bound": float(theoretical_space_bound(costs.max_stored_weights)),
            "max_local_instance": float(costs.computation.max_candidate_set_size),
            "local_mwis_calls": float(costs.computation.local_mwis_calls),
            "winner_weight": float(run.independent_set.weight),
            "convergence_round": float(convergence_round),
        }
        result.records[label].update(fault_record)
        result.records[label].update(telemetry)
    result.artifacts["protocol_runs"] = protocol_runs
    if fault_reports:
        result.artifacts["fault_reports"] = fault_reports
    return result


def _run_faulty_cell(
    spec: ScenarioSpec,
    decision,
    neighborhoods,
    weights,
    local_solver,
    *,
    cell,
):
    """One protocol cell under fault injection.

    Returns ``(run, fault_record, telemetry)`` where ``fault_record`` holds
    the per-cell fault metrics: the report counters, the fault-free baseline
    weight on the same environment, the regret the faults inflicted on it
    and the re-convergence cost (extra mini-rounds over the honest run).
    """
    from repro.faults.runtime import FaultInjectionEngine

    adjacency = neighborhoods.adjacency
    plan = spec.faults.build_plan(
        len(adjacency), run_seed=spec.seed, cell=cell
    )
    engine = FaultInjectionEngine(
        adjacency,
        decision.r,
        neighborhoods,
        local_solver,
        plan=plan,
        quorum=spec.faults.build_quorum(),
    )
    transport = spec.transport.build(
        adjacency, run_seed=spec.seed, neighborhoods=neighborhoods
    )
    try:
        run, report = engine.run(transport, weights)
        telemetry = _transport_telemetry(spec, transport)
    finally:
        transport.close()
    # The fault-free baseline on the exact same environment: regret is how
    # much honest winner weight the faults cost, re-convergence cost is the
    # extra mini-rounds the faulty run needed over the honest decision.
    baseline = DistributedRobustPTAS(
        adjacency,
        r=decision.r,
        local_solver=local_solver,
        neighborhoods=neighborhoods,
    ).run(weights)
    baseline_weight = float(baseline.independent_set.weight)
    fault_record = {
        "fault_fraction": float(report.fault_fraction),
        "num_crashed": float(report.num_crashed),
        "num_byzantine": float(report.num_byzantine),
        "claimed_winners": float(report.claimed_winners),
        "final_winners": float(report.final_winners),
        "quorum_rejected": float(report.quorum_rejected),
        "byzantine_winners": float(report.byzantine_winners),
        "conflicting_winners": float(report.conflicting_winners),
        "corrupted_winners": float(report.corrupted_winners),
        "corrupted_winner_rate": float(report.corrupted_winner_rate),
        "honest_winner_weight": float(report.honest_winner_weight),
        "undecided_honest": float(report.undecided_honest),
        "suspected_crashed": float(report.suspected_crashed),
        "excluded_senders": float(report.excluded_senders),
        "accusations_sent": float(report.accusations_sent),
        "quorum_patience": float(report.patience),
        "quorum_enabled": float(report.quorum_enabled),
        "baseline_winner_weight": baseline_weight,
        "fault_regret": baseline_weight - float(report.honest_winner_weight),
        "reconvergence_cost": float(
            run.num_mini_rounds - baseline.num_mini_rounds
        ),
    }
    return run, fault_record, telemetry


# ----------------------------------------------------------------------
# Generic rendering
# ----------------------------------------------------------------------
def format_result(result: ExperimentResult) -> str:
    """Render any :class:`ExperimentResult` as diffable text."""
    blocks = [
        f"scenario {result.scenario} ({result.mode}) — "
        f"wall clock {result.wall_clock_s:.2f}s"
    ]
    if result.summary:
        rows = [[key, float(value)] for key, value in result.summary.items()]
        blocks.append(render_table(["summary", "value"], rows))
    if result.records:
        record_keys = sorted({key for rec in result.records.values() for key in rec})
        headers = ["cell", *record_keys]
        rows = [
            [cell, *[record.get(key, float("nan")) for key in record_keys]]
            for cell, record in result.records.items()
        ]
        blocks.append(render_table(headers, rows))
    if result.series:
        blocks.append(
            "\n".join(
                render_series(name, values) for name, values in result.series.items()
            )
        )
    return "\n\n".join(blocks)
