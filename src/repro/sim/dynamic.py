"""Round-by-round simulation under topology dynamics.

:class:`DynamicSimulator` is the dynamic-topology counterpart of
:class:`~repro.sim.engine.Simulator`: it drives one policy through ``n``
learning rounds while threading the events of an
:class:`~repro.dynamics.events.EventSchedule` between rounds.  Before the
round-``t`` strategy decision every event scheduled for round ``t`` is
applied *incrementally* to the engine's live graphs, per-topology caches
(r-hop neighbourhoods, the protocol's previous-strategy memory) are
invalidated, and the next decision re-converges from scratch.

Per round it records the usual reward trace plus the dynamics-specific
measurements: the number of active nodes, the protocol's mini-rounds and
message counts for the decision, and — when a dynamic oracle is enabled —
the optimal expected throughput of the *current* topology, which turns the
reward trace into a dynamic-regret trace.  Each event batch additionally
yields an :class:`EventBatchRecord` capturing the re-convergence cost
(mini-rounds and messages of the first decision after the change) — the
"messages per event" / "re-convergence rounds" metrics of the churn
scenarios.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.channels.state import ChannelState
from repro.core.policies import Policy
from repro.core.strategy import Strategy
from repro.dynamics.engine import DynamicStrategyEngine
from repro.dynamics.events import EventSchedule
from repro.dynamics.graph import index_frame
from repro.mwis.base import MWISSolver
from repro.mwis.local import solve_local_mwis
from repro.obs import current_observer
from repro.sim.engine import check_shape, learning_loop
from repro.sim.results import StepTrace

__all__ = [
    "DYNAMIC_COLUMNS", "EventBatchRecord", "DynamicRunResult", "DynamicSimulator"
]


#: The columns a dynamic run adds to its :class:`~repro.sim.results.StepTrace`:
#: active nodes, applied events, the decision's protocol mini-rounds,
#: messages and deliveries (0 when the policy decided without the protocol)
#: and the dynamic-oracle value (NaN when the oracle is disabled).
DYNAMIC_COLUMNS = (
    "active_nodes", "events", "mini_rounds", "messages", "deliveries", "optimal"
)


@dataclass(frozen=True)
class EventBatchRecord:
    """One applied event batch plus the re-convergence cost it caused."""

    round_index: int
    num_events: int
    touched_vertices: int
    recomputed_neighborhoods: int
    active_nodes: int
    num_edges: int
    #: Cost of the first strategy decision after the change.
    reconvergence_mini_rounds: int
    messages: int
    deliveries: int


@dataclass
class DynamicRunResult:
    """Trace of one policy run under topology dynamics: its step trace with
    the :data:`DYNAMIC_COLUMNS`, plus one record per applied event batch."""

    policy_name: str
    trace: StepTrace
    event_batches: List[EventBatchRecord] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        """Number of simulated rounds."""
        return len(self.trace)

    @property
    def num_events(self) -> int:
        """Total number of applied topology events."""
        return sum(batch.num_events for batch in self.event_batches)

    def expected_reward_trace(self) -> np.ndarray:
        """Per-round expected throughput of the played strategies."""
        return self.trace.column("expected")

    def optimal_value_trace(self) -> Optional[np.ndarray]:
        """Per-round dynamic-oracle value (``None`` when disabled)."""
        optimal = self.trace.column("optimal")
        return None if np.isnan(optimal).any() else optimal

    def dynamic_regret_trace(self) -> Optional[np.ndarray]:
        """Per-round gap to the dynamic oracle (``None`` when disabled)."""
        optimal = self.optimal_value_trace()
        if optimal is None:
            return None
        return optimal - self.expected_reward_trace()

    def active_nodes_trace(self) -> np.ndarray:
        """Per-round number of active nodes."""
        return self.trace.column("active_nodes")

    def mini_rounds_trace(self) -> np.ndarray:
        """Per-round protocol mini-rounds of the strategy decision."""
        return self.trace.column("mini_rounds")

    def messages_trace(self) -> np.ndarray:
        """Per-round protocol broadcasts of the strategy decision."""
        return self.trace.column("messages")

    def total_messages(self) -> int:
        """Broadcasts originated across all rounds."""
        return int(self.messages_trace().sum())

    def total_deliveries(self) -> int:
        """Message deliveries across all rounds."""
        return int(self.trace.column("deliveries").sum())


class DynamicSimulator:
    """Simulate one policy on a dynamically changing topology.

    Parameters
    ----------
    engine:
        A *fresh* :class:`~repro.dynamics.engine.DynamicStrategyEngine`
        (the run mutates it; one engine per run).
    channels:
        Ground-truth channel state over the full node universe.
    schedule:
        The topology events threaded between rounds.
    rng:
        Random generator driving the channel draws.
    compute_optimal:
        When ``True``, re-solve the optimal expected throughput of the
        current topology (exact MWIS over the active vertices) at the start
        and after every event batch — the dynamic-oracle benchmark.  Only
        feasible for small networks.
    optimal_solver:
        Solver for the dynamic oracle (default exact enumeration).
    frame:
        The static arm-index frame (see
        :func:`repro.dynamics.graph.index_frame`).  Callers that already
        built one for their policies can pass it in; ``None`` builds it.
    """

    def __init__(
        self,
        engine: DynamicStrategyEngine,
        channels: ChannelState,
        schedule: EventSchedule,
        rng: Optional[np.random.Generator] = None,
        compute_optimal: bool = False,
        optimal_solver: Optional[MWISSolver] = None,
        frame=None,
    ) -> None:
        topology = engine.topology
        check_shape("channel state", channels, "the topology", topology)
        if engine.num_event_batches:
            raise ValueError(
                "the engine has already applied events; build a fresh engine "
                "per simulation run"
            )
        self._engine = engine
        self._channels = channels
        self._schedule = schedule
        self._rng = rng if rng is not None else np.random.default_rng()
        self._compute_optimal = compute_optimal
        self._optimal_solver = optimal_solver
        # Static index frame: vertex <-> (node, channel) never changes, only
        # edges do; feasibility is checked against the live graph instead.
        if frame is None:
            frame = index_frame(topology.num_nodes, topology.num_channels)
        check_shape("index frame", frame, "the topology", topology)
        self._index_graph = frame
        self._consumed = False

    def _optimal_value(self) -> Optional[float]:
        if not self._compute_optimal:
            return None
        active = self._engine.extended.active_vertices()
        if not active:
            return 0.0
        solution = solve_local_mwis(
            self._engine.extended.adjacency,
            self._channels.mean_vector(),
            active,
            solver=self._optimal_solver,
        )
        return float(solution.weight)

    def _total_solves(self) -> int:
        return sum(solver.num_solves for solver in self._engine.solvers)

    def _decision_costs(self) -> "tuple[int, int, int]":
        """Mini-rounds / messages / deliveries of the latest decision."""
        for solver in reversed(self._engine.solvers):
            result = solver.last_result
            if result is not None:
                communication = result.costs.communication
                return (
                    result.num_mini_rounds,
                    communication.total_messages,
                    communication.total_deliveries,
                )
        return (0, 0, 0)

    def run(self, policy: Policy, num_rounds: int) -> DynamicRunResult:
        """Run ``policy`` for ``num_rounds`` rounds, threading the schedule."""
        if num_rounds <= 0:
            raise ValueError(f"num_rounds must be positive, got {num_rounds}")
        if self._consumed:
            raise RuntimeError(
                "this DynamicSimulator already ran; build a fresh engine and "
                "simulator per run"
            )
        self._consumed = True
        result = DynamicRunResult(policy.name, StepTrace(num_rounds, DYNAMIC_COLUMNS))
        optimal_value = self._optimal_value()
        obs = current_observer()

        def apply_events(round_index: int):
            nonlocal optimal_value
            events = self._schedule.events_for_round(round_index)
            report = None
            if events:
                with obs.span(
                    "dynamics.apply_events",
                    round=round_index,
                    num_events=len(events),
                ):
                    report = self._engine.apply_events(events)
                    optimal_value = self._optimal_value()
                obs.count("dynamics.events_applied", len(events))
            return len(events), report, self._total_solves()

        steps = learning_loop(
            policy, num_rounds, self._index_graph, self._channels, self._rng,
            check=self._validate_strategy, before_decision=apply_events,
        )
        with obs.span("sim.dynamic_run", policy=policy.name, num_rounds=num_rounds):
            for step in steps:
                num_events, report, solves_before = step.context
                # The protocol builds a fresh message network per decision, so
                # the communication counters are already per-round quantities.
                # A round in which the policy decided without running the
                # protocol (epoch-based policies) costs nothing.
                if self._total_solves() > solves_before:
                    mini_rounds, messages, deliveries = self._decision_costs()
                else:
                    mini_rounds, messages, deliveries = 0, 0, 0
                result.trace.append(
                    step.strategy,
                    expected=step.expected_reward,
                    observed=step.rewards[0],
                    duration=time.perf_counter() - step.started_at,
                    active_nodes=self._engine.topology.num_active,
                    events=num_events,
                    mini_rounds=mini_rounds,
                    messages=messages,
                    deliveries=deliveries,
                    optimal=optimal_value,
                )
                if report is not None:
                    result.event_batches.append(
                        EventBatchRecord(
                            round_index=step.index,
                            num_events=report.num_events,
                            touched_vertices=report.touched_vertices,
                            recomputed_neighborhoods=report.recomputed_neighborhoods,
                            active_nodes=report.active_nodes,
                            num_edges=report.num_edges,
                            reconvergence_mini_rounds=mini_rounds,
                            messages=messages,
                            deliveries=deliveries,
                        )
                    )
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _validate_strategy(self, strategy: Strategy) -> None:
        """A strategy must be independent on the *current* ``H`` and may only
        schedule active nodes — both hard errors, not scoring artifacts."""
        topology = self._engine.topology
        for node, _channel in strategy:
            if not topology.is_active(node):
                raise RuntimeError(
                    f"policy scheduled departed node {node}: {strategy!r}"
                )
        arms = strategy.arms(self._index_graph)
        if not self._engine.extended.is_independent(arms):
            raise RuntimeError(
                f"policy produced a strategy that conflicts on the current "
                f"topology: {strategy!r}"
            )
