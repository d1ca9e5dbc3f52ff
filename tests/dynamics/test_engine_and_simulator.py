"""Tests for the dynamic strategy engine and the dynamic simulator."""

import numpy as np
import pytest

from repro.channels.state import ChannelState
from repro.core.policies import CombinatorialUCBPolicy, LLRPolicy
from repro.distributed.framework import DistributedMWISSolver
from repro.dynamics import (
    DynamicStrategyEngine,
    EventSchedule,
    LinkFlap,
    NodeArrival,
    NodeDeparture,
    index_frame,
)
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.topology import connected_random_network, ring_network
from repro.sim.dynamic import DynamicSimulator
from repro.sim.engine import Simulator


def make_environment(seed=11, num_nodes=8, num_channels=2):
    rng = np.random.default_rng(seed)
    graph = connected_random_network(num_nodes, num_channels, rng=rng)
    channels = ChannelState.random_paper_rates(num_nodes, num_channels, rng=rng)
    return graph, channels


class TestDynamicStrategySolver:
    def test_departed_nodes_never_win(self):
        graph, channels = make_environment()
        engine = DynamicStrategyEngine(graph, r=1)
        solver = engine.solver()
        weights = np.ones(engine.extended.num_vertices)
        engine.apply_events([NodeDeparture(round_index=1, node=0)])
        solution = solver.solve(engine.extended.adjacency, weights)
        masters = {engine.extended.master_of(v) for v in solution.vertices}
        assert 0 not in masters
        assert solution.vertices  # the rest of the network is still served

    def test_invalidation_forces_full_weight_broadcast(self):
        graph, channels = make_environment()
        engine = DynamicStrategyEngine(graph, r=1)
        solver = engine.solver()
        weights = np.linspace(1.0, 2.0, engine.extended.num_vertices)
        solver.solve(engine.extended.adjacency, weights)
        first_messages = solver.last_result.costs.communication.total_messages
        # Steady state: only the previous strategy re-broadcasts.
        solver.solve(engine.extended.adjacency, weights)
        steady_messages = solver.last_result.costs.communication.total_messages
        assert steady_messages < first_messages
        # A topology change invalidates: back to the full broadcast regime.
        engine.apply_events([LinkFlap(round_index=2, u=0, v=1, up=False)])
        solver.solve(engine.extended.adjacency, weights)
        reconvergence_messages = solver.last_result.costs.communication.total_messages
        assert reconvergence_messages > steady_messages

    def test_solution_is_independent_on_the_current_topology(self):
        graph, channels = make_environment(seed=3)
        engine = DynamicStrategyEngine(graph, r=1)
        solver = engine.solver()
        rng = np.random.default_rng(0)
        weights = rng.uniform(1.0, 3.0, engine.extended.num_vertices)
        engine.apply_events(
            [
                NodeDeparture(round_index=1, node=2),
                NodeArrival(round_index=1, node=2, x=0.0, y=0.0),
            ]
        )
        solution = solver.solve(engine.extended.adjacency, weights)
        assert engine.extended.is_independent(solution.vertices)
        engine.verify_rebuild()

    def test_engine_rejects_wrong_adjacency_size(self):
        graph, _ = make_environment()
        engine = DynamicStrategyEngine(graph, r=1)
        solver = engine.solver()
        with pytest.raises(ValueError, match="vertices"):
            solver.solve([set()], np.zeros(engine.extended.num_vertices))


class TestDynamicSimulator:
    def run_simulation(self, schedule_events, num_rounds=30, seed=11, **kwargs):
        graph, channels = make_environment(seed=seed)
        engine = DynamicStrategyEngine(graph, r=1)
        frame = index_frame(graph.num_nodes, graph.num_channels)
        policy = CombinatorialUCBPolicy(
            frame, solver=engine.solver(), reward_scale=1350.0
        )
        simulator = DynamicSimulator(
            engine,
            channels,
            EventSchedule(schedule_events),
            rng=np.random.default_rng(7),
            **kwargs,
        )
        return simulator.run(policy, num_rounds)

    def test_departed_nodes_are_never_scheduled(self):
        result = self.run_simulation(
            [
                NodeDeparture(round_index=5, node=1),
                NodeDeparture(round_index=10, node=4),
                NodeArrival(round_index=20, node=1, x=2.0, y=2.0),
            ]
        )
        departed_by_round = {5: {1}, 10: {1, 4}, 20: {4}}
        departed = set()
        for round_index, strategy in enumerate(result.trace.strategies, start=1):
            departed = departed_by_round.get(round_index, departed)
            scheduled = {node for node, _channel in strategy}
            assert not (scheduled & departed)
        assert result.num_events == 3
        assert [b.round_index for b in result.event_batches] == [5, 10, 20]

    def test_event_batches_record_reconvergence_costs(self):
        result = self.run_simulation([NodeDeparture(round_index=8, node=0)])
        (batch,) = result.event_batches
        assert batch.round_index == 8
        assert batch.reconvergence_mini_rounds >= 1
        assert batch.messages > 0
        assert batch.active_nodes == 7

    def test_dynamic_oracle_tracks_the_current_topology(self):
        result = self.run_simulation(
            [NodeDeparture(round_index=10, node=3)],
            compute_optimal=True,
        )
        optimal = result.optimal_value_trace()
        assert optimal is not None
        # Losing a node can only lower (or keep) the optimum.
        assert optimal[10] <= optimal[0]
        regret = result.dynamic_regret_trace()
        assert regret is not None and len(regret) == result.num_rounds

    def test_simulator_runs_on_combinatorial_topologies(self):
        graph = ring_network(6, 2)
        channels = ChannelState.random_paper_rates(6, 2, rng=np.random.default_rng(2))
        engine = DynamicStrategyEngine(graph, r=1)
        policy = CombinatorialUCBPolicy(
            index_frame(6, 2), solver=engine.solver(), reward_scale=1350.0
        )
        schedule = EventSchedule(
            [
                NodeDeparture(round_index=3, node=0),
                NodeArrival(round_index=8, node=0),
            ]
        )
        simulator = DynamicSimulator(
            engine, channels, schedule, rng=np.random.default_rng(1)
        )
        result = simulator.run(policy, 12)
        assert result.num_rounds == 12
        assert result.active_nodes_trace()[2] == 5  # rounds 3..7 run with 5 nodes
        assert result.active_nodes_trace()[-1] == 6

    def test_simulator_is_single_use(self):
        graph, channels = make_environment()
        engine = DynamicStrategyEngine(graph, r=1)
        policy = CombinatorialUCBPolicy(
            index_frame(graph.num_nodes, graph.num_channels),
            solver=engine.solver(),
            reward_scale=1350.0,
        )
        simulator = DynamicSimulator(
            engine, channels, EventSchedule(()), rng=np.random.default_rng(0)
        )
        simulator.run(policy, 3)
        with pytest.raises(RuntimeError, match="already ran"):
            simulator.run(policy, 3)

    def test_rounds_without_a_protocol_decision_cost_nothing(self):
        graph, channels = make_environment()
        engine = DynamicStrategyEngine(graph, r=1)
        inner = CombinatorialUCBPolicy(
            index_frame(graph.num_nodes, graph.num_channels),
            solver=engine.solver(),
            reward_scale=1350.0,
        )

        class EpochPolicy(CombinatorialUCBPolicy):
            """Decides through the protocol only every 3rd round."""

            def select_strategy(self, round_index):
                if round_index % 3 == 1:
                    self._cached = inner.select_strategy(round_index)
                return self._cached

        policy = EpochPolicy(
            index_frame(graph.num_nodes, graph.num_channels),
            solver=engine.solver(),
            reward_scale=1350.0,
        )
        simulator = DynamicSimulator(
            engine, channels, EventSchedule(()), rng=np.random.default_rng(3)
        )
        result = simulator.run(policy, 9)
        messages = result.messages_trace()
        assert all(messages[i] > 0 for i in (0, 3, 6))
        assert all(messages[i] == 0 for i in (1, 2, 4, 5, 7, 8))
        assert all(result.mini_rounds_trace()[i] == 0 for i in (1, 2, 4, 5))

    def test_used_engine_is_rejected(self):
        graph, channels = make_environment()
        engine = DynamicStrategyEngine(graph, r=1)
        engine.apply_events([NodeDeparture(round_index=1, node=0)])
        with pytest.raises(ValueError, match="fresh engine"):
            DynamicSimulator(engine, channels, EventSchedule(()))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("policy_class", [CombinatorialUCBPolicy, LLRPolicy])
def test_an_empty_schedule_replays_the_per_round_simulator(seed, policy_class):
    # Without events the dynamic loop is the per-round loop: on the same
    # stream and policy class, Algorithm 3 through the engine over the index
    # frame plays exactly the rounds of Algorithm 3 on the static graph.
    graph, channels = make_environment(seed=seed)
    extended = ExtendedConflictGraph(graph)
    static = Simulator(extended, channels, rng=np.random.default_rng(seed)).run(
        policy_class(extended, solver=DistributedMWISSolver(extended, r=1), reward_scale=1350.0),
        30,
    )
    engine = DynamicStrategyEngine(graph, r=1)
    frame = index_frame(graph.num_nodes, graph.num_channels)
    dynamic = DynamicSimulator(
        engine, channels, EventSchedule(()), rng=np.random.default_rng(seed)
    ).run(policy_class(frame, solver=engine.solver(), reward_scale=1350.0), 30)
    assert dynamic.trace.strategies == static.trace.strategies
    for column in ("expected", "observed"):
        assert np.array_equal(
            dynamic.trace.column(column), static.trace.column(column)
        )
