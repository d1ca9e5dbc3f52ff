"""Tests for repro.sim.periodic (Section V-C periodic updates)."""

import numpy as np
import pytest

from repro.channels.state import ChannelState
from repro.core.policies import CombinatorialUCBPolicy, LLRPolicy, OraclePolicy
from repro.graph.conflict_graph import ConflictGraph
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.topology import connected_random_network
from repro.mwis.exact import ExactMWISSolver
from repro.sim.engine import Simulator
from repro.sim.periodic import PeriodicSimulator
from repro.sim.timing import TimingConfig


@pytest.fixture
def environment(rng):
    graph = ConflictGraph(4, [(0, 1), (1, 2), (2, 3)], num_channels=2)
    extended = ExtendedConflictGraph(graph)
    channels = ChannelState.random_paper_rates(4, 2, rng=rng)
    return extended, channels


class TestPeriodicSimulator:
    def test_record_count_and_slots(self, environment, rng):
        extended, channels = environment
        simulator = PeriodicSimulator(extended, channels, period_slots=5, rng=rng)
        policy = CombinatorialUCBPolicy(extended, solver=ExactMWISSolver())
        result = simulator.run(policy, num_periods=12)
        assert result.num_periods == 12

    def test_invalid_arguments(self, environment, rng):
        extended, channels = environment
        with pytest.raises(ValueError):
            PeriodicSimulator(extended, channels, period_slots=0, rng=rng)
        simulator = PeriodicSimulator(extended, channels, period_slots=2, rng=rng)
        with pytest.raises(ValueError):
            simulator.run(CombinatorialUCBPolicy(extended, solver=ExactMWISSolver()), 0)

    def test_mismatched_channels_rejected(self, environment, rng):
        extended, _ = environment
        wrong = ChannelState.from_mean_matrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            PeriodicSimulator(extended, wrong, period_slots=2, rng=rng)

    def test_oracle_actual_throughput_matches_period_efficiency(self, environment, rng):
        extended, channels = environment
        oracle = OraclePolicy(extended, channels.mean_vector())
        optimal = oracle.optimal_value()
        for period in (1, 5, 10):
            simulator = PeriodicSimulator(
                extended, channels, period_slots=period, rng=rng
            )
            result = simulator.run(oracle, num_periods=60)
            efficiency = TimingConfig.paper_defaults().period_efficiency(period)
            average = float(np.mean(result.actual_throughputs()))
            assert average == pytest.approx(optimal * efficiency, rel=0.05)

    def test_longer_periods_give_higher_effective_throughput(self, environment, rng):
        extended, channels = environment
        oracle = OraclePolicy(extended, channels.mean_vector())
        averages = {}
        for period in (1, 5, 20):
            simulator = PeriodicSimulator(
                extended, channels, period_slots=period, rng=rng
            )
            result = simulator.run(oracle, num_periods=40)
            averages[period] = float(result.average_actual_trace()[-1])
        assert averages[1] < averages[5] < averages[20]

    def test_estimated_throughput_recorded_for_index_policies(self, environment, rng):
        extended, channels = environment
        simulator = PeriodicSimulator(extended, channels, period_slots=3, rng=rng)
        policy = CombinatorialUCBPolicy(extended, solver=ExactMWISSolver())
        result = simulator.run(policy, num_periods=10)
        assert np.isfinite(result.estimated_throughputs()).all()

    def test_estimation_gap_shrinks_with_learning(self, environment, rng):
        extended, channels = environment
        simulator = PeriodicSimulator(extended, channels, period_slots=5, rng=rng)
        policy = CombinatorialUCBPolicy(
            extended,
            solver=ExactMWISSolver(),
            reward_scale=float(channels.mean_matrix().max()),
        )
        result = simulator.run(policy, num_periods=80)
        estimated = result.estimated_throughputs()
        actual = result.actual_throughputs()
        early_gap = abs(estimated[:10].mean() - actual[:10].mean())
        late_gap = abs(estimated[-10:].mean() - actual[-10:].mean())
        assert late_gap <= early_gap + 1e-6

    def test_running_average_traces_have_period_length(self, environment, rng):
        extended, channels = environment
        simulator = PeriodicSimulator(extended, channels, period_slots=4, rng=rng)
        policy = CombinatorialUCBPolicy(extended, solver=ExactMWISSolver())
        result = simulator.run(policy, num_periods=9)
        assert result.average_actual_trace().shape == (9,)
        assert result.average_estimated_trace().shape == (9,)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("policy_class", [CombinatorialUCBPolicy, LLRPolicy])
def test_one_slot_periods_replay_the_per_round_simulator(seed, policy_class):
    # With y = 1, R_P(z) reduces to theta * R_x: on the same stream and policy
    # class a periodic run plays the per-round run's strategies, rescaled.
    rng = np.random.default_rng(seed)
    extended = ExtendedConflictGraph(connected_random_network(6, 2, rng=rng))
    channels = ChannelState.random_paper_rates(6, 2, rng=rng)

    def policy():
        return policy_class(extended, solver=ExactMWISSolver(), reward_scale=1350.0)

    per_round = Simulator(extended, channels, rng=np.random.default_rng(seed)).run(
        policy(), 40
    )
    periodic = PeriodicSimulator(
        extended, channels, period_slots=1, rng=np.random.default_rng(seed)
    ).run(policy(), 40)
    theta = TimingConfig.paper_defaults().theta
    assert periodic.trace.strategies == per_round.trace.strategies
    assert np.array_equal(
        periodic.trace.column("expected"), theta * per_round.expected_rewards()
    )
    assert periodic.actual_throughputs() == pytest.approx(
        theta * per_round.observed_rewards(), rel=1e-12
    )
