"""Tests for repro.sim.engine (the Algorithm 2 outer loop)."""

import numpy as np
import pytest

from repro.channels.state import ChannelState
from repro.core.policies import CombinatorialUCBPolicy, OraclePolicy, Policy, RandomPolicy
from repro.core.strategy import Strategy
from repro.graph.conflict_graph import ConflictGraph
from repro.graph.extended import ExtendedConflictGraph
from repro.mwis.exact import ExactMWISSolver
from repro.sim.engine import Simulator
from repro.sim.timing import TimingConfig


@pytest.fixture
def tiny_environment(rng):
    graph = ConflictGraph(3, [(0, 1), (1, 2)], num_channels=2)
    extended = ExtendedConflictGraph(graph)
    means = np.array([[2.0, 5.0], [7.0, 1.0], [3.0, 4.0]])
    channels = ChannelState.from_mean_matrix(means, relative_std=0.02)
    return extended, channels


class TestSimulatorBasics:
    def test_run_produces_one_record_per_round(self, tiny_environment, rng):
        extended, channels = tiny_environment
        simulator = Simulator(extended, channels, rng=rng)
        policy = CombinatorialUCBPolicy(extended, solver=ExactMWISSolver())
        result = simulator.run(policy, num_rounds=25)
        assert result.num_rounds == 25
        assert result.policy_name == policy.name

    def test_records_have_consistent_rewards(self, tiny_environment, rng):
        extended, channels = tiny_environment
        simulator = Simulator(extended, channels, rng=rng)
        policy = CombinatorialUCBPolicy(extended, solver=ExactMWISSolver())
        result = simulator.run(policy, num_rounds=10)
        means = channels.mean_matrix()
        for strategy, expected in zip(
            result.trace.strategies, result.expected_rewards()
        ):
            assert expected == pytest.approx(strategy.expected_reward(means))
        assert (result.observed_rewards() >= 0.0).all()
        assert not np.isnan(result.estimated_weights()).any()

    def test_oracle_policy_has_zero_expected_regret(self, tiny_environment, rng):
        extended, channels = tiny_environment
        oracle = OraclePolicy(extended, channels.mean_vector())
        simulator = Simulator(
            extended, channels, optimal_value=oracle.optimal_value(), rng=rng
        )
        result = simulator.run(oracle, num_rounds=20)
        assert np.allclose(result.tracker.regret_trace(), 0.0)

    def test_learning_policy_regret_is_sublinear_in_practice(self, tiny_environment, rng):
        extended, channels = tiny_environment
        oracle = OraclePolicy(extended, channels.mean_vector())
        optimal = oracle.optimal_value()
        simulator = Simulator(extended, channels, optimal_value=optimal, rng=rng)
        policy = CombinatorialUCBPolicy(
            extended, solver=ExactMWISSolver(), reward_scale=7.0
        )
        result = simulator.run(policy, num_rounds=150)
        regret = result.tracker.regret_trace()
        # The per-round regret in the second half is smaller than in the
        # first half (the policy is learning).
        first_half = regret[74] / 75
        second_half = (regret[-1] - regret[74]) / 75
        assert second_half <= first_half + 1e-9

    def test_random_policy_records_no_estimates(self, tiny_environment, rng):
        extended, channels = tiny_environment
        simulator = Simulator(extended, channels, rng=rng)
        result = simulator.run(RandomPolicy(extended, rng=rng), num_rounds=5)
        assert np.isnan(result.estimated_weights()).all()

    def test_theta_propagates_to_tracker(self, tiny_environment, rng):
        extended, channels = tiny_environment
        simulator = Simulator(
            extended, channels, timing=TimingConfig.paper_defaults(), rng=rng
        )
        result = simulator.run(RandomPolicy(extended, rng=rng), num_rounds=3)
        assert result.tracker.theta == pytest.approx(0.5)


class TestSimulatorValidation:
    def test_mismatched_channel_shape_rejected(self, tiny_environment, rng):
        extended, _ = tiny_environment
        wrong_channels = ChannelState.from_mean_matrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            Simulator(extended, wrong_channels, rng=rng)

    def test_non_positive_rounds_rejected(self, tiny_environment, rng):
        extended, channels = tiny_environment
        simulator = Simulator(extended, channels, rng=rng)
        with pytest.raises(ValueError):
            simulator.run(RandomPolicy(extended, rng=rng), num_rounds=0)

    def test_infeasible_strategy_detected(self, tiny_environment, rng):
        extended, channels = tiny_environment

        class BadPolicy(Policy):
            name = "bad"

            def select_strategy(self, round_index):
                # Nodes 0 and 1 conflict yet share channel 0: infeasible.
                return Strategy.from_assignment({0: 0, 1: 0})

            def observe(self, round_index, strategy, observations):
                return None

        simulator = Simulator(extended, channels, rng=rng)
        with pytest.raises(RuntimeError):
            simulator.run(BadPolicy(extended), num_rounds=1)


class TestSimulationResultHelpers:
    def test_oracle_plays_one_strategy(self, tiny_environment, rng):
        extended, channels = tiny_environment
        oracle = OraclePolicy(extended, channels.mean_vector())
        simulator = Simulator(extended, channels, rng=rng)
        result = simulator.run(oracle, num_rounds=7)
        assert len(result.trace.strategies) == 7
        assert len(set(result.trace.strategies)) == 1

    def test_oracle_expected_throughput_is_optimal(self, tiny_environment, rng):
        extended, channels = tiny_environment
        oracle = OraclePolicy(extended, channels.mean_vector())
        simulator = Simulator(extended, channels, rng=rng)
        result = simulator.run(oracle, num_rounds=5)
        assert result.expected_rewards().mean() == pytest.approx(
            oracle.optimal_value()
        )
