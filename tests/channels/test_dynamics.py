"""Tests for repro.channels.dynamics (Markovian / adversarial channels)."""

import numpy as np
import pytest

from repro.channels.dynamics import AdversarialChannel, GilbertElliottChannel
from repro.channels.state import ChannelState
from repro.core.policies import CombinatorialUCBPolicy
from repro.graph.conflict_graph import ConflictGraph
from repro.graph.extended import ExtendedConflictGraph
from repro.mwis.exact import ExactMWISSolver


class TestGilbertElliottChannel:
    def test_stationary_mean(self):
        channel = GilbertElliottChannel(
            good_rate=10.0, bad_rate=2.0, p_good_to_bad=0.25, p_bad_to_good=0.75
        )
        # pi_good = 0.75 / (0.25 + 0.75) = 0.75.
        assert channel.mean == pytest.approx(0.75 * 10.0 + 0.25 * 2.0)

    def test_samples_are_one_of_the_two_rates(self, rng):
        channel = GilbertElliottChannel(8.0, 1.0, 0.3, 0.3)
        samples = channel.sample(rng, size=200)
        assert set(np.unique(samples)).issubset({1.0, 8.0})

    def test_long_run_average_approaches_stationary_mean(self, rng):
        channel = GilbertElliottChannel(5.0, 1.0, 0.4, 0.6)
        samples = channel.sample(rng, size=30000)
        assert np.mean(samples) == pytest.approx(channel.mean, rel=0.05)

    def test_state_persistence_creates_correlation(self, rng):
        # With a very sticky chain, consecutive samples are usually equal —
        # the behaviour i.i.d. models cannot produce.
        channel = GilbertElliottChannel(9.0, 1.0, 0.01, 0.01, start_good=True)
        samples = channel.sample(rng, size=2000)
        same_as_previous = np.mean(samples[1:] == samples[:-1])
        assert same_as_previous > 0.9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GilbertElliottChannel(1.0, 2.0, 0.1, 0.1)  # good < bad
        with pytest.raises(ValueError):
            GilbertElliottChannel(2.0, -1.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            GilbertElliottChannel(2.0, 1.0, 1.5, 0.1)
        with pytest.raises(ValueError):
            GilbertElliottChannel(2.0, 1.0, 0.0, 0.0)


class TestAdversarialChannel:
    def test_replays_committed_sequence(self, rng):
        channel = AdversarialChannel([1.0, 2.0, 3.0])
        assert [channel.sample(rng) for _ in range(5)] == [1.0, 2.0, 3.0, 1.0, 2.0]

    def test_mean_is_sequence_average(self):
        assert AdversarialChannel([2.0, 4.0]).mean == 3.0

    def test_vector_sampling(self, rng):
        channel = AdversarialChannel([5.0, 0.0])
        assert np.array_equal(channel.sample(rng, size=4), [5.0, 0.0, 5.0, 0.0])

    def test_invalid_sequences(self):
        with pytest.raises(ValueError):
            AdversarialChannel([])
        with pytest.raises(ValueError):
            AdversarialChannel([1.0, -2.0])


class TestPoliciesUnderNonIIDChannels:
    def test_learning_still_runs_and_stays_feasible(self, rng):
        # Robustness check: the scheme keeps producing conflict-free
        # strategies even when the i.i.d. assumption of Theorem 1 is violated.
        graph = ConflictGraph(4, [(0, 1), (1, 2), (2, 3)], num_channels=2)
        extended = ExtendedConflictGraph(graph)
        models = [
            [
                GilbertElliottChannel(900.0, 150.0, 0.2, 0.4),
                AdversarialChannel([600.0, 150.0, 1350.0]),
            ]
            for _ in range(4)
        ]
        channels = ChannelState(models)
        policy = CombinatorialUCBPolicy(extended, solver=ExactMWISSolver())
        for t in range(1, 60):
            strategy = policy.select_strategy(t)
            assert strategy.is_feasible(extended)
            assignment = strategy.as_dict()
            observations = {
                extended.vertex_index(node, channel): channels.sample(node, channel, rng)
                for node, channel in assignment.items()
            }
            policy.observe(t, strategy, observations)
        assert policy.estimator.total_plays > 0
