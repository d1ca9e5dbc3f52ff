"""Tests for repro.sim.batch and ChannelAccessSystem.simulate_batch
(seed-streamed replication batches)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ChannelAccessSystem
from repro.channels.models import ChannelModel, GaussianChannel
from repro.channels.state import ChannelState
from repro.core.policies import CombinatorialUCBPolicy, LLRPolicy
from repro.graph.conflict_graph import ConflictGraph
from repro.mwis.exact import ExactMWISSolver
from repro.sim.batch import child_seed_sequences
from repro.sim.engine import Simulator


def _build_environment():
    graph = ConflictGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], num_channels=2)
    means = np.array([[2.0, 5.0], [7.0, 1.0], [3.0, 4.0], [6.0, 2.0]])
    channels = ChannelState.from_mean_matrix(means, relative_std=0.05)
    return graph, channels


def _system(seed):
    return ChannelAccessSystem(*_build_environment(), seed=seed)


@pytest.fixture
def environment():
    return _build_environment()


def _ucb_factory(extended):
    return lambda index: CombinatorialUCBPolicy(
        extended, solver=ExactMWISSolver(), reward_scale=7.0
    )


def _streams(seed, count):
    return [np.random.default_rng(child) for child in child_seed_sequences(seed, count)]


class TestReplicationRngs:
    def test_streams_are_deterministic_and_independent_of_count(self):
        first_of_one = _streams(7, 1)[0]
        first_of_three = _streams(7, 3)[0]
        assert first_of_one.normal() == first_of_three.normal()

    def test_distinct_replications_get_distinct_streams(self):
        draws = {rng.normal() for rng in _streams(7, 4)}
        assert len(draws) == 4

    def test_child_derivation_matches_spawn_without_mutation(self):
        root = np.random.SeedSequence(7)
        spawned = np.random.SeedSequence(7).spawn(3)
        derived = child_seed_sequences(root, 3)
        assert root.n_children_spawned == 0
        for a, b in zip(spawned, derived):
            assert (
                np.random.default_rng(a).normal() == np.random.default_rng(b).normal()
            )

    def test_child_derivation_preserves_pool_size(self):
        root = np.random.SeedSequence(7, pool_size=8)
        spawned = np.random.SeedSequence(7, pool_size=8).spawn(2)
        derived = child_seed_sequences(root, 2)
        for a, b in zip(spawned, derived):
            assert b.pool_size == 8
            assert (
                np.random.default_rng(a).normal() == np.random.default_rng(b).normal()
            )


class TestBatchMatchesSequential:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_single_replication_reproduces_sequential_trace_bitwise(self, seed):
        system = _system(seed)
        extended = system.extended_graph
        batch = system.simulate_batch(
            _ucb_factory(extended), num_rounds=40, replications=1
        )
        sequential = Simulator(
            extended, system.channels, rng=_streams(seed, 1)[0]
        ).run(_ucb_factory(extended)(0), num_rounds=40)
        (ours,) = batch.results
        assert ours.trace.strategies == sequential.trace.strategies
        for column in ("expected", "observed", "estimated"):
            assert np.array_equal(
                ours.trace.column(column), sequential.trace.column(column)
            )

    def test_parallel_jobs_match_serial_run_bitwise(self):
        system = _system(3)
        factory = _ucb_factory(system.extended_graph)
        serial = system.simulate_batch(factory, num_rounds=25, replications=4, jobs=1)
        threaded = system.simulate_batch(
            factory, num_rounds=25, replications=4, jobs=4
        )
        for ours, theirs in zip(serial.results, threaded.results):
            assert np.array_equal(ours.observed_rewards(), theirs.observed_rewards())
        assert np.array_equal(
            serial.expected_reward_matrix(), threaded.expected_reward_matrix()
        )


class _Coin(ChannelModel):
    """A law without Gaussian parameters, so ChannelState samples per arm."""

    def __init__(self, p):
        self._p = p

    @property
    def mean(self):
        return self._p

    def sample(self, rng, size=None):
        return float(rng.random() < self._p)


def _scalar_draws(channels, arms, rng):
    """The reference: one scalar draw per arm from its own model, in order."""
    return [channels.sample(*divmod(arm, channels.num_channels), rng) for arm in arms]


class TestArraySamplingMatchesScalarDraws:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        data=st.data(),
    )
    def test_gaussian_fast_path_matches_scalar_draws(self, seed, data):
        means = np.arange(1.0, 13.0).reshape(4, 3)
        channels = ChannelState.from_mean_matrix(means, relative_std=0.3)
        arms = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=channels.num_arms - 1),
                min_size=1,
                max_size=channels.num_arms,
                unique=True,
            )
        )
        by_scalar = _scalar_draws(channels, arms, np.random.default_rng(seed))
        by_array = channels.sample_arm_array(
            np.array(arms, dtype=np.int64), np.random.default_rng(seed)
        )
        assert by_scalar == list(by_array)

    def test_non_gaussian_models_fall_back_to_per_arm_sampling(self):
        channels = ChannelState(
            [
                [_Coin(0.4), GaussianChannel(2.0, 0.1)],
                [GaussianChannel(3.0, 0.2), _Coin(0.9)],
            ]
        )
        by_scalar = _scalar_draws(channels, range(4), np.random.default_rng(11))
        by_array = channels.sample_arm_array(
            np.arange(4, dtype=np.int64), np.random.default_rng(11)
        )
        assert by_scalar == list(by_array)

    def test_out_of_range_arm_rejected(self):
        channels = ChannelState.from_mean_matrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            channels.sample_arm_array(
                np.array([4], dtype=np.int64), np.random.default_rng(0)
            )


class TestBatchResultAggregation:
    def test_matrix_shapes_and_means(self):
        system = _system(5)
        batch = system.simulate_batch(
            _ucb_factory(system.extended_graph),
            num_rounds=30,
            replications=3,
            optimal_value=13.0,
        )
        assert len(batch.results) == 3
        assert batch.num_rounds == 30
        assert batch.expected_reward_matrix().shape == (3, 30)
        assert batch.mean_regret_trace().shape == (30,)
        assert batch.total_wall_clock() > 0.0

    def test_policy_factory_receives_replication_index(self):
        system = _system(1)
        seen = []

        def factory(index):
            seen.append(index)
            return LLRPolicy(
                system.extended_graph, solver=ExactMWISSolver(), reward_scale=7.0
            )

        system.simulate_batch(factory, num_rounds=5, replications=3)
        assert seen == [0, 1, 2]

    def test_round_durations_are_recorded(self):
        system = _system(2)
        batch = system.simulate_batch(
            _ucb_factory(system.extended_graph), num_rounds=10, replications=1
        )
        durations = batch.results[0].round_durations()
        assert durations.shape == (10,)
        assert np.isfinite(durations).all()
        assert (durations > 0).all()


class TestBatchValidation:
    def test_mismatched_channel_shape_rejected(self, environment):
        graph, _ = environment
        wrong = ChannelState.from_mean_matrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ChannelAccessSystem(graph, wrong)

    def test_non_positive_rounds_rejected(self):
        system = _system(0)
        with pytest.raises(ValueError):
            system.simulate_batch(
                _ucb_factory(system.extended_graph), num_rounds=0, replications=1
            )

    def test_non_positive_jobs_rejected(self):
        system = _system(0)
        with pytest.raises(ValueError):
            system.simulate_batch(
                _ucb_factory(system.extended_graph),
                num_rounds=5,
                replications=1,
                jobs=0,
            )

    def test_stateful_channel_models_rejected_for_multiple_replications(self):
        from repro.channels.dynamics import GilbertElliottChannel

        graph = ConflictGraph(2, [(0, 1)], num_channels=1)
        channels = ChannelState(
            [
                [GilbertElliottChannel(5.0, 1.0, 0.1, 0.3)],
                [GaussianChannel(2.0, 0.1)],
            ]
        )
        system = ChannelAccessSystem(graph, channels, seed=0)
        factory = _ucb_factory(system.extended_graph)
        # A single replication owns the only stream, so it is allowed.
        system.simulate_batch(factory, num_rounds=3, replications=1)
        with pytest.raises(ValueError, match="stateful"):
            system.simulate_batch(factory, num_rounds=3, replications=2)
