"""Tests for repro.channels.state."""

import numpy as np
import pytest

from repro.channels.models import GaussianChannel
from repro.channels.state import ChannelState


def constant_state(means):
    """Build a ChannelState of zero-variance Gaussians from a nested list."""
    return ChannelState([[GaussianChannel(value, 0.0) for value in row] for row in means])


class TestConstruction:
    def test_shapes(self):
        state = constant_state([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert state.num_nodes == 3
        assert state.num_channels == 2
        assert state.num_arms == 6

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            constant_state([[1.0], [1.0, 2.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ChannelState([])
        with pytest.raises(ValueError):
            ChannelState([[]])

    def test_from_mean_matrix(self):
        means = np.array([[100.0, 200.0], [300.0, 400.0]])
        state = ChannelState.from_mean_matrix(means, relative_std=0.1)
        assert state.mean(1, 1) == 400.0
        assert isinstance(state.model(0, 0), GaussianChannel)

    def test_from_mean_matrix_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            ChannelState.from_mean_matrix(np.array([1.0, 2.0]))

    def test_random_paper_rates_shape(self, rng):
        state = ChannelState.random_paper_rates(7, 4, rng=rng)
        assert state.num_nodes == 7
        assert state.num_channels == 4


class TestMeansAndIndexing:
    def test_mean_matrix_and_vector_agree(self):
        state = constant_state([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(state.mean_matrix().reshape(-1), state.mean_vector())

    def test_out_of_range(self):
        state = constant_state([[1.0]])
        with pytest.raises(ValueError):
            state.mean(5, 0)

    def test_mean_matrix_is_copy(self):
        state = constant_state([[1.0, 2.0]])
        matrix = state.mean_matrix()
        matrix[0, 0] = 99.0
        assert state.mean(0, 0) == 1.0


class TestSampling:
    def test_constant_sampling(self, rng):
        state = constant_state([[5.0, 7.0]])
        assert state.sample(0, 1, rng) == 7.0

    def test_sample_arms(self, rng):
        state = constant_state([[1.0, 2.0], [3.0, 4.0]])
        observations = state.sample_arm_array(np.array([0, 3]), rng)
        assert list(observations) == [1.0, 4.0]

    def test_expected_reward(self):
        state = constant_state([[1.0, 2.0], [3.0, 4.0]])
        assert state.expected_reward({0: 1, 1: 1}) == 6.0

    def test_gaussian_sampling_statistics(self, rng):
        state = ChannelState.from_mean_matrix(
            np.full((1, 1), 1000.0), relative_std=0.05
        )
        samples = [state.sample(0, 0, rng) for _ in range(3000)]
        assert np.mean(samples) == pytest.approx(1000.0, rel=0.02)
