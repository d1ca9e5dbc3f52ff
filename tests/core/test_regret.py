"""Tests for repro.core.regret."""

import numpy as np
import pytest

from repro.core.regret import (
    RegretTracker,
    cumulative_regret,
    practical_regret,
)


class TestCumulativeRegret:
    def test_zero_regret_when_playing_optimum(self):
        trace = cumulative_regret(10.0, [10.0, 10.0, 10.0])
        assert np.allclose(trace, 0.0)

    def test_linear_growth_for_constant_gap(self):
        trace = cumulative_regret(10.0, [7.0, 7.0, 7.0, 7.0])
        assert np.allclose(trace, [3.0, 6.0, 9.0, 12.0])

    def test_mixed_rewards(self):
        trace = cumulative_regret(5.0, [5.0, 3.0, 6.0])
        assert np.allclose(trace, [0.0, 2.0, 1.0])

    def test_empty_rewards(self):
        assert cumulative_regret(5.0, []).size == 0


class TestPracticalRegret:
    def test_theta_scales_rewards_not_benchmark(self):
        trace = practical_regret(10.0, [10.0], theta=0.5)
        assert np.allclose(trace, [5.0])

    def test_theta_one_is_plain_regret(self):
        rewards = [3.0, 9.0]
        assert np.allclose(
            practical_regret(10.0, rewards, theta=1.0),
            cumulative_regret(10.0, rewards),
        )

    def test_combined_beta_and_theta(self):
        trace = practical_regret(12.0, [10.0], theta=0.5, beta=2.0)
        assert np.allclose(trace, [6.0 - 5.0])

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            practical_regret(10.0, [1.0], theta=0.0)
        with pytest.raises(ValueError):
            practical_regret(10.0, [1.0], theta=1.5)


class TestRegretTracker:
    def test_record_and_traces(self):
        tracker = RegretTracker(optimal_value=10.0, theta=0.5)
        tracker.record(expected_reward=8.0, observed_reward=7.5)
        tracker.record(expected_reward=10.0, observed_reward=10.5)
        assert tracker.num_rounds == 2
        assert np.allclose(tracker.regret_trace(), [2.0, 2.0])
        assert np.allclose(tracker.regret_trace(use_observed=True), [2.5, 2.0])
        assert np.allclose(tracker.practical_regret_trace(), [6.0, 11.0])

    def test_missing_optimum_raises(self):
        tracker = RegretTracker()
        tracker.record(1.0, 1.0)
        with pytest.raises(ValueError):
            tracker.regret_trace()
