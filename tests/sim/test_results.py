"""Tests for repro.sim.results (the step trace and the per-round view)."""

import numpy as np
import pytest

from repro.core.strategy import Strategy
from repro.sim.results import STEP_COLUMNS, SimulationResult, StepTrace


def make_trace(rewards, estimated=()):
    trace = StepTrace(len(rewards))
    for index, reward in enumerate(rewards, start=1):
        trace.append(
            Strategy.from_assignment({0: index % 2}),
            expected=reward,
            observed=reward + 0.5,
            estimated=estimated[index - 1] if index <= len(estimated) else None,
        )
    return trace


class TestStepTrace:
    def test_columns_start_nan_and_fill_by_row(self):
        trace = StepTrace(3, extra_columns=("messages",))
        trace.append(Strategy.from_assignment({0: 0}), expected=1.0, messages=4)
        assert len(trace) == 1
        assert trace.column("expected").tolist() == [1.0]
        assert trace.column("messages").tolist() == [4.0]
        for name in STEP_COLUMNS[1:]:
            assert np.isnan(trace.column(name)).all()

    def test_columns_are_read_only_views(self):
        trace = make_trace([2.0])
        with pytest.raises(ValueError):
            trace.column("expected")[0] = 0.0

    def test_unknown_column_rejected(self):
        with pytest.raises(KeyError):
            StepTrace(1).append(Strategy.from_assignment({0: 0}), nope=1.0)


class TestSimulationResult:
    def test_reward_arrays(self):
        result = SimulationResult(policy_name="p", trace=make_trace([2.0, 4.0]))
        assert np.allclose(result.expected_rewards(), [2.0, 4.0])
        assert np.allclose(result.observed_rewards(), [2.5, 4.5])
        assert result.num_rounds == 2

    def test_estimated_weights_with_missing_values(self):
        result = SimulationResult(
            policy_name="p", trace=make_trace([2.0, 4.0], estimated=[3.0])
        )
        estimates = result.estimated_weights()
        assert estimates[0] == 3.0
        assert np.isnan(estimates[1])

    def test_empty_trace_has_zero_wall_clock(self):
        result = SimulationResult(policy_name="p", trace=StepTrace(0))
        assert result.total_wall_clock() == 0.0

    def test_tracker_views_the_trace(self):
        result = SimulationResult(
            policy_name="p", trace=make_trace([4.0]), optimal_value=5.0, theta=0.5
        )
        tracker = result.tracker
        assert tracker.num_rounds == 1
        assert tracker.theta == 0.5
        assert tracker.regret_trace().tolist() == [1.0]
        assert tracker.regret_trace(use_observed=True).tolist() == [0.5]
