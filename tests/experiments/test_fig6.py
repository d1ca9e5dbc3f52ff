"""Tests for the Fig. 6 convergence presets (``fig6-*``)."""

import pytest

from repro.spec import format_result, get_scenario, run_scenario


def labels(spec):
    return [f"{n}x{m}" for n, m in spec.network_sweep]


@pytest.fixture(scope="module")
def quick_result():
    return run_scenario(get_scenario("fig6-quick"))


def trajectories(result):
    return {
        label: result.series[f"weight[{label}]"]
        for label in labels(result.spec_object())
    }


class TestFig6:
    def test_one_trajectory_per_network_size(self, quick_result):
        spec = quick_result.spec_object()
        weight_series = [k for k in quick_result.series if k.startswith("weight[")]
        assert len(weight_series) == len(spec.network_sweep)
        for label in labels(spec):
            assert f"weight[{label}]" in quick_result.series

    def test_trajectories_have_requested_length(self, quick_result):
        max_mini_rounds = quick_result.spec_object().schedule.max_mini_rounds
        for trajectory in trajectories(quick_result).values():
            assert len(trajectory) == max_mini_rounds

    def test_trajectories_are_non_decreasing(self, quick_result):
        for trajectory in trajectories(quick_result).values():
            assert all(
                later >= earlier - 1e-9
                for earlier, later in zip(trajectory, trajectory[1:])
            )

    def test_trajectories_converge_to_positive_weight(self, quick_result):
        # The paper's headline observation: every line flattens at a positive
        # value well before the mini-round budget is exhausted.
        max_mini_rounds = quick_result.spec_object().schedule.max_mini_rounds
        for label, trajectory in trajectories(quick_result).items():
            assert trajectory[-1] > 0
            assert quick_result.records[label]["convergence_round"] <= max_mini_rounds

    def test_convergence_within_a_few_mini_rounds(self, quick_result):
        # Theorem 4 / Fig. 6: random networks converge after a handful of
        # mini-rounds (the paper observes 4).
        for label in labels(quick_result.spec_object()):
            assert quick_result.records[label]["convergence_round"] <= 8

    def test_larger_networks_accumulate_more_weight(self, quick_result):
        # With the same channel catalogue, a 40-user network schedules more
        # simultaneous transmissions than a 20-user one.
        assert (
            quick_result.series["weight[40x3]"][-1]
            > quick_result.series["weight[20x3]"][-1]
        )

    def test_format_contains_all_labels(self, quick_result):
        text = format_result(quick_result)
        for label in labels(quick_result.spec_object()):
            assert f"weight[{label}]" in text
        assert "convergence_round" in text

    def test_default_config_is_paper_scale(self):
        spec = get_scenario("fig6-paper")
        assert (200, 10) in spec.network_sweep
        assert spec.policies[0].r == 2
