"""Tests for the Fig. 8 periodic-update presets (``fig8-*``)."""

import pytest

from repro.spec import format_result, get_scenario, run_scenario

POLICIES = ("Algorithm2", "LLR")


@pytest.fixture(scope="module")
def quick_result():
    return run_scenario(get_scenario("fig8-quick"))


def final(result, metric, period, policy):
    return result.series[f"{metric}[{policy}][y={period}]"][-1]


def estimation_gap(result, period, policy):
    """Relative gap between estimated and actual throughput at the end."""
    actual = final(result, "actual", period, policy)
    estimated = final(result, "estimated", period, policy)
    return abs(estimated - actual) / actual


class TestFig8:
    def test_all_periods_and_policies_present(self, quick_result):
        for period in quick_result.spec_object().schedule.periods:
            for policy in POLICIES:
                assert f"actual[{policy}][y={period}]" in quick_result.series
                assert f"estimated[{policy}][y={period}]" in quick_result.series

    def test_traces_have_one_point_per_period(self, quick_result):
        num_periods = quick_result.spec_object().schedule.num_periods
        for key, trace in quick_result.series.items():
            if key.startswith("actual["):
                assert len(trace) == num_periods

    def test_period_efficiency_values(self, quick_result):
        assert quick_result.records["y=1"]["efficiency"] == pytest.approx(0.5)
        assert quick_result.records["y=5"]["efficiency"] == pytest.approx(0.9)

    def test_longer_periods_increase_actual_throughput(self, quick_result):
        # Paper observation 1: infrequent updates waste less time on learning.
        for policy in POLICIES:
            assert final(quick_result, "actual", 5, policy) > final(
                quick_result, "actual", 1, policy
            )

    def test_algorithm2_estimation_gap_not_larger_than_llr(self, quick_result):
        # Paper observation 2: the paper's index tracks the actual throughput
        # much more closely than LLR's (which over-explores).
        for period in quick_result.spec_object().schedule.periods:
            assert estimation_gap(quick_result, period, "Algorithm2") <= (
                estimation_gap(quick_result, period, "LLR") + 0.05
            )

    def test_traces_are_positive(self, quick_result):
        for key, trace in quick_result.series.items():
            if key.startswith("actual["):
                assert all(value > 0 for value in trace)

    def test_format_lists_every_period(self, quick_result):
        text = format_result(quick_result)
        for period in quick_result.spec_object().schedule.periods:
            assert f"y={period}" in text
        assert "Algorithm2" in text and "LLR" in text

    def test_paper_config_matches_section_vc(self):
        spec = get_scenario("fig8-paper")
        assert spec.topology.num_nodes == 100
        assert spec.topology.num_channels == 10
        assert spec.schedule.periods == (1, 5, 10, 20)
        assert spec.schedule.num_periods == 1000
