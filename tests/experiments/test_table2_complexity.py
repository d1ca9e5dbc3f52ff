"""Tests for the Table II report and the complexity presets."""

import pytest

from repro.sim.timing import TimingConfig, format_table2, table2_report
from repro.spec import format_result, get_scenario, run_scenario


class TestTable2:
    def test_report_reproduces_table2_constants(self):
        report = table2_report()
        assert report["local_broadcast_tb_ms"] == 100.0
        assert report["local_computation_tl_ms"] == 50.0
        assert report["data_transmission_td_ms"] == 1000.0
        assert report["round_ta_ms"] == 2000.0

    def test_report_derived_values(self):
        report = table2_report()
        assert report["mini_round_tm_ms"] == 250.0
        assert report["strategy_decision_ts_ms"] == 1000.0
        assert report["theta"] == pytest.approx(0.5)
        assert report["period_efficiency_y20"] == pytest.approx(0.975)

    def test_custom_timing_flows_through(self):
        timing = TimingConfig(
            local_broadcast_ms=10.0,
            local_computation_ms=10.0,
            data_transmission_ms=300.0,
            decision_mini_rounds=1,
        )
        report = table2_report(timing)
        assert report["round_ta_ms"] == pytest.approx(330.0)

    def test_format_contains_all_parameters(self):
        text = format_table2()
        for key in table2_report():
            assert key in text


class TestComplexityExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(get_scenario("complexity-quick"))

    def test_one_record_per_network(self, result):
        assert len(result.records) == len(result.spec_object().network_sweep)

    def test_measured_messages_respect_paper_bound(self, result):
        # Communication claim: messages per vertex are O(r^2 + D), never
        # linear in the network size.
        for record in result.records.values():
            assert record["max_messages_per_vertex"] <= record["message_bound"]

    def test_space_is_bounded_by_neighborhood_not_network(self, result):
        for record in result.records.values():
            assert record["max_stored_weights"] <= record["num_vertices"]

    def test_local_instances_are_local(self, result):
        # Each LocalLeader enumerates only its r-hop candidate set, never the
        # whole extended graph.
        for record in result.records.values():
            assert record["max_local_instance"] <= record["num_vertices"]

    def test_positive_winner_weight(self, result):
        for record in result.records.values():
            assert record["winner_weight"] > 0

    def test_format_lists_networks(self, result):
        text = format_result(result)
        for num_nodes, num_channels in result.spec_object().network_sweep:
            assert f"{num_nodes}x{num_channels}" in text
