"""Tests for repro.reporting and the paper-scale vs. quick presets."""

import dataclasses

import pytest

from repro.reporting import render_series, render_table
from repro.spec import get_scenario


class TestRenderTable:
    def test_alignment_and_header_rule(self):
        text = render_table(["name", "value"], [["a", 1], ["long-name", 2.5]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_float_formatting(self):
        text = render_table(["x"], [[1.23456789]])
        assert "1.235" in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_empty_body(self):
        text = render_table(["a"], [])
        assert text.splitlines()[0] == "a"


class TestRenderSeries:
    def test_short_series_rendered_fully(self):
        text = render_series("label", [1.0, 2.0, 3.0])
        assert text.startswith("label:")
        assert "1" in text and "3" in text

    def test_long_series_is_subsampled_but_keeps_last_value(self):
        values = list(range(100))
        text = render_series("trace", values, max_points=10)
        assert "99" in text
        assert text.count(",") < 30


class TestConfigs:
    def test_quick_configs_are_smaller_than_paper(self):
        assert len(get_scenario("fig6-quick").network_sweep) < len(
            get_scenario("fig6-paper").network_sweep
        )
        assert (
            get_scenario("fig7-quick").schedule.num_rounds
            < get_scenario("fig7-paper").schedule.num_rounds
        )
        assert (
            get_scenario("fig8-quick").schedule.num_periods
            < get_scenario("fig8-paper").schedule.num_periods
        )
        assert len(get_scenario("complexity-quick").network_sweep) < len(
            get_scenario("complexity-paper").network_sweep
        )

    def test_paper_fig7_matches_section_vb(self):
        spec = get_scenario("fig7-paper")
        assert spec.topology.num_nodes == 15
        assert spec.topology.num_channels == 3
        assert spec.schedule.num_rounds == 1000
        assert spec.policies[0].r == 2

    def test_configs_are_frozen(self):
        spec = get_scenario("fig6-paper")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 5
