"""Benchmark: Table II report and the Section IV-C complexity measurements."""

from __future__ import annotations

import pytest

from repro.sim.timing import format_table2, table2_report
from repro.spec import format_result, get_scenario, run_scenario


def test_table2_report(benchmark):
    """Regenerate the Table II constants and derived round structure."""
    report = benchmark(table2_report)
    print("\n" + format_table2())
    assert report["theta"] == pytest.approx(0.5)
    assert report["round_ta_ms"] == pytest.approx(2000.0)


def test_complexity_measurements(benchmark):
    """Measure messages / storage / local-instance sizes per round (E6)."""
    result = benchmark.pedantic(
        run_scenario, args=(get_scenario("complexity-quick"),), rounds=1, iterations=1
    )
    print("\n" + format_result(result))
    for record in result.records.values():
        assert record["max_messages_per_vertex"] <= record["message_bound"]
