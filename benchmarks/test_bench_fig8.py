"""Benchmark: Fig. 8 -- throughput under periodic (stale-weight) updates.

Regenerates the Fig. 8 comparison (estimated vs. actual average effective
throughput for several update periods, Algorithm 2 vs. LLR) at a scaled-down
size and checks the paper's qualitative observations.
"""

from __future__ import annotations

from repro.spec import apply_overrides, format_result, get_scenario, run_scenario


def test_fig8_experiment(benchmark):
    """Regenerate the Fig. 8 periodic-update comparison (scaled down)."""
    spec = apply_overrides(
        get_scenario("fig8-quick"),
        {
            "topology.num_nodes": 12,
            "topology.num_channels": 3,
            "schedule.num_periods": 25,
            "seed": 5,
        },
    )
    result = benchmark.pedantic(run_scenario, args=(spec,), rounds=1, iterations=1)
    print("\n" + format_result(result))
    for policy in ("Algorithm2", "LLR"):
        final = {y: result.series[f"actual[{policy}][y={y}]"][-1] for y in (1, 5)}
        assert final[5] > final[1]


def test_fig8_periodic_round(benchmark, bench_network):
    """Cost of one 5-slot update period (1 decision + 5 transmissions)."""
    from repro.api import ChannelAccessSystem

    graph, extended, channels = bench_network
    system = ChannelAccessSystem(graph, channels, seed=2)
    policy = system.paper_policy(r=1)

    def one_period():
        return system.simulate_periodic(policy, num_periods=1, period_slots=5)

    result = benchmark(one_period)
    assert result.num_periods == 1
