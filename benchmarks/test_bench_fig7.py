"""Benchmark: Fig. 7 -- practical regret and beta-regret vs. the LLR policy.

Regenerates the Fig. 7 comparison at a scaled-down size and checks the
qualitative claims (positive practical regret, negative beta-regret,
Algorithm 2 competitive with LLR).
"""

from __future__ import annotations

from repro.sim.metrics import tail_mean
from repro.spec import apply_overrides, format_result, get_scenario, run_scenario


def test_fig7_experiment(benchmark):
    """Regenerate the Fig. 7 regret comparison (scaled-down network)."""
    spec = apply_overrides(
        get_scenario("fig7-quick"), {"schedule.num_rounds": 80, "seed": 7}
    )
    result = benchmark.pedantic(run_scenario, args=(spec,), rounds=1, iterations=1)
    print("\n" + format_result(result))
    for name in ("Algorithm2", "LLR"):
        assert tail_mean(result.series[f"practical_regret[{name}]"]) > 0
        assert tail_mean(result.series[f"beta_regret[{name}]"]) < 0


def test_fig7_single_learning_round(benchmark, bench_network):
    """Cost of one learning round of Algorithm 2 (decision + update)."""
    from repro.api import ChannelAccessSystem

    graph, extended, channels = bench_network
    system = ChannelAccessSystem(graph, channels, seed=1)
    policy = system.paper_policy(r=1)
    optimal = system.optimal_value()

    def one_round():
        return system.simulate(policy, num_rounds=1, optimal_value=optimal)

    result = benchmark(one_round)
    assert result.num_rounds == 1
