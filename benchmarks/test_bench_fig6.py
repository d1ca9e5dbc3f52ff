"""Benchmark: Fig. 6 -- convergence of the distributed strategy decision.

Regenerates the Fig. 6 series (summed Winner weight per mini-round for several
network sizes) and benchmarks both the whole experiment and a single protocol
round, including the Fig. 5 linear worst case.
"""

from __future__ import annotations

import numpy as np
from repro.channels.catalog import assign_rates_to_network
from repro.distributed.ptas import DistributedRobustPTAS
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.topology import linear_network, random_network
from repro.spec import format_result, get_scenario, run_scenario


def test_fig6_experiment(benchmark):
    """Regenerate the Fig. 6 convergence series (scaled-down networks)."""
    result = benchmark(run_scenario, get_scenario("fig6-quick"))
    print("\n" + format_result(result))
    trajectories = [v for k, v in result.series.items() if k.startswith("weight[")]
    assert trajectories
    assert all(trajectory[-1] > 0 for trajectory in trajectories)


def test_fig6_single_protocol_round(benchmark, bench_rng):
    """One full strategy decision (Algorithm 3) on a 60-user, 5-channel network."""
    graph = random_network(60, 5, average_degree=6.0, rng=bench_rng)
    extended = ExtendedConflictGraph(graph)
    weights = assign_rates_to_network(60, 5, rng=bench_rng).reshape(-1)
    protocol = DistributedRobustPTAS(extended.adjacency_sets(), r=2)
    result = benchmark(protocol.run, weights)
    assert result.converged


def test_fig6_linear_worst_case(benchmark):
    """Fig. 5 worst case: decreasing weights on a line need many mini-rounds."""
    graph = linear_network(30, 2, spacing=1.0, radius=1.0)
    extended = ExtendedConflictGraph(graph)
    weights = np.linspace(extended.num_vertices, 1.0, extended.num_vertices)
    protocol = DistributedRobustPTAS(extended.adjacency_sets(), r=1)
    result = benchmark(protocol.run, weights)
    # Sequential leader elections: convergence takes far more mini-rounds
    # than on a comparable random network.
    assert result.num_mini_rounds >= 5
