"""Shared configuration for the benchmark suite.

Benchmarks use scaled-down presets so the whole suite runs in well under a
minute; the paper-scale runs are the ``*-paper`` presets, reachable through
the same ``run_scenario`` call (or ``repro run <preset>``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channels.state import ChannelState
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.topology import connected_random_network


@pytest.fixture(scope="session")
def bench_rng():
    return np.random.default_rng(2014)


@pytest.fixture(scope="session")
def bench_network(bench_rng):
    """A 12-user, 3-channel connected random network reused across benches."""
    graph = connected_random_network(12, 3, average_degree=5.0, rng=bench_rng)
    extended = ExtendedConflictGraph(graph)
    channels = ChannelState.random_paper_rates(12, 3, rng=bench_rng)
    return graph, extended, channels
