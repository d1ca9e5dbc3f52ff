"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.channels.state import ChannelState
from repro.graph.conflict_graph import ConflictGraph
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.topology import connected_random_network, linear_network
from repro.spec import apply_overrides, get_scenario


@pytest.fixture
def rng():
    """Deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def triangle_graph():
    """The 3-node, 3-channel example of Fig. 1 (a triangle of conflicts)."""
    return ConflictGraph(3, [(0, 1), (0, 2), (1, 2)], num_channels=3)


@pytest.fixture
def triangle_extended(triangle_graph):
    """The extended conflict graph of the Fig. 1 example (9 virtual vertices)."""
    return ExtendedConflictGraph(triangle_graph)


@pytest.fixture
def path_graph():
    """A 5-node path with 2 channels: simple, sparse, easy to reason about."""
    return ConflictGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], num_channels=2)


@pytest.fixture
def path_extended(path_graph):
    return ExtendedConflictGraph(path_graph)


@pytest.fixture
def small_random_graph(rng):
    """Connected random unit-disk network of 8 users with 3 channels."""
    return connected_random_network(8, 3, rng=rng)


@pytest.fixture
def small_random_extended(small_random_graph):
    return ExtendedConflictGraph(small_random_graph)


@pytest.fixture
def small_channel_state(rng):
    """Channel state for the 8x3 random network, drawn from the paper rates."""
    return ChannelState.random_paper_rates(8, 3, rng=rng)


@pytest.fixture
def line_graph():
    """The Fig. 5 worst-case linear network (8 nodes, 2 channels)."""
    return linear_network(8, 2, spacing=1.0, radius=1.0)


def _shrunk_spec(name):
    """The registered spec, scaled down so every preset runs in well under
    a second while still exercising its full code path."""
    spec = get_scenario(name)
    mode = spec.schedule.mode
    overrides = {}
    if mode == "per-round":
        overrides["schedule.num_rounds"] = min(spec.schedule.num_rounds, 30)
        overrides["replication.replications"] = min(
            spec.replication.replications, 2
        )
    elif mode == "periodic":
        overrides["schedule.num_periods"] = min(spec.schedule.num_periods, 3)
        overrides["replication.replications"] = min(
            spec.replication.replications, 2
        )
        spec = dataclasses.replace(
            spec,
            schedule=dataclasses.replace(
                spec.schedule, periods=spec.schedule.periods[:2]
            ),
        )
    elif mode == "protocol" and len(spec.network_sweep) > 1:
        spec = dataclasses.replace(
            spec, network_sweep=(min(spec.network_sweep),)
        )
    return apply_overrides(spec, overrides)


@pytest.fixture
def shrunk_spec():
    """``shrunk_spec(name)``: a registered preset, shrunk for the suite."""
    return _shrunk_spec
