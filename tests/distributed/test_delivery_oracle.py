"""Honest runs on the simulated network against full delivery.

Two reference networks deliver every frame of every broadcast to every
recipient's inbox and feed it to the vertex machine: a lossless
``AsyncioTransport`` with ``latency="none"``, and ``InboxTransport`` below,
the plain in-memory form of the same.  The wire codec refuses non-finite
floats, so draws with ``±inf`` weights are checked against the in-memory
reference only.  An honest run on ``SimulatedTransport`` must produce the
same :class:`ProtocolResult` (winners, every mini-round record, convergence
and independence), the same :class:`RoundCosts` and the same
``telemetry_summary()`` as the references, however the simulated network
chooses to deliver.
Random unit-disk topologies, radii 1 and 2, tied weights with ``±inf``
among them, random broadcaster sets (empty included) and truncated
mini-round budgets are drawn; one case runs the decisions of a
``DynamicStrategyEngine`` across a seeded churn batch.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import AsyncioTransport, DistributedRobustPTAS, SimulatedTransport
from repro.distributed.transport import Transport
from repro.dynamics import DynamicStrategyEngine
from repro.dynamics.events import poisson_churn_schedule
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.topology import connected_random_network

#: Few weight levels, so elections and local MWIS hit ties.
FINITE_LEVELS = (0.0, 1.0, 2.0, 3.0)
LEVELS = (-math.inf,) + FINITE_LEVELS + (math.inf,)


class InboxTransport(Transport):
    """Full delivery in memory: every frame lands in every recipient's inbox."""

    def __init__(self, adjacency, neighborhoods=None):
        super().__init__(adjacency, neighborhoods)
        self._inboxes = [[] for _ in range(self.num_vertices)]

    def broadcast(self, message, phase):
        if not self._charge(message, phase):
            return 0
        recipients = self._recipients(message.sender, message.hop_limit)
        for recipient in recipients:
            self._inboxes[recipient].append(message)
        if recipients:
            self._deliveries += len(recipients)
            self._delivered_by_type[type(message).__name__] += len(recipients)
        return len(recipients)

    def collect(self, vertex):
        inbox, self._inboxes[vertex] = self._inboxes[vertex], []
        return inbox

    def pending(self, vertex):
        return len(self._inboxes[vertex])

    def reset(self):
        self._inboxes = [[] for _ in range(self.num_vertices)]
        self.reset_costs()


def result_bits(result):
    """Every bit of a result as canonical JSON (so NaN sums compare equal)."""
    return json.dumps(
        {
            "winners": sorted(result.independent_set.vertices),
            "weight": result.independent_set.weight,
            "records": [
                [
                    record.index,
                    sorted(record.leaders),
                    sorted(record.new_winners),
                    sorted(record.new_losers),
                    record.cumulative_weight,
                    record.remaining_candidates,
                ]
                for record in result.mini_rounds
            ],
            "converged": result.converged,
            "independent": result.independent,
        },
        sort_keys=True,
    )


def run_on(transport, weights, r, neighborhoods=None, **run_kwargs):
    """One decision over ``transport``: ``(result, telemetry)``."""
    try:
        ptas = DistributedRobustPTAS(
            transport.adjacency, r=r, neighborhoods=neighborhoods, transport=transport
        )
        result = ptas.run(weights, **run_kwargs)
        return result, transport.telemetry_summary()
    finally:
        transport.close()


def check_against_full_delivery(adjacency, weights, r, neighborhoods=None, **run_kwargs):
    """Run on the simulated network and on every applicable reference;
    assert they agree and return the simulated ``(result, telemetry)``."""
    references = [InboxTransport(adjacency, neighborhoods)]
    if all(math.isfinite(weight) for weight in weights):
        references.append(
            AsyncioTransport(adjacency, neighborhoods=neighborhoods, latency="none")
        )
    simulated = run_on(
        SimulatedTransport(adjacency, neighborhoods=neighborhoods),
        weights,
        r,
        neighborhoods,
        **run_kwargs,
    )
    sim_result, sim_telemetry = simulated
    for reference in references:
        result, telemetry = run_on(reference, weights, r, neighborhoods, **run_kwargs)
        assert result_bits(sim_result) == result_bits(result)
        assert sim_result.costs == result.costs
        assert sim_telemetry == telemetry
    return simulated


@st.composite
def honest_runs(draw):
    """A unit-disk instance, tied weights, broadcasters and a budget."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    num_nodes = draw(st.integers(min_value=2, max_value=8))
    num_channels = draw(st.integers(min_value=1, max_value=3))
    graph = connected_random_network(
        num_nodes, num_channels, rng=np.random.default_rng(seed)
    )
    adjacency = ExtendedConflictGraph(graph).adjacency_sets()
    n = len(adjacency)
    levels = draw(st.sampled_from([FINITE_LEVELS, LEVELS]))
    weights = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    broadcasters = draw(
        st.one_of(st.none(), st.sets(st.integers(min_value=0, max_value=n - 1)))
    )
    budget = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=4)))
    return adjacency, weights, broadcasters, budget


@settings(max_examples=60, deadline=None)
@given(case=honest_runs(), r=st.sampled_from([1, 2]))
def test_simulated_honest_run_equals_full_delivery(case, r):
    adjacency, weights, broadcasters, budget = case
    check_against_full_delivery(
        adjacency,
        weights,
        r,
        broadcasting_vertices=broadcasters,
        max_mini_rounds=budget,
    )


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_dynamic_decisions_equal_full_delivery_across_churn(seed, r):
    rng = np.random.default_rng(seed)
    graph = connected_random_network(8, 2, rng=rng)
    engine = DynamicStrategyEngine(graph, r=r)
    schedule = poisson_churn_schedule(graph, num_rounds=2, rate=2.0, rng=rng)
    adjacency = engine.extended.adjacency
    assert schedule.num_events > 0
    broadcasters = None
    for round_index in range(3):
        if round_index:
            report = engine.apply_events(schedule.events_for_round(round_index))
            if report.num_events:
                broadcasters = None  # a topology change re-broadcasts every weight
        weights = rng.choice(FINITE_LEVELS, size=engine.extended.num_vertices)
        simulated, _ = check_against_full_delivery(
            adjacency,
            weights,
            r,
            neighborhoods=engine.neighborhoods,
            broadcasting_vertices=broadcasters,
        )
        live = engine.protocol.run(weights, broadcasting_vertices=broadcasters)
        assert result_bits(live) == result_bits(simulated)
        assert live.costs == simulated.costs
        broadcasters = set(live.independent_set.vertices)
