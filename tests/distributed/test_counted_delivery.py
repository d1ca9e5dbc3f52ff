"""What an honest simulated run skips, and what every other run keeps.

An honest run on ``SimulatedTransport`` counts its WB, LD and LB broadcasts
without queueing them, and the engine keeps one shared decided set in place
of LB delivery.  These tests pin the skip (no inbox is collected and no
frame reaches ``VertexProtocol.receive``, yet every delivery is counted),
check that fault runs still get every frame, also on a transport an honest
run used before, that only the honest simulated run shares its decided set,
and check the independence flag on lossy runs, where the barrier skip meets
dropped determinations.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.graph.neighborhoods as neighborhoods_module
from repro.distributed import (
    AsyncioTransport,
    DistributedRobustPTAS,
    SimulatedTransport,
    VertexProtocol,
)
from repro.distributed.messages import Accusation, WeightBroadcast
from repro.faults import ByzantineFault, FaultInjectionEngine, FaultPlan, QuorumConfig
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.neighborhoods import NeighborhoodTable, protocol_radii, r_hop_neighborhood
from repro.graph.topology import connected_random_network
from repro.spec import get_scenario
from repro.spec.runner import run_scenario

#: Few weight levels, so elections hit ties.
LEVELS = (1.0, 2.0, 3.0)


def instance(seed, num_nodes=10, num_channels=3):
    rng = np.random.default_rng(seed)
    graph = connected_random_network(num_nodes, num_channels, rng=rng)
    adjacency = ExtendedConflictGraph(graph).adjacency_sets()
    return adjacency, rng.choice(LEVELS, size=len(adjacency))


class RecordingTransport(SimulatedTransport):
    """A simulated network that logs every broadcast and every drained inbox."""

    def __init__(self, adjacency, neighborhoods=None, log=None):
        super().__init__(adjacency, neighborhoods)
        self.log = [] if log is None else log
        self.sent = []

    def broadcast(self, message, phase):
        self.sent.append(message)
        return super().broadcast(message, phase)

    def collect(self, vertex):
        inbox = super().collect(vertex)
        self.log.append(("collect", vertex, [type(m).__name__ for m in inbox]))
        return inbox

    def collected(self):
        """Frames drained from inboxes, by message type."""
        return Counter(
            name for entry in self.log if entry[0] == "collect" for name in entry[2]
        )


def liar_engine(adjacency, r=1, liar=0):
    hoods = NeighborhoodTable(adjacency, protocol_radii(r))
    plan = FaultPlan([ByzantineFault(vertex=liar, behavior="weight-inflation")])
    engine = FaultInjectionEngine(
        adjacency, r, hoods, plan=plan, quorum=QuorumConfig(threshold=2)
    )
    return engine, hoods


def convictions(transport, liar):
    return [
        message.reason
        for message in transport.sent
        if isinstance(message, Accusation) and message.accused == liar
    ]


def test_honest_simulated_run_collects_nothing_and_counts_every_delivery(monkeypatch):
    adjacency, weights = instance(7)
    received = []
    monkeypatch.setattr(
        VertexProtocol, "receive", lambda self, message: received.append(message)
    )
    transport = RecordingTransport(adjacency)
    result = DistributedRobustPTAS(adjacency, r=1, transport=transport).run(weights)

    assert received == []
    assert transport.log == []  # not even an empty inbox is collected
    assert all(transport.pending(v) == 0 for v in range(len(adjacency)))
    # Every broadcast is still counted as delivered to its whole ball.
    expected = Counter()
    for message in transport.sent:
        ball = r_hop_neighborhood(adjacency, message.sender, message.hop_limit)
        expected[type(message).__name__] += len(ball) - 1
    assert set(expected) == {"WeightBroadcast", "LeaderDeclaration", "StatusDetermination"}
    assert all(count > 0 for count in expected.values())
    telemetry = transport.telemetry_summary()
    for name, count in expected.items():
        assert telemetry[f"net_delivered_{name}"] == count
    assert transport.total_deliveries == result.costs.communication.total_deliveries
    assert transport.total_deliveries == sum(expected.values())
    assert result.converged


def test_quorum_convicts_a_weight_liar_over_the_simulated_network():
    adjacency, weights = instance(3)
    engine, hoods = liar_engine(adjacency, liar=0)
    transport = RecordingTransport(adjacency, hoods)
    result, report = engine.run(transport, weights)
    assert "weight-mismatch" in convictions(transport, 0)
    assert report.excluded_senders >= 1
    assert 0 not in result.independent_set.vertices


def test_fault_run_after_an_honest_run_gets_every_frame():
    adjacency, weights = instance(3)
    engine, hoods = liar_engine(adjacency, liar=0)
    transport = RecordingTransport(adjacency, hoods)

    DistributedRobustPTAS(adjacency, r=1, neighborhoods=hoods, transport=transport).run(
        weights
    )
    assert not transport.collected()
    # The run left no count-only state behind: a WB sent now is queued.
    neighbor = min(adjacency[0])
    transport.broadcast(WeightBroadcast(sender=0, hop_limit=1, weight=1.0), phase="WB")
    assert transport.pending(neighbor) == 1

    transport.reset()
    transport.log.clear()
    result, report = engine.run(transport, weights)
    telemetry = transport.telemetry_summary()
    frames = transport.collected()
    for name in ("WeightBroadcast", "LeaderDeclaration"):
        assert frames[name] == telemetry[f"net_delivered_{name}"] > 0
    assert "weight-mismatch" in convictions(transport, 0)
    assert 0 not in result.independent_set.vertices


@pytest.fixture
def machines(monkeypatch):
    """Every vertex machine built while the test runs, one list per run."""
    runs = []
    init = VertexProtocol.__init__

    def recording_init(self, vertex, *args, **kwargs):
        init(self, vertex, *args, **kwargs)
        if vertex == 0:
            runs.append([])
        runs[-1].append(self)

    monkeypatch.setattr(VertexProtocol, "__init__", recording_init)
    return runs


def shared_sets(run):
    """How many distinct decided sets the machines of one run hold."""
    return len({id(machine.decided) for machine in run})


def test_honest_simulated_decisions_share_one_decided_set_on_fig8_quick(
    machines, monkeypatch
):
    made = []
    make = neighborhoods_module._BallView._make

    def recording_make(self, vertex):
        made.append(self)
        return make(self, vertex)

    monkeypatch.setattr(neighborhoods_module._BallView, "_make", recording_make)
    protocols = []
    init = DistributedRobustPTAS.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        protocols.append(self)

    monkeypatch.setattr(DistributedRobustPTAS, "__init__", recording_init)
    run_scenario(get_scenario("fig8-quick"))
    assert len(machines) > 1 and protocols
    for run in machines:
        assert shared_sets(run) == 1
    assert len({id(run[0].decided) for run in machines}) == len(machines)
    # No (3r + 2)-ball was made as a set: only the transports read that
    # radius, and they read rows.
    made = {id(view) for view in made}
    for protocol in protocols:
        outer = protocol._neighborhoods.balls(protocol_radii(protocol.r)[-1])
        assert id(outer) not in made


def test_asyncio_and_fault_runs_keep_a_decided_set_per_vertex(machines):
    adjacency, weights = instance(3)
    transport = AsyncioTransport(adjacency)
    try:
        DistributedRobustPTAS(adjacency, r=1, transport=transport).run(weights)
    finally:
        transport.close()
    engine, hoods = liar_engine(adjacency, liar=0)
    engine.run(SimulatedTransport(adjacency, hoods), weights)
    assert len(machines) == 2
    for run in machines:
        assert shared_sets(run) == len(run) == len(adjacency)
    assert any(machine.decided for run in machines for machine in run)


def conflicting_pairs(adjacency, winners):
    return [(u, v) for u in winners for v in winners if u < v and v in adjacency[u]]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_nodes=st.integers(min_value=2, max_value=8),
    r=st.sampled_from([1, 2]),
    drop=st.sampled_from([0.1, 0.3, 0.6]),
    latency=st.sampled_from(["none", "uniform", "exponential"]),
    byzantine=st.booleans(),
)
def test_lossy_independence_flag_is_exact(seed, num_nodes, r, drop, latency, byzantine):
    adjacency, weights = instance(seed, num_nodes=num_nodes, num_channels=2)
    transport = AsyncioTransport(
        adjacency, latency=latency, latency_scale=3.0, drop_probability=drop, seed=seed
    )
    try:
        if byzantine:
            hoods = NeighborhoodTable(adjacency, protocol_radii(r))
            plan = FaultPlan([ByzantineFault(vertex=0, behavior="conflicting-decisions")])
            engine = FaultInjectionEngine(adjacency, r, hoods, plan=plan)
            result, _ = engine.run(transport, weights)
        else:
            ptas = DistributedRobustPTAS(adjacency, r=r, transport=transport)
            result = ptas.run(weights)
    finally:
        transport.close()
    conflicts = conflicting_pairs(adjacency, result.independent_set.vertices)
    assert result.independent == (not conflicts)
    if not byzantine:
        # A lost Loser notification leaves its recipient blocked by the
        # unheard leader, never eligible: honest winners stay independent.
        assert not conflicts


@pytest.mark.parametrize("seed", range(3))
def test_conflicting_byzantine_leader_clears_the_flag_on_a_lossy_network(seed):
    # The flag's False side, on a lossy transport: the star's hub crowns
    # itself and a leaf, which are adjacent.
    star = [{1, 2, 3}, {0}, {0}, {0}]
    hoods = NeighborhoodTable(star, protocol_radii(1))
    plan = FaultPlan([ByzantineFault(vertex=0, behavior="conflicting-decisions")])
    engine = FaultInjectionEngine(star, 1, hoods, plan=plan)
    transport = AsyncioTransport(star, drop_probability=0.3, seed=seed)
    try:
        result, _ = engine.run(transport, [5.0, 1.0, 2.0, 3.0])
    finally:
        transport.close()
    assert conflicting_pairs(star, result.independent_set.vertices)
    assert not result.independent
