"""What an honest simulated run skips, and what every other run keeps.

An honest run on ``SimulatedTransport`` counts its WB and LD broadcasts
without queueing them, and the engine's barrier drains a decided vertex's
inbox unread.  These tests pin the skip (no WB or LD frame reaches
``VertexProtocol.receive``; no inbox is read by a vertex already decided when
it was collected), check that fault runs still get every frame, also on a
transport an honest run used before, and check the independence flag on
lossy runs, where the barrier skip meets dropped determinations.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import (
    AsyncioTransport,
    DistributedRobustPTAS,
    SimulatedTransport,
    VertexProtocol,
)
from repro.distributed.messages import Accusation, WeightBroadcast
from repro.faults import ByzantineFault, FaultInjectionEngine, FaultPlan, QuorumConfig
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.neighborhoods import NeighborhoodTable, protocol_radii
from repro.graph.topology import connected_random_network

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


def test_honest_run_reads_no_wb_or_ld_and_no_decided_inbox(monkeypatch):
    adjacency, weights = instance(7)
    log = []
    receive = VertexProtocol.receive

    def logged_receive(self, message):
        log.append(("receive", self.vertex, type(message).__name__, self.status.is_decided))
        receive(self, message)

    monkeypatch.setattr(VertexProtocol, "receive", logged_receive)
    transport = RecordingTransport(adjacency, log=log)
    result = DistributedRobustPTAS(adjacency, r=1, transport=transport).run(weights)

    telemetry = transport.telemetry_summary()
    received = Counter(entry[2] for entry in log if entry[0] == "receive")
    assert telemetry["net_delivered_WeightBroadcast"] > 0
    assert telemetry["net_delivered_LeaderDeclaration"] > 0
    assert received["WeightBroadcast"] == 0
    assert received["LeaderDeclaration"] == 0
    assert transport.collected() == {
        "StatusDetermination": telemetry["net_delivered_StatusDetermination"]
    }
    # The first frame of every drained inbox that is read at all reaches a
    # vertex still undecided at the barrier; decided ones drain unread.
    skipped = 0
    for entry, following in zip(log, log[1:] + [None]):
        if entry[0] != "collect" or not entry[2]:
            continue
        if following is None or following[0] != "receive":
            skipped += 1
            continue
        assert following[1] == entry[1]
        assert not following[3]
    assert skipped > 0
    assert 0 < received["StatusDetermination"] < telemetry[
        "net_delivered_StatusDetermination"
    ]
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
    honest = transport.collected()
    assert honest["WeightBroadcast"] == honest["LeaderDeclaration"] == 0
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
