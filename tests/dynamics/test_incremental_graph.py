"""Incremental-vs-rebuild equality for the dynamic graph structures.

The contract: after *any* event sequence, the incrementally maintained
conflict graph ``G``, extended graph ``H``, master assignment and r-hop
neighbourhood table are bit-identical to a fresh build from the current
topology.  Exercised property-style over random unit-disk topologies and
random event sequences drawn from all four event kinds.
"""

import numpy as np
import pytest

from repro.dynamics.events import LinkFlap, MobilityStep, NodeArrival, NodeDeparture
from repro.dynamics.graph import DynamicExtendedGraph, DynamicTopology, GraphDelta
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.neighborhoods import NeighborhoodTable, r_hop_neighborhood
from repro.graph.topology import random_network, ring_network


def random_event(topology: DynamicTopology, rng: np.random.Generator, round_index: int):
    """Draw one applicable random event for the current topology state."""
    active = topology.active_nodes()
    departed = [n for n in range(topology.num_nodes) if not topology.is_active(n)]
    geometric = topology.to_conflict_graph().positions is not None
    choices = []
    if len(active) > 1:
        choices.append("depart")
    if departed:
        choices.append("arrive")
    if geometric:
        choices.append("move")
    choices.append("flap")
    kind = choices[int(rng.integers(0, len(choices)))]
    side = 8.0
    if kind == "depart":
        return NodeDeparture(round_index=round_index, node=int(rng.choice(active)))
    if kind == "arrive":
        node = int(rng.choice(departed))
        if geometric:
            x, y = rng.uniform(0.0, side, size=2)
            return NodeArrival(round_index=round_index, node=node, x=float(x), y=float(y))
        return NodeArrival(round_index=round_index, node=node)
    if kind == "move":
        x, y = rng.uniform(0.0, side, size=2)
        return MobilityStep(
            round_index=round_index,
            node=int(rng.integers(0, topology.num_nodes)),
            x=float(x),
            y=float(y),
        )
    u = int(rng.integers(0, topology.num_nodes))
    v = int(rng.integers(0, topology.num_nodes - 1))
    if v >= u:
        v += 1
    return LinkFlap(round_index=round_index, u=u, v=v, up=bool(rng.random() < 0.4))


def assert_matches_fresh_build(topology, extended, table):
    """The satellite contract: adjacency, masters and hoods match a rebuild."""
    snapshot = topology.to_conflict_graph()
    fresh = ExtendedConflictGraph(snapshot)
    assert extended.adjacency == fresh.adjacency_sets()
    assert snapshot.adjacency_sets() == topology.adjacency_sets()
    assert [extended.master_of(v) for v in range(extended.num_vertices)] == [
        fresh.master_of(v) for v in fresh.vertices()
    ]
    for radius in table.radii:
        adjacency = fresh.adjacency_sets()
        assert list(table.balls(radius)) == [
            r_hop_neighborhood(adjacency, v, radius) for v in range(len(adjacency))
        ]


@pytest.mark.parametrize("seed", range(6))
def test_random_event_sequences_on_random_unit_disk_topologies(seed):
    rng = np.random.default_rng(seed)
    base = random_network(
        int(rng.integers(6, 14)), int(rng.integers(2, 4)), average_degree=5.0, rng=rng
    )
    topology = DynamicTopology(base)
    extended = DynamicExtendedGraph(topology)
    table = NeighborhoodTable(extended.adjacency, (1, 2, 3))
    for step in range(1, 41):
        delta = topology.apply(random_event(topology, rng, step))
        touched = extended.apply_delta(delta).touched_vertices
        table.update(touched)
        if step % 10 == 0:
            assert_matches_fresh_build(topology, extended, table)
    assert_matches_fresh_build(topology, extended, table)
    extended.verify_rebuild()
    table.verify_rebuild()


def test_combinatorial_topology_restores_base_edges_on_arrival():
    base = ring_network(6, 2)
    topology = DynamicTopology(base)
    extended = DynamicExtendedGraph(topology)
    table = NeighborhoodTable(extended.adjacency, (2,))
    for event in (
        NodeDeparture(round_index=1, node=0),
        NodeDeparture(round_index=2, node=3),
        NodeArrival(round_index=3, node=0),
    ):
        touched = extended.apply_delta(topology.apply(event)).touched_vertices
        table.update(touched)
    # Node 0 is back with its ring edges; node 3 is still isolated.
    assert topology.adjacency_sets()[0] == {1, 5}
    assert topology.adjacency_sets()[3] == set()
    assert_matches_fresh_build(topology, extended, table)


def test_flapped_link_stays_down_until_restored():
    base = ring_network(4, 2)
    topology = DynamicTopology(base)
    topology.apply(LinkFlap(round_index=1, u=0, v=1, up=False))
    assert 1 not in topology.adjacency_sets()[0]
    # Redundant flap-down is a no-op delta.
    assert topology.apply(LinkFlap(round_index=2, u=0, v=1, up=False)) == GraphDelta()
    delta = topology.apply(LinkFlap(round_index=3, u=0, v=1, up=True))
    assert delta.added_edges == frozenset({(0, 1)})
    assert 1 in topology.adjacency_sets()[0]


def test_departure_of_departed_node_is_an_error():
    topology = DynamicTopology(ring_network(4, 2))
    topology.apply(NodeDeparture(round_index=1, node=2))
    with pytest.raises(ValueError, match="already departed"):
        topology.apply(NodeDeparture(round_index=2, node=2))
    with pytest.raises(ValueError, match="already active"):
        topology.apply(NodeArrival(round_index=2, node=0))


def test_mobility_changes_unit_disk_edges():
    base = random_network(8, 2, average_degree=4.0, rng=np.random.default_rng(1))
    topology = DynamicTopology(base)
    extended = DynamicExtendedGraph(topology)
    # Move node 0 far away from everyone: it must become isolated.
    delta = topology.apply(MobilityStep(round_index=1, node=0, x=1e6, y=1e6))
    extended.apply_delta(delta)
    assert topology.adjacency_sets()[0] == set()
    extended.verify_rebuild()
