"""CSR-backed accessors must match the set-based reference everywhere.

The scaling work rebuilt :class:`ConflictGraph`/:class:`ExtendedConflictGraph`
on CSR arrays and gave :mod:`repro.graph.neighborhoods` a frontier-BFS fast
path.  These tests pin the contract that made that refactor safe:

* every set-facing accessor (``neighbors``/``adjacency_sets``/``degree``)
  agrees with a reference adjacency rebuilt from ``edges()``,
* the CSR BFS path and the pure-Python ``Sequence[Set]`` path of the
  neighbourhood helpers return identical results,

on **every registered scenario preset** and on conflict graphs produced by
random churn/mobility/flap sequences through :mod:`repro.dynamics.graph`
(the structures the dynamics layer rebuilds from).
"""

from __future__ import annotations

from typing import List, Set

import numpy as np
import pytest

from repro.dynamics.events import LinkFlap, MobilityStep, NodeArrival, NodeDeparture
from repro.dynamics.graph import DynamicTopology
from repro.graph.conflict_graph import ConflictGraph
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.neighborhoods import r_hop_neighborhood, r_hop_neighborhood_arrays
from repro.spec.registry import get_scenario, list_scenarios

PRESETS = list_scenarios()


def build_preset_graph(preset: str, seed: int) -> ConflictGraph:
    """Build a preset's topology, capped at 15 nodes.

    The cap keeps the paper-scale presets fast and makes the
    connected-random resampling loop reliable for arbitrary seeds; every
    registered topology *kind* and channel count is still exercised as
    registered.
    """
    spec = get_scenario(preset)
    topology = spec.topology
    if topology.num_nodes > 15:
        topology = topology.with_size(15, topology.num_channels)
    return topology.build(np.random.default_rng(seed))


def reference_adjacency(graph: ConflictGraph) -> List[Set[int]]:
    """Adjacency sets rebuilt from the canonical edge list, independently of
    the CSR accessors under test."""
    adjacency: List[Set[int]] = [set() for _ in range(graph.num_nodes)]
    for u, v in graph.edges():
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def assert_graph_matches_reference(graph: ConflictGraph) -> None:
    reference = reference_adjacency(graph)
    assert graph.adjacency_sets() == reference
    indptr, indices = graph.csr_adjacency()
    assert len(indptr) == graph.num_nodes + 1
    assert int(indptr[-1]) == 2 * graph.num_edges
    for node in range(graph.num_nodes):
        assert graph.neighbors(node) == frozenset(reference[node])
        assert graph.degree(node) == len(reference[node])
        row = graph.neighbors_array(node)
        assert row.tolist() == sorted(reference[node])
        assert not row.flags.writeable
    # types must stay plain Python ints (JSON-serializable downstream)
    if graph.num_edges:
        some = next(iter(graph.adjacency_sets()[0] or {0}))
        assert type(some) is int


def assert_neighborhood_paths_agree(graph: ConflictGraph, r: int) -> None:
    """CSR frontier BFS vs the pure-Python Sequence[Set] traversal."""
    adjacency = reference_adjacency(graph)
    for source in range(graph.num_nodes):
        assert r_hop_neighborhood(graph, source, r) == r_hop_neighborhood(
            adjacency, source, r
        )
    offsets, members = r_hop_neighborhood_arrays(graph, r)
    for source in range(graph.num_nodes):
        packed = set(members[offsets[source] : offsets[source + 1]].tolist())
        assert packed == r_hop_neighborhood(adjacency, source, r)


def test_presets_are_registered():
    assert PRESETS, "scenario registry is empty"


@pytest.mark.parametrize("preset", PRESETS)
def test_csr_accessors_match_sets_on_preset(preset):
    graph = build_preset_graph(preset, 7)
    assert_graph_matches_reference(graph)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_neighborhood_paths_match_on_preset(preset, r):
    graph = build_preset_graph(preset, 11)
    assert_neighborhood_paths_agree(graph, r)


@pytest.mark.parametrize("preset", PRESETS)
def test_extended_graph_matches_set_reference_on_preset(preset):
    graph = build_preset_graph(preset, 13)
    extended = ExtendedConflictGraph(graph)
    m = graph.num_channels
    reference: List[Set[int]] = [set() for _ in range(extended.num_vertices)]
    for node in range(graph.num_nodes):
        for a in range(m):
            for b in range(m):
                if a != b:
                    reference[node * m + a].add(node * m + b)
    for u, v in graph.edges():
        for channel in range(m):
            reference[u * m + channel].add(v * m + channel)
            reference[v * m + channel].add(u * m + channel)
    assert extended.adjacency_sets() == reference
    for vertex in range(extended.num_vertices):
        assert extended.neighbors(vertex) == frozenset(reference[vertex])
        assert extended.degree(vertex) == len(reference[vertex])


def _random_events(rng: np.random.Generator, topology: DynamicTopology, count: int):
    """A mixed churn/mobility/flap sequence valid for the given topology.

    Tracks the active set so departures only hit active nodes and arrivals
    only departed ones (``DynamicTopology.apply`` rejects anything else).
    """
    n = topology.num_nodes
    side = 10.0
    active = {node for node in range(n) if topology.is_active(node)}
    departed = set(range(n)) - active
    geometric = topology.to_conflict_graph().positions is not None
    events = []
    for step in range(count):
        kind = int(rng.integers(0, 4))
        node = int(rng.integers(0, n))
        if kind == 0 and node in active and len(active) > 1:
            active.discard(node)
            departed.add(node)
            events.append(NodeDeparture(round_index=step + 1, node=node))
        elif kind == 1 and departed:
            node = sorted(departed)[int(rng.integers(0, len(departed)))]
            departed.discard(node)
            active.add(node)
            x, y = (float(v) for v in rng.uniform(0.0, side, size=2))
            events.append(NodeArrival(round_index=step + 1, node=node, x=x, y=y))
        elif kind == 2 and geometric:
            x, y = (float(v) for v in rng.uniform(0.0, side, size=2))
            events.append(MobilityStep(round_index=step + 1, node=node, x=x, y=y))
        else:
            other = int(rng.integers(0, n))
            if other != node:
                events.append(
                    LinkFlap(
                        round_index=step + 1,
                        u=min(node, other),
                        v=max(node, other),
                        up=bool(rng.integers(0, 2)),
                    )
                )
    return events


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_csr_accessors_match_sets_under_churn(seed):
    rng = np.random.default_rng(seed)
    spec = get_scenario("churn-quick")
    base = spec.topology.build(rng)
    topology = DynamicTopology(base)
    for event in _random_events(rng, topology, 40):
        topology.apply(event)
        rebuilt = topology.to_conflict_graph()
        assert rebuilt.adjacency_sets() == topology.adjacency_sets()
    assert_graph_matches_reference(topology.to_conflict_graph())


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("r", [1, 2])
def test_neighborhood_paths_match_under_churn(seed, r):
    rng = np.random.default_rng(100 + seed)
    spec = get_scenario("churn-quick")
    base = spec.topology.build(rng)
    topology = DynamicTopology(base)
    for event in _random_events(rng, topology, 25):
        topology.apply(event)
    rebuilt = topology.to_conflict_graph()
    assert_neighborhood_paths_agree(rebuilt, r)
    # the live set-based adjacency and the rebuilt CSR graph see the same hoods
    live = topology.adjacency_sets()
    for source in range(rebuilt.num_nodes):
        assert r_hop_neighborhood(live, source, r) == r_hop_neighborhood(
            rebuilt, source, r
        )
