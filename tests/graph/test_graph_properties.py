"""Property-based tests (hypothesis) for the graph substrate.

Invariants fuzzed here:

* the extended conflict graph has exactly N*M vertices, per-master cliques and
  per-channel copies of every conflict edge;
* every independent set of H maps to a conflict-free assignment and back;
* r-hop neighbourhoods are monotone in r, symmetric, and consistent with BFS
  hop distances;
* unit-disk graphs are invariant under translation of all points.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph.conflict_graph import ConflictGraph
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.geometry import Point
from repro.graph.neighborhoods import hop_distances, r_hop_neighborhood
from repro.graph.unit_disk import unit_disk_edge_array


@st.composite
def random_conflict_graph(draw, max_nodes=7, max_channels=3):
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    num_channels = draw(st.integers(min_value=1, max_value=max_channels))
    edges = []
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            if draw(st.booleans()):
                edges.append((i, j))
    return ConflictGraph(num_nodes, edges, num_channels)


@settings(max_examples=60, deadline=None)
@given(graph=random_conflict_graph())
def test_extended_graph_structure(graph):
    extended = ExtendedConflictGraph(graph)
    n, m = graph.num_nodes, graph.num_channels
    assert extended.num_vertices == n * m
    # Expected edge count: one clique per master plus one copy of every
    # conflict edge per channel.
    expected_edges = n * m * (m - 1) // 2 + graph.num_edges * m
    assert extended.num_edges == expected_edges
    # Same-master vertices are pairwise adjacent.
    for node in range(n):
        for a in range(m):
            for b in range(a + 1, m):
                assert extended.vertex_index(node, b) in extended.neighbors(
                    extended.vertex_index(node, a)
                )


@settings(max_examples=60, deadline=None)
@given(graph=random_conflict_graph(), data=st.data())
def test_independent_sets_roundtrip_to_assignments(graph, data):
    extended = ExtendedConflictGraph(graph)
    # Build a random feasible assignment greedily.
    assignment = {}
    for node in range(graph.num_nodes):
        if not data.draw(st.booleans()):
            continue
        channel = data.draw(st.integers(min_value=0, max_value=graph.num_channels - 1))
        conflict = any(
            assignment.get(other) == channel for other in graph.neighbors(node)
        )
        if not conflict:
            assignment[node] = channel
    vertices = extended.assignment_to_independent_set(assignment)
    assert extended.is_independent_set(vertices)
    assert extended.independent_set_to_assignment(vertices) == assignment


@settings(max_examples=60, deadline=None)
@given(graph=random_conflict_graph(max_nodes=8, max_channels=2), r=st.integers(0, 4))
def test_r_hop_neighborhoods_monotone_and_symmetric(graph, r):
    adjacency = graph.adjacency_sets()
    for vertex in range(graph.num_nodes):
        smaller = r_hop_neighborhood(adjacency, vertex, r)
        larger = r_hop_neighborhood(adjacency, vertex, r + 1)
        assert smaller <= larger
        distances = hop_distances(adjacency, vertex)
        assert smaller == {u for u, d in distances.items() if d <= r}
    # Symmetry: u in J_r(v) iff v in J_r(u).
    for u in range(graph.num_nodes):
        for v in range(graph.num_nodes):
            in_u = v in r_hop_neighborhood(adjacency, u, r)
            in_v = u in r_hop_neighborhood(adjacency, v, r)
            assert in_u == in_v


@settings(max_examples=40, deadline=None)
@given(
    coords=st.lists(
        st.tuples(
            st.integers(min_value=-50, max_value=50),
            st.integers(min_value=-50, max_value=50),
        ),
        min_size=1,
        max_size=15,
    ),
    dx=st.integers(min_value=-100, max_value=100),
    dy=st.integers(min_value=-100, max_value=100),
)
def test_unit_disk_graph_is_translation_invariant(coords, dx, dy):
    # Integer coordinates keep squared distances exactly representable, so
    # the test checks geometry, not floating-point boundary behaviour.
    points = [Point(float(x), float(y)) for x, y in coords]
    translated = [Point(p.x + dx, p.y + dy) for p in points]
    assert np.array_equal(unit_disk_edge_array(points), unit_disk_edge_array(translated))
