"""Tests for repro.graph.extended (the extended conflict graph H)."""

import pytest

from repro.graph.conflict_graph import ConflictGraph
from repro.graph.extended import ExtendedConflictGraph, VirtualVertex


class TestConstruction:
    def test_fig1_sizes(self, triangle_extended):
        # Fig. 1: 3 nodes x 3 channels -> 9 virtual vertices.
        assert triangle_extended.num_vertices == 9
        assert triangle_extended.num_nodes == 3
        assert triangle_extended.num_channels == 3

    def test_fig1_edge_count(self, triangle_extended):
        # Each master clique has C(3,2)=3 edges (3 nodes -> 9), and each of
        # the 3 conflict edges of G contributes one edge per channel (9).
        assert triangle_extended.num_edges == 18

    def test_same_master_vertices_form_clique(self, triangle_extended):
        v00 = triangle_extended.vertex_index(0, 0)
        v01 = triangle_extended.vertex_index(0, 1)
        v02 = triangle_extended.vertex_index(0, 2)
        assert v01 in triangle_extended.neighbors(v00)
        assert v02 in triangle_extended.neighbors(v00)
        assert v02 in triangle_extended.neighbors(v01)

    def test_same_channel_conflict_edges(self, triangle_extended):
        v00 = triangle_extended.vertex_index(0, 0)
        v10 = triangle_extended.vertex_index(1, 0)
        v11 = triangle_extended.vertex_index(1, 1)
        assert v10 in triangle_extended.neighbors(v00)
        assert v11 not in triangle_extended.neighbors(v00)

    def test_non_conflicting_masters_not_connected(self, path_extended):
        # Nodes 0 and 2 do not conflict in the path graph.
        v00 = path_extended.vertex_index(0, 0)
        v20 = path_extended.vertex_index(2, 0)
        assert v20 not in path_extended.neighbors(v00)


class TestIndexing:
    def test_vertex_index_roundtrip(self, path_extended):
        for node in range(path_extended.num_nodes):
            for channel in range(path_extended.num_channels):
                index = path_extended.vertex_index(node, channel)
                assert path_extended.master_of(index) == node
                assert path_extended.channel_of(index) == channel
                assert path_extended.vertex(index) == VirtualVertex(node, channel)

    def test_out_of_range_rejected(self, path_extended):
        with pytest.raises(ValueError):
            path_extended.vertex_index(99, 0)
        with pytest.raises(ValueError):
            path_extended.vertex_index(0, 99)
        with pytest.raises(ValueError):
            path_extended.vertex(10 ** 6)

    def test_degree_counts_clique_and_conflicts(self, triangle_extended):
        # In the triangle example each vertex has 2 clique neighbours plus 2
        # same-channel conflict neighbours.
        for vertex in triangle_extended.vertices():
            assert triangle_extended.degree(vertex) == 4


class TestIndependentSets:
    def test_feasible_assignment_is_independent(self, triangle_extended):
        vertices = [
            triangle_extended.vertex_index(0, 0),
            triangle_extended.vertex_index(1, 1),
            triangle_extended.vertex_index(2, 2),
        ]
        assert triangle_extended.is_independent_set(vertices)

    def test_same_channel_conflict_not_independent(self, triangle_extended):
        vertices = [
            triangle_extended.vertex_index(0, 0),
            triangle_extended.vertex_index(1, 0),
        ]
        assert not triangle_extended.is_independent_set(vertices)

    def test_two_channels_same_node_not_independent(self, triangle_extended):
        vertices = [
            triangle_extended.vertex_index(0, 0),
            triangle_extended.vertex_index(0, 1),
        ]
        assert not triangle_extended.is_independent_set(vertices)

    def test_assignment_roundtrip(self, triangle_extended):
        assignment = {0: 0, 1: 1, 2: 2}
        vertices = triangle_extended.assignment_to_independent_set(assignment)
        assert triangle_extended.independent_set_to_assignment(vertices) == assignment

    def test_conflicting_assignment_rejected(self, triangle_extended):
        with pytest.raises(ValueError):
            triangle_extended.assignment_to_independent_set({0: 1, 1: 1})

    def test_dependent_set_to_assignment_rejected(self, triangle_extended):
        vertices = [
            triangle_extended.vertex_index(0, 0),
            triangle_extended.vertex_index(1, 0),
        ]
        with pytest.raises(ValueError):
            triangle_extended.independent_set_to_assignment(vertices)

    def test_independence_number_limited_by_channels(self):
        # A clique of 4 users with only 2 channels: at most 2 users transmit.
        graph = ConflictGraph(
            4, [(i, j) for i in range(4) for j in range(i + 1, 4)], num_channels=2
        )
        extended = ExtendedConflictGraph(graph)
        best = 0
        for a in extended.vertices():
            for b in extended.vertices():
                if a < b and extended.is_independent_set([a, b]):
                    best = 2
        # No independent triple can exist.
        triples_independent = any(
            extended.is_independent_set([a, b, c])
            for a in extended.vertices()
            for b in extended.vertices()
            for c in extended.vertices()
            if a < b < c
        )
        assert best == 2
        assert not triples_independent
