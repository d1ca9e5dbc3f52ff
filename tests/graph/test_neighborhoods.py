"""Tests for repro.graph.neighborhoods."""

import pytest

from repro.graph.conflict_graph import ConflictGraph
from repro.graph.neighborhoods import hop_distances, r_hop_neighborhood


class TestHopDistances:
    def test_path_distances(self, path_graph):
        distances = hop_distances(path_graph.adjacency_sets(), 0)
        assert distances == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_unreachable_vertices_are_omitted(self):
        graph = ConflictGraph(3, [(0, 1)], num_channels=1)
        assert hop_distances(graph.adjacency_sets(), 0) == {0: 0, 1: 1}

    def test_source_out_of_range(self, path_graph):
        with pytest.raises(ValueError):
            hop_distances(path_graph.adjacency_sets(), 10)

    def test_works_on_raw_adjacency(self):
        adjacency = [{1}, {0, 2}, {1}]
        assert hop_distances(adjacency, 0)[2] == 2


class TestRHopNeighborhood:
    def test_zero_hop_is_self(self, path_graph):
        assert r_hop_neighborhood(path_graph, 2, 0) == {2}

    def test_one_hop_includes_neighbors(self, path_graph):
        assert r_hop_neighborhood(path_graph, 2, 1) == {1, 2, 3}

    def test_large_r_covers_component(self, path_graph):
        assert r_hop_neighborhood(path_graph, 0, 10) == {0, 1, 2, 3, 4}

    def test_matches_hop_distances_definition(self, small_random_graph):
        adjacency = small_random_graph.adjacency_sets()
        for vertex in range(small_random_graph.num_nodes):
            distances = hop_distances(adjacency, vertex)
            for r in range(3):
                expected = {u for u, d in distances.items() if d <= r}
                assert r_hop_neighborhood(adjacency, vertex, r) == expected

    def test_negative_r_rejected(self, path_graph):
        with pytest.raises(ValueError):
            r_hop_neighborhood(path_graph, 0, -1)

    def test_extended_graph_same_master_vertices_are_one_hop(self, triangle_extended):
        v00 = triangle_extended.vertex_index(0, 0)
        v01 = triangle_extended.vertex_index(0, 1)
        assert v01 in r_hop_neighborhood(triangle_extended, v00, 1)

