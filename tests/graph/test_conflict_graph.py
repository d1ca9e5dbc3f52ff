"""Tests for repro.graph.conflict_graph."""

import pytest

from repro.graph.conflict_graph import ConflictGraph
from repro.graph.geometry import Point


class TestConstruction:
    def test_basic_properties(self, triangle_graph):
        assert triangle_graph.num_nodes == 3
        assert triangle_graph.num_edges == 3
        assert triangle_graph.num_channels == 3

    def test_duplicate_edges_are_merged(self):
        graph = ConflictGraph(3, [(0, 1), (1, 0), (0, 1)], num_channels=2)
        assert graph.num_edges == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            ConflictGraph(2, [(0, 0)], num_channels=1)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            ConflictGraph(2, [(0, 5)], num_channels=1)

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            ConflictGraph(0, [], num_channels=1)
        with pytest.raises(ValueError):
            ConflictGraph(2, [], num_channels=0)

    def test_positions_length_checked(self):
        with pytest.raises(ValueError):
            ConflictGraph(2, [], num_channels=1, positions=[Point(0, 0)])


class TestAccessors:
    def test_neighbors_and_degree(self, path_graph):
        assert path_graph.neighbors(0) == frozenset({1})
        assert path_graph.neighbors(2) == frozenset({1, 3})
        assert path_graph.degree(2) == 2

    def test_average_degree(self, path_graph):
        assert path_graph.average_degree() == pytest.approx(8 / 5)

    def test_edges_iteration_is_canonical(self, path_graph):
        edges = list(path_graph.edges())
        assert edges == sorted(edges)
        assert all(i < j for i, j in edges)

    def test_node_range_check(self, path_graph):
        with pytest.raises(ValueError):
            path_graph.neighbors(99)
        with pytest.raises(ValueError):
            path_graph.degree(-1)

    def test_positions_copy(self):
        positions = [Point(0.0, 0.0), Point(1.0, 0.0)]
        graph = ConflictGraph(2, [(0, 1)], 2, positions=positions)
        returned = graph.positions
        assert returned == positions
        returned.append(Point(9.0, 9.0))
        assert len(graph.positions) == 2


class TestStructure:
    def test_independent_set_detection(self, path_graph):
        assert path_graph.is_independent_set([0, 2, 4])
        assert not path_graph.is_independent_set([0, 1])
        assert path_graph.is_independent_set([])

    def test_independent_set_rejects_duplicates(self, path_graph):
        assert not path_graph.is_independent_set([0, 0])

    def test_connected_components_single(self, path_graph):
        components = path_graph.connected_components()
        assert len(components) == 1
        assert components[0] == {0, 1, 2, 3, 4}

    def test_connected_components_multiple(self):
        graph = ConflictGraph(4, [(0, 1), (2, 3)], num_channels=1)
        components = graph.connected_components()
        assert len(components) == 2
        assert {0, 1} in components and {2, 3} in components

    def test_is_connected(self, path_graph):
        assert path_graph.is_connected()
        assert not ConflictGraph(3, [(0, 1)], 1).is_connected()

    def test_adjacency_sets_is_a_copy(self, path_graph):
        adjacency = path_graph.adjacency_sets()
        adjacency[0].add(4)
        assert 4 not in path_graph.neighbors(0)
