"""Tests for repro.graph.topology."""

import numpy as np
import pytest

from repro.graph.topology import (
    area_side_for_average_degree,
    connected_random_network,
    grid_network,
    linear_network,
    random_network,
    ring_network,
    star_network,
)
from repro.graph.unit_disk import DEFAULT_CONFLICT_RADIUS, unit_disk_edges_naive


class TestRandomNetwork:
    def test_shape_and_channels(self, rng):
        graph = random_network(30, 4, average_degree=5.0, rng=rng)
        assert graph.num_nodes == 30
        assert graph.num_channels == 4
        assert graph.positions is not None

    def test_average_degree_roughly_controlled(self):
        rng = np.random.default_rng(7)
        degrees = []
        for _ in range(5):
            graph = random_network(120, 3, average_degree=6.0, rng=rng)
            degrees.append(graph.average_degree())
        # Border effects push the measured value below the target; it should
        # still be in the right ballpark.
        assert 2.5 < np.mean(degrees) < 9.0

    def test_reproducible_with_seeded_generator(self):
        g1 = random_network(20, 3, average_degree=4.0, rng=np.random.default_rng(3))
        g2 = random_network(20, 3, average_degree=4.0, rng=np.random.default_rng(3))
        assert sorted(g1.edges()) == sorted(g2.edges())

    def test_conflicting_size_arguments_rejected(self, rng):
        with pytest.raises(ValueError):
            random_network(10, 2, area_side=5.0, average_degree=3.0, rng=rng)

    def test_invalid_sizes_rejected(self, rng):
        with pytest.raises(ValueError):
            random_network(0, 2, rng=rng)

    def test_area_side_helper_monotone(self):
        smaller = area_side_for_average_degree(50, 10.0)
        larger = area_side_for_average_degree(50, 2.0)
        assert larger > smaller

    def test_area_side_invalid_args(self):
        with pytest.raises(ValueError):
            area_side_for_average_degree(1, 2.0)
        with pytest.raises(ValueError):
            area_side_for_average_degree(10, -1.0)


class TestConnectedRandomNetwork:
    def test_result_is_connected(self, rng):
        graph = connected_random_network(15, 3, average_degree=5.0, rng=rng)
        assert graph.is_connected()

    def test_sparse_density_is_repaired_and_connected(self):
        def draw(seed):
            return connected_random_network(
                60, 2, average_degree=0.5, rng=np.random.default_rng(seed),
                max_attempts=3,
            )

        graph = draw(7)
        assert graph.is_connected()
        # The repair moves nodes, never edges: the edge set is still exactly
        # the unit-disk graph of the (moved) positions.
        coords = np.array([(p.x, p.y) for p in graph.positions])
        assert np.array_equal(
            graph.edge_array(), unit_disk_edges_naive(coords, DEFAULT_CONFLICT_RADIUS)
        )
        again = draw(7)
        assert again.positions == graph.positions
        assert np.array_equal(again.edge_array(), graph.edge_array())
        assert draw(8).positions != graph.positions

    def test_connected_draws_are_not_repaired(self):
        # A density that connects on the first draw returns that draw as is.
        first = random_network(15, 3, average_degree=8.0, rng=np.random.default_rng(3))
        assert first.is_connected()
        graph = connected_random_network(
            15, 3, average_degree=8.0, rng=np.random.default_rng(3)
        )
        assert graph.positions == first.positions

    def test_max_attempts_must_be_positive(self, rng):
        with pytest.raises(ValueError, match="max_attempts"):
            connected_random_network(10, 2, rng=rng, max_attempts=0)


class TestDeterministicTopologies:
    def test_linear_network_is_a_path_like_band(self):
        graph = linear_network(6, 2, spacing=1.0, radius=1.0)
        assert graph.num_edges == 5
        assert graph.neighbors(0) == frozenset({1})
        assert graph.neighbors(3) == frozenset({2, 4})

    def test_linear_network_wider_radius(self):
        graph = linear_network(6, 2, spacing=1.0, radius=2.0)
        # Radius 2 connects each node to up to two nodes on each side.
        assert graph.neighbors(3) == frozenset({1, 2, 4, 5})

    def test_grid_network(self):
        graph = grid_network(3, 4, 2)
        assert graph.num_nodes == 12
        # Interior node has 4 neighbours.
        assert graph.degree(5) == 4
        # Corner has 2 neighbours.
        assert graph.degree(0) == 2

    def test_ring_network(self):
        graph = ring_network(6, 2)
        assert graph.num_edges == 6
        assert all(graph.degree(v) == 2 for v in graph.nodes())

    def test_small_ring_degenerates(self):
        assert ring_network(2, 1).num_edges == 1
        assert ring_network(1, 1).num_edges == 0

    def test_star_network(self):
        graph = star_network(5, 3)
        assert graph.num_nodes == 6
        assert graph.degree(0) == 5
        assert all(graph.degree(v) == 1 for v in range(1, 6))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            linear_network(0, 1)
        with pytest.raises(ValueError):
            grid_network(0, 3, 1)
        with pytest.raises(ValueError):
            ring_network(0, 1)
        with pytest.raises(ValueError):
            star_network(-1, 1)
