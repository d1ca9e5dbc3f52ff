"""Tests for repro.graph.unit_disk."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.geometry import Point
from repro.graph.unit_disk import (
    DEFAULT_CONFLICT_RADIUS,
    unit_disk_edge_array,
    unit_disk_edges_naive,
)


def unit_disk_edges(points, radius=DEFAULT_CONFLICT_RADIUS):
    """The grid builder's edges as a list of ``(i, j)`` tuples."""
    return [tuple(pair) for pair in unit_disk_edge_array(points, radius=radius).tolist()]


class TestUnitDiskEdges:
    def test_nodes_within_radius_are_connected(self):
        points = [Point(0.0, 0.0), Point(1.5, 0.0)]
        assert unit_disk_edges(points, radius=2.0) == [(0, 1)]

    def test_nodes_beyond_radius_are_not_connected(self):
        points = [Point(0.0, 0.0), Point(2.5, 0.0)]
        assert unit_disk_edges(points, radius=2.0) == []

    def test_boundary_distance_counts_as_conflict(self):
        # The paper uses a closed disk: distance exactly 2 conflicts.
        points = [Point(0.0, 0.0), Point(2.0, 0.0)]
        assert unit_disk_edges(points, radius=2.0) == [(0, 1)]

    def test_default_radius_matches_paper_model(self):
        assert DEFAULT_CONFLICT_RADIUS == 2.0

    def test_edge_indices_are_ordered(self):
        points = [Point(0.0, 0.0), Point(0.5, 0.0), Point(1.0, 0.0)]
        for i, j in unit_disk_edges(points, radius=2.0):
            assert i < j

    def test_triangle_all_connected(self):
        points = [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, 0.5)]
        assert len(unit_disk_edges(points, radius=2.0)) == 3

    def test_empty_points(self):
        assert unit_disk_edges([]) == []

    def test_invalid_radius_rejected(self):
        with pytest.raises(ValueError):
            unit_disk_edges([Point(0.0, 0.0)], radius=0.0)


class TestGridBuilderMatchesNaive:
    """The cell-bucket builder must be *bit-identical* to the O(n^2) reference.

    This is the property-test contract of the scaling work: identical edge
    array (same pairs, same canonical order, same closed-disk float
    predicate) on arbitrary random topologies, including the degenerate
    shapes (coincident points, collinear lines, cluster-separated clouds)
    where bucketing off-by-ones would hide.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        num_nodes=st.integers(min_value=0, max_value=120),
        side=st.floats(min_value=0.5, max_value=60.0),
        radius=st.floats(min_value=0.05, max_value=8.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_clouds(self, num_nodes, side, radius, seed):
        rng = np.random.default_rng(seed)
        coords = rng.uniform(0.0, side, size=(num_nodes, 2))
        grid = unit_disk_edge_array(coords, radius)
        naive = unit_disk_edges_naive(coords, radius)
        assert np.array_equal(grid, naive)

    @settings(max_examples=30, deadline=None)
    @given(
        num_nodes=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_clustered_and_coincident_points(self, num_nodes, seed):
        rng = np.random.default_rng(seed)
        # a handful of far-apart cluster centres, plus exact duplicates
        centers = rng.uniform(0.0, 100.0, size=(4, 2))
        picks = rng.integers(0, 4, size=num_nodes)
        coords = centers[picks] + rng.normal(0.0, 0.4, size=(num_nodes, 2))
        coords[:: max(1, num_nodes // 5)] = coords[0]
        grid = unit_disk_edge_array(coords, DEFAULT_CONFLICT_RADIUS)
        naive = unit_disk_edges_naive(coords, DEFAULT_CONFLICT_RADIUS)
        assert np.array_equal(grid, naive)

    def test_collinear_points_on_cell_boundaries(self):
        # points sitting exactly on multiples of the cell size (= radius)
        coords = np.array([[float(i), 0.0] for i in range(12)])
        for radius in (1.0, 2.0, 3.0):
            grid = unit_disk_edge_array(coords, radius)
            naive = unit_disk_edges_naive(coords, radius)
            assert np.array_equal(grid, naive)

    def test_negative_coordinates(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform(-30.0, 5.0, size=(80, 2))
        grid = unit_disk_edge_array(coords, DEFAULT_CONFLICT_RADIUS)
        naive = unit_disk_edges_naive(coords, DEFAULT_CONFLICT_RADIUS)
        assert np.array_equal(grid, naive)
