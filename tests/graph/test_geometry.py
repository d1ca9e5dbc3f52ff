"""Tests for repro.graph.geometry."""

from repro.graph.geometry import Point, points_to_array


class TestPoint:
    def test_points_are_hashable_and_equal_by_value(self):
        assert len({Point(1.0, 2.0), Point(1.0, 2.0), Point(3.0, 4.0)}) == 2


class TestPointsToArray:
    def test_points_to_array_roundtrip(self):
        points = [Point(1.0, 2.0), Point(3.0, 4.0)]
        arr = points_to_array(points)
        assert arr.shape == (2, 2)
        assert arr[1, 0] == 3.0

    def test_points_to_array_empty(self):
        assert points_to_array([]).shape == (0, 2)

