"""Tests for repro.core.strategy."""

import numpy as np
import pytest

from repro.core.strategy import Strategy


class TestConstruction:
    def test_from_assignment_sorts_pairs(self):
        strategy = Strategy.from_assignment({2: 1, 0: 0})
        assert strategy.assignment == ((0, 0), (2, 1))

    def test_empty_strategy(self):
        strategy = Strategy.empty()
        assert len(strategy) == 0
        assert strategy.nodes() == frozenset()

    def test_from_independent_set(self, triangle_extended):
        vertices = [
            triangle_extended.vertex_index(0, 0),
            triangle_extended.vertex_index(1, 1),
        ]
        strategy = Strategy.from_independent_set(triangle_extended, vertices)
        assert strategy.as_dict() == {0: 0, 1: 1}

    def test_from_dependent_set_rejected(self, triangle_extended):
        vertices = [
            triangle_extended.vertex_index(0, 0),
            triangle_extended.vertex_index(1, 0),
        ]
        with pytest.raises(ValueError):
            Strategy.from_independent_set(triangle_extended, vertices)

    def test_hashable_and_comparable(self):
        a = Strategy.from_assignment({0: 1, 1: 2})
        b = Strategy.from_assignment({1: 2, 0: 1})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestViews:
    def test_nodes_and_channel_of(self):
        strategy = Strategy.from_assignment({0: 2, 3: 1})
        assert strategy.nodes() == frozenset({0, 3})
        assert strategy.channel_of(0) == 2
        assert strategy.channel_of(5) is None

    def test_arms(self, triangle_extended):
        strategy = Strategy.from_assignment({0: 0, 2: 1})
        arms = strategy.arms(triangle_extended)
        assert arms == frozenset(
            {
                triangle_extended.vertex_index(0, 0),
                triangle_extended.vertex_index(2, 1),
            }
        )

    def test_expected_reward(self):
        means = np.array([[1.0, 2.0], [3.0, 4.0]])
        strategy = Strategy.from_assignment({0: 1, 1: 0})
        assert strategy.expected_reward(means) == 5.0

    def test_iteration(self):
        strategy = Strategy.from_assignment({0: 1, 2: 0})
        assert list(strategy) == [(0, 1), (2, 0)]


class TestFeasibility:
    def test_feasible(self, triangle_extended):
        assert Strategy.from_assignment({0: 0, 1: 1, 2: 2}).is_feasible(
            triangle_extended
        )

    def test_infeasible_same_channel_conflict(self, triangle_extended):
        assert not Strategy.from_assignment({0: 0, 1: 0}).is_feasible(
            triangle_extended
        )

    def test_non_conflicting_nodes_may_share_channel(self, path_extended):
        # Nodes 0 and 2 are not adjacent in the path, so they may share.
        assert Strategy.from_assignment({0: 0, 2: 0}).is_feasible(path_extended)

