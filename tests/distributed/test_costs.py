"""Tests for repro.distributed.costs."""

import pytest

from repro.distributed.costs import (
    CommunicationCosts,
    ComputationCosts,
    RoundCosts,
    theoretical_message_bound,
    theoretical_space_bound,
)


class TestCommunicationCosts:
    def test_totals(self):
        costs = CommunicationCosts(
            messages_per_vertex=[1, 3, 0, 2],
            total_deliveries=10,
            mini_timeslots_per_phase={"WB": 4, "LD": 2, "LB": 3},
        )
        assert costs.total_messages == 6
        assert costs.max_messages_per_vertex == 3
        assert costs.total_mini_timeslots == 9

    def test_empty_defaults(self):
        costs = CommunicationCosts()
        assert costs.total_messages == 0
        assert costs.max_messages_per_vertex == 0
        assert costs.total_mini_timeslots == 0


class TestComputationCosts:
    def test_aggregates(self):
        costs = ComputationCosts(
            local_mwis_calls=3, candidate_set_sizes=[5, 2, 9], mini_rounds=2
        )
        assert costs.max_candidate_set_size == 9

    def test_empty_defaults(self):
        costs = ComputationCosts()
        assert costs.max_candidate_set_size == 0


class TestRoundCosts:
    def test_max_stored_weights(self):
        costs = RoundCosts(stored_weights_per_vertex=[3, 8, 1])
        assert costs.max_stored_weights == 8

    def test_empty(self):
        assert RoundCosts().max_stored_weights == 0


class TestTheoreticalBounds:
    def test_message_bound_formula(self):
        assert theoretical_message_bound(2, 4) == 25 + 8
        assert theoretical_message_bound(0, 0) == 1

    def test_message_bound_invalid(self):
        with pytest.raises(ValueError):
            theoretical_message_bound(-1, 2)

    def test_space_bound_identity(self):
        assert theoretical_space_bound(17) == 17
        with pytest.raises(ValueError):
            theoretical_space_bound(-1)
