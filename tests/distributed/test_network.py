"""Broadcast delivery and cost accounting of the simulated transport."""

import pytest

from repro.distributed.messages import StatusDetermination, WeightBroadcast
from repro.distributed.transport import SimulatedTransport
from repro.graph.neighborhoods import NeighborhoodTable


@pytest.fixture
def path_adjacency():
    """A 5-vertex path graph used as the broadcast substrate."""
    return [{1}, {0, 2}, {1, 3}, {2, 4}, {3}]


class TestBroadcast:
    def test_one_hop_broadcast_reaches_neighbors_only(self, path_adjacency):
        network = SimulatedTransport(path_adjacency)
        recipients = network.broadcast(
            WeightBroadcast(sender=2, hop_limit=1, weight=1.0), phase="WB"
        )
        assert recipients == 2
        assert network.pending(1) == 1
        assert network.pending(3) == 1
        assert network.pending(0) == 0

    def test_two_hop_broadcast(self, path_adjacency):
        network = SimulatedTransport(path_adjacency)
        network.broadcast(WeightBroadcast(sender=0, hop_limit=2, weight=1.0), phase="WB")
        assert network.pending(1) == 1
        assert network.pending(2) == 1
        assert network.pending(3) == 0

    def test_sender_does_not_receive_own_message(self, path_adjacency):
        network = SimulatedTransport(path_adjacency)
        network.broadcast(WeightBroadcast(sender=2, hop_limit=3, weight=1.0), phase="WB")
        assert network.pending(2) == 0

    def test_collect_drains_inbox(self, path_adjacency):
        network = SimulatedTransport(path_adjacency)
        network.broadcast(WeightBroadcast(sender=0, hop_limit=1, weight=4.2), phase="WB")
        messages = network.collect(1)
        assert len(messages) == 1
        assert messages[0].weight == 4.2
        assert network.collect(1) == []

    def test_invalid_sender_rejected(self, path_adjacency):
        network = SimulatedTransport(path_adjacency)
        with pytest.raises(ValueError):
            network.broadcast(WeightBroadcast(sender=99, hop_limit=1, weight=1.0), "WB")

    def test_negative_hop_limit_rejected(self, path_adjacency):
        network = SimulatedTransport(path_adjacency)
        with pytest.raises(ValueError):
            network.broadcast(WeightBroadcast(sender=0, hop_limit=-1, weight=1.0), "WB")

    def test_collect_invalid_vertex(self, path_adjacency):
        network = SimulatedTransport(path_adjacency)
        with pytest.raises(ValueError):
            network.collect(99)


class TestCostAccounting:
    def test_messages_sent_counter(self, path_adjacency):
        network = SimulatedTransport(path_adjacency)
        network.broadcast(WeightBroadcast(sender=0, hop_limit=1, weight=1.0), "WB")
        network.broadcast(WeightBroadcast(sender=0, hop_limit=1, weight=1.0), "WB")
        network.broadcast(WeightBroadcast(sender=1, hop_limit=1, weight=1.0), "LD")
        assert network.messages_sent(0) == 2
        assert network.messages_sent(1) == 1
        assert network.total_messages_sent == 3

    def test_deliveries_counter(self, path_adjacency):
        network = SimulatedTransport(path_adjacency)
        network.broadcast(WeightBroadcast(sender=2, hop_limit=1, weight=1.0), "WB")
        assert network.total_deliveries == 2

    def test_mini_timeslots_per_phase(self, path_adjacency):
        network = SimulatedTransport(path_adjacency)
        network.broadcast(WeightBroadcast(sender=0, hop_limit=3, weight=1.0), "WB")
        network.broadcast(
            StatusDetermination(sender=1, hop_limit=5, decisions={0: True}), "LB"
        )
        assert network.mini_timeslots("WB") == 3
        assert network.mini_timeslots("LB") == 5
        assert network.mini_timeslots() == 8

    def test_reset_costs(self, path_adjacency):
        network = SimulatedTransport(path_adjacency)
        network.broadcast(WeightBroadcast(sender=0, hop_limit=1, weight=1.0), "WB")
        network.reset_costs()
        assert network.total_messages_sent == 0
        assert network.total_deliveries == 0
        assert network.mini_timeslots() == 0
        # Inboxes are not cleared by reset_costs.
        assert network.pending(1) == 1

    def test_precomputed_neighborhood_cache_is_used(self, path_adjacency):
        cache = NeighborhoodTable(path_adjacency, [1])
        network = SimulatedTransport(path_adjacency, neighborhoods=cache)
        network.broadcast(WeightBroadcast(sender=0, hop_limit=1, weight=1.0), "WB")
        assert network.pending(1) == 1
