"""Transport abstraction tests (repro.distributed.transport).

Covers the ABC contract, the simulated transport, the zero-hop broadcast
accounting fix, and the ``transport=`` injection path of
:class:`DistributedRobustPTAS`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import (
    AsyncioTransport,
    DistributedRobustPTAS,
    SimulatedTransport,
    Transport,
    WeightBroadcast,
)

PATH = [{1}, {0, 2}, {1, 3}, {2, 4}, {3}]


def path_adjacency():
    return [set(s) for s in PATH]


class TestTransportABC:
    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            Transport()

    def test_simulated_transport_is_a_transport(self):
        # A real subclass, not a virtual one registered on the ABC.
        assert isinstance(SimulatedTransport(path_adjacency()), Transport)
        assert Transport in SimulatedTransport.__mro__

    def test_asyncio_transport_is_a_transport(self):
        transport = AsyncioTransport(path_adjacency())
        try:
            assert isinstance(transport, Transport)
        finally:
            transport.close()

    def test_default_is_lossless_and_close(self):
        transport = SimulatedTransport(path_adjacency())
        assert transport.is_lossless
        transport.close()  # no-op, must not raise


class TestSimulatedTransport:
    def test_counters_and_delivery(self):
        transport = SimulatedTransport(path_adjacency())
        count = transport.broadcast(
            WeightBroadcast(sender=2, hop_limit=1, weight=1.0), phase="WB"
        )
        assert count == 2  # vertices 1 and 3
        assert transport.total_messages_sent == 1
        assert transport.total_deliveries == 2
        assert transport.mini_timeslots("WB") == 1
        assert transport.pending(1) == 1
        assert [m.sender for m in transport.collect(1)] == [2]
        assert transport.pending(1) == 0

    def test_adjacency_property(self):
        adjacency = path_adjacency()
        transport = SimulatedTransport(adjacency)
        assert transport.adjacency is adjacency
        assert transport.num_vertices == 5

    def test_reset_clears_inboxes_and_costs(self):
        transport = SimulatedTransport(path_adjacency())
        transport.broadcast(
            WeightBroadcast(sender=0, hop_limit=2, weight=1.0), phase="WB"
        )
        transport.reset()
        assert transport.total_messages_sent == 0
        assert transport.total_deliveries == 0
        assert transport.mini_timeslots() == 0
        assert all(transport.pending(v) == 0 for v in range(5))

    def test_telemetry_summary_is_lossless_and_instant_and_reset_clears_it(self):
        transport = SimulatedTransport(path_adjacency())
        transport.broadcast(
            WeightBroadcast(sender=2, hop_limit=2, weight=1.0), phase="WB"
        )
        assert transport.telemetry_summary() == {
            "net_deliveries": 4.0,
            "net_dropped": 0.0,
            "net_out_of_order": 0.0,
            "net_latency_mean": 0.0,
            "net_latency_max": 0.0,
            "net_delivered_WeightBroadcast": 4.0,
        }
        transport.reset()
        # The per-type counts go too, not just the totals.
        assert transport.telemetry_summary() == {
            "net_deliveries": 0.0,
            "net_dropped": 0.0,
            "net_out_of_order": 0.0,
            "net_latency_mean": 0.0,
            "net_latency_max": 0.0,
        }


class TestZeroHopBroadcast:
    """hop_limit=0 reaches nobody, so it must charge nothing.

    Regression: the simulated transport used to charge one message and one
    timeslot while delivering to no one.
    """

    @pytest.fixture(params=["simulated", "asyncio"])
    def transport(self, request):
        if request.param == "simulated":
            yield SimulatedTransport(path_adjacency())
        else:
            transport = AsyncioTransport(path_adjacency())
            yield transport
            transport.close()

    def test_zero_hop_charges_nothing(self, transport):
        count = transport.broadcast(
            WeightBroadcast(sender=2, hop_limit=0, weight=1.0), phase="WB"
        )
        assert count == 0
        assert transport.total_messages_sent == 0
        assert transport.total_deliveries == 0
        assert transport.mini_timeslots() == 0
        assert all(transport.pending(v) == 0 for v in range(5))

    def test_negative_hop_rejected(self, transport):
        with pytest.raises(ValueError, match="hop_limit"):
            transport.broadcast(
                WeightBroadcast(sender=2, hop_limit=-1, weight=1.0), phase="WB"
            )


class TestProtocolTransportInjection:
    def weights(self):
        return np.array([3.0, 1.0, 4.0, 1.0, 5.0])

    def test_adjacency_only_back_compat(self):
        protocol = DistributedRobustPTAS(path_adjacency(), r=1)
        result = protocol.run(self.weights())
        assert result.independent
        assert protocol.transport is None

    def test_explicit_transport_used(self):
        adjacency = path_adjacency()
        transport = SimulatedTransport(adjacency)
        protocol = DistributedRobustPTAS(adjacency, r=1, transport=transport)
        assert protocol.transport is transport
        result = protocol.run(self.weights())
        assert (
            result.costs.communication.total_messages
            == transport.total_messages_sent
        )

    def test_adjacency_from_transport(self):
        transport = SimulatedTransport(path_adjacency())
        protocol = DistributedRobustPTAS(r=1, transport=transport)
        assert protocol.num_vertices == 5
        assert protocol.run(self.weights()).independent

    def test_neither_adjacency_nor_transport_rejected(self):
        with pytest.raises(ValueError, match="adjacency"):
            DistributedRobustPTAS(r=1)

    def test_size_mismatch_rejected(self):
        transport = SimulatedTransport(path_adjacency())
        with pytest.raises(ValueError, match="vertices"):
            DistributedRobustPTAS([{1}, {0}], r=1, transport=transport)

    def test_transport_results_match_default(self):
        adjacency = path_adjacency()
        weights = self.weights()
        default = DistributedRobustPTAS(adjacency, r=1).run(weights)
        injected = DistributedRobustPTAS(
            adjacency, r=1, transport=SimulatedTransport(adjacency)
        ).run(weights)
        assert injected == default

    def test_injected_transport_reset_between_runs(self):
        adjacency = path_adjacency()
        transport = SimulatedTransport(adjacency)
        protocol = DistributedRobustPTAS(adjacency, r=1, transport=transport)
        first = protocol.run(self.weights())
        second = protocol.run(self.weights())
        # reset() wipes counters between runs, so repeated runs are identical.
        assert first == second

    def test_transport_neighborhoods_exposes_protocol_radii(self):
        protocol = DistributedRobustPTAS(path_adjacency(), r=1)
        hoods = protocol.transport_neighborhoods()
        assert set(hoods) == {1, 2, 3, 5}
        assert all(len(tables) == 5 for tables in hoods.values())
