"""Message-driven runtime tests (repro.distributed.runtime).

The headline property: on any topology, a lossless AsyncioTransport run —
in-order or reordered — produces a :class:`ProtocolResult` equal to the
SimulatedTransport run, field for field.  Lossy runs are deterministic per
seed and still terminate with a valid (possibly non-independent) result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import (
    AsyncioTransport,
    DistributedRobustPTAS,
    ProtocolEngine,
    SimulatedTransport,
    VertexProtocol,
)
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.neighborhoods import NeighborhoodTable, protocol_radii
from repro.graph.topology import connected_random_network
from repro.mwis.base import is_independent


def unit_disk_instance(seed, num_nodes=10, num_channels=3):
    """Random connected unit-disk conflict instance plus per-vertex weights."""
    rng = np.random.default_rng(seed)
    graph = connected_random_network(num_nodes, num_channels, rng=rng)
    adjacency = ExtendedConflictGraph(graph).adjacency_sets()
    weights = rng.uniform(1.0, 10.0, size=len(adjacency))
    return adjacency, weights


def run_with(adjacency, weights, transport, r=1):
    try:
        return DistributedRobustPTAS(adjacency, r=r, transport=transport).run(weights)
    finally:
        transport.close()


class TestAsyncioEquivalence:
    """Property test: Asyncio ≡ Simulated on random unit-disk topologies."""

    @pytest.mark.parametrize("seed", range(6))
    def test_lossless_in_order_is_bit_identical(self, seed):
        adjacency, weights = unit_disk_instance(seed)
        simulated = run_with(adjacency, weights, SimulatedTransport(adjacency))
        asyncio_run = run_with(adjacency, weights, AsyncioTransport(adjacency))
        assert asyncio_run == simulated

    @pytest.mark.parametrize("seed", range(4))
    def test_lossless_reordered_is_bit_identical(self, seed):
        # Delivery order within a phase is irrelevant to the protocol state
        # machine, so even latency + reordering leaves the result unchanged.
        adjacency, weights = unit_disk_instance(seed)
        simulated = run_with(adjacency, weights, SimulatedTransport(adjacency))
        reordered = run_with(
            adjacency,
            weights,
            AsyncioTransport(
                adjacency,
                latency="uniform",
                latency_scale=2.0,
                reorder=True,
                seed=seed + 7,
            ),
        )
        assert reordered == simulated

    def test_equivalence_at_r2(self):
        adjacency, weights = unit_disk_instance(11, num_nodes=8, num_channels=2)
        simulated = run_with(adjacency, weights, SimulatedTransport(adjacency), r=2)
        asyncio_run = run_with(adjacency, weights, AsyncioTransport(adjacency), r=2)
        assert asyncio_run == simulated

    def test_costs_match_simulated(self):
        adjacency, weights = unit_disk_instance(5)
        simulated = run_with(adjacency, weights, SimulatedTransport(adjacency))
        asyncio_run = run_with(adjacency, weights, AsyncioTransport(adjacency))
        assert (
            asyncio_run.costs.communication == simulated.costs.communication
        )
        assert (
            asyncio_run.costs.stored_weights_per_vertex
            == simulated.costs.stored_weights_per_vertex
        )


class TestLossyRuns:
    def lossy_transport(self, adjacency, seed=0, drop=0.3):
        return AsyncioTransport(adjacency, drop_probability=drop, seed=seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_same_seed_same_delivery_trace(self, seed):
        adjacency, weights = unit_disk_instance(seed)
        traces = []
        for _ in range(2):
            transport = self.lossy_transport(adjacency, seed=seed)
            result = run_with(adjacency, weights, transport)
            traces.append(list(transport.delivery_trace))
            # The independence flag is honest: it matches an actual check.
            assert result.independent == is_independent(
                adjacency, result.independent_set
            )
        assert traces[0] == traces[1]

    def test_different_seeds_differ(self):
        adjacency, weights = unit_disk_instance(1)
        traces = []
        for seed in (0, 1):
            transport = self.lossy_transport(adjacency, seed=seed)
            run_with(adjacency, weights, transport)
            traces.append(list(transport.delivery_trace))
        assert traces[0] != traces[1]

    def test_lossy_run_terminates_and_reports_drops(self):
        adjacency, weights = unit_disk_instance(2)
        transport = self.lossy_transport(adjacency, seed=3, drop=0.5)
        try:
            protocol = DistributedRobustPTAS(adjacency, r=1, transport=transport)
            result = protocol.run(weights)
            assert result.num_mini_rounds <= len(adjacency)
            assert transport.total_dropped > 0
        finally:
            transport.close()

    def test_telemetry_summary_counts_the_trace(self):
        adjacency, weights = unit_disk_instance(2)
        transport = self.lossy_transport(adjacency, seed=3, drop=0.4)
        try:
            DistributedRobustPTAS(adjacency, r=1, transport=transport).run(weights)
            summary = transport.telemetry_summary()
            assert summary["net_deliveries"] == float(len(transport.delivery_trace))
            assert summary["net_dropped"] == float(transport.total_dropped)
            assert summary["net_dropped"] > 0
            assert summary["net_latency_mean"] == 0.0  # latency='none'
            per_type = {
                key: value
                for key, value in summary.items()
                if key.startswith("net_delivered_")
            }
            assert sum(per_type.values()) == summary["net_deliveries"]
            assert list(summary) == [
                "net_deliveries",
                "net_dropped",
                "net_out_of_order",
                "net_latency_mean",
                "net_latency_max",
                "net_delivered_LeaderDeclaration",
                "net_delivered_StatusDetermination",
                "net_delivered_WeightBroadcast",
            ]
        finally:
            transport.close()

    def test_telemetry_tracks_latency_and_reset_clears_it(self):
        adjacency, weights = unit_disk_instance(1)
        transport = AsyncioTransport(
            adjacency, latency="uniform", latency_scale=2.0, seed=7
        )
        try:
            DistributedRobustPTAS(adjacency, r=1, transport=transport).run(weights)
            summary = transport.telemetry_summary()
            assert summary["net_latency_mean"] > 0.0
            assert summary["net_latency_max"] >= summary["net_latency_mean"]
            transport.reset()
            cleared = transport.telemetry_summary()
            assert cleared["net_deliveries"] == 0.0
            assert cleared["net_latency_max"] == 0.0
        finally:
            transport.close()

    def test_lossless_transport_flags(self):
        adjacency, _ = unit_disk_instance(0)
        lossless = AsyncioTransport(adjacency)
        lossy = self.lossy_transport(adjacency)
        try:
            assert lossless.is_lossless
            assert not lossy.is_lossless
        finally:
            lossless.close()
            lossy.close()


class TestEngineAndVertexProtocol:
    def test_engine_reusable_across_transports(self):
        adjacency, weights = unit_disk_instance(4)
        engine = ProtocolEngine(
            adjacency, r=1, neighborhoods=NeighborhoodTable(adjacency, protocol_radii(1))
        )
        first = engine.run(SimulatedTransport(adjacency), weights)
        transport = AsyncioTransport(adjacency)
        try:
            second = engine.run(transport, weights)
        finally:
            transport.close()
        assert first == second

    def test_vertex_protocol_talks_only_to_transport(self):
        # VertexProtocol never touches other agents directly: a run driven
        # through a fresh transport produces decided statuses for all
        # vertices purely from delivered messages.
        adjacency, weights = unit_disk_instance(6)
        result = run_with(adjacency, weights, SimulatedTransport(adjacency))
        assert result.converged
        decided = set()
        for record in result.mini_rounds:
            decided |= set(record.new_winners) | set(record.new_losers)
        assert decided == set(range(len(adjacency)))

    def test_vertex_protocol_is_exported(self):
        assert VertexProtocol is not None
