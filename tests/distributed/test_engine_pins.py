"""Pinned protocol-engine results.

One sha256 over the canonical JSON of full :class:`ProtocolResult`s from a
fixed set of runs: seeded random graphs with tie-heavy weights, a
broadcaster subset, a truncated mini-round budget, the asyncio transport
(lossless, reordered and lossy) and one fault-injection run with crashes, a
Byzantine vertex and quorum mitigation.  Every field the engine reports
enters the digest -- winners, each mini-round record, the communication and
computation counters, stored weights, convergence and independence -- so a
change to the engine that moves a single result bit changes the digest.
perfbench's digests cover the simulated honest path at scale; this pin
covers the transports, lossy delivery and fault runs they do not.
"""

import hashlib
import json

import numpy as np

from repro.distributed import (
    AsyncioTransport,
    DistributedRobustPTAS,
    SimulatedTransport,
)
from repro.faults import (
    ByzantineFault,
    CrashFault,
    FaultInjectionEngine,
    FaultPlan,
    QuorumConfig,
)
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.neighborhoods import NeighborhoodTable, protocol_radii
from repro.graph.topology import connected_random_network

PINNED_DIGEST = "83b2335d7e9ef7148774532f93190c5c6e4130f7c9ea98c6c590fc86e62f0a60"

#: Few distinct weight levels, so elections and local MWIS hit many ties.
LEVELS = (1.0, 2.0, 3.0, 5.0)


def tie_heavy_instance(seed, num_nodes=12, num_channels=3):
    """Random connected unit-disk instance with weights drawn from LEVELS."""
    rng = np.random.default_rng(seed)
    graph = connected_random_network(num_nodes, num_channels, rng=rng)
    adjacency = ExtendedConflictGraph(graph).adjacency_sets()
    weights = rng.choice(LEVELS, size=len(adjacency))
    return adjacency, weights


def result_fields(result):
    """Every result bit of one run, as JSON-ready data."""
    communication = result.costs.communication
    computation = result.costs.computation
    return {
        "winners": sorted(result.independent_set.vertices),
        "mini_rounds": [
            {
                "index": record.index,
                "leaders": sorted(record.leaders),
                "new_winners": sorted(record.new_winners),
                "new_losers": sorted(record.new_losers),
                "cumulative_weight": record.cumulative_weight,
                "remaining_candidates": record.remaining_candidates,
            }
            for record in result.mini_rounds
        ],
        "messages_per_vertex": list(communication.messages_per_vertex),
        "total_deliveries": communication.total_deliveries,
        "mini_timeslots_per_phase": dict(communication.mini_timeslots_per_phase),
        "local_mwis_calls": computation.local_mwis_calls,
        "candidate_set_sizes": list(computation.candidate_set_sizes),
        "stored_weights_per_vertex": list(result.costs.stored_weights_per_vertex),
        "converged": result.converged,
        "independent": result.independent,
    }


def run_ptas(adjacency, weights, r=1, transport=None, **run_kwargs):
    ptas = DistributedRobustPTAS(adjacency, r=r, transport=transport)
    try:
        return ptas.run(weights, **run_kwargs)
    finally:
        if transport is not None:
            transport.close()


def fault_run():
    """Crashes in three phases, a conflicting Byzantine vertex, quorum on
    with a short patience so silent crashed vertices get suspected."""
    adjacency, weights = tie_heavy_instance(5, num_nodes=14)
    r = 1
    hoods = NeighborhoodTable(adjacency, protocol_radii(r))
    plan = FaultPlan(
        [
            CrashFault(vertex=3, mini_round=0, phase="WB"),
            CrashFault(vertex=11, mini_round=1, phase="LD"),
            CrashFault(vertex=20, mini_round=2, phase="LB"),
            ByzantineFault(vertex=7, behavior="conflicting-decisions"),
        ]
    )
    engine = FaultInjectionEngine(
        adjacency,
        r,
        hoods,
        plan=plan,
        quorum=QuorumConfig(threshold=2, patience=2),
    )
    transport = SimulatedTransport(adjacency, neighborhoods=hoods)
    result, report = engine.run(transport, weights)
    return {"result": result_fields(result), "report": vars(report)}


def pinned_runs():
    runs = {}
    for seed in range(4):
        adjacency, weights = tie_heavy_instance(seed)
        runs[f"tied-r1-seed{seed}"] = result_fields(run_ptas(adjacency, weights))
    adjacency, weights = tie_heavy_instance(9, num_nodes=10, num_channels=2)
    runs["tied-r2"] = result_fields(run_ptas(adjacency, weights, r=2))

    adjacency, weights = tie_heavy_instance(4)
    subset = range(0, len(adjacency), 3)
    runs["broadcasters"] = result_fields(
        run_ptas(adjacency, weights, broadcasting_vertices=subset)
    )
    runs["truncated"] = result_fields(
        run_ptas(adjacency, weights, max_mini_rounds=2)
    )

    adjacency, weights = tie_heavy_instance(6)
    runs["asyncio"] = result_fields(
        run_ptas(adjacency, weights, transport=AsyncioTransport(adjacency))
    )
    runs["asyncio-reorder"] = result_fields(
        run_ptas(
            adjacency,
            weights,
            transport=AsyncioTransport(adjacency, reorder=True, seed=3),
        )
    )
    runs["asyncio-lossy"] = result_fields(
        run_ptas(
            adjacency,
            weights,
            transport=AsyncioTransport(adjacency, drop_probability=0.2, seed=8),
        )
    )
    runs["faults"] = fault_run()
    return runs


def engine_digest() -> str:
    text = json.dumps(pinned_runs(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_engine_results_are_pinned():
    assert engine_digest() == PINNED_DIGEST
