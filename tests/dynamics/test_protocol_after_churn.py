"""The live protocol after topology churn equals a fresh one on the new graph.

``DynamicStrategyEngine.protocol`` runs on the neighbourhood table that
``NeighborhoodTable.update`` patches between decisions by replacing entries.
The vertex agents keep those table sets by reference, so any per-topology
caching of agents (or of what they hold) would leak the old topology into
the next decision; this test pins that it does not.
"""

import numpy as np
import pytest

from repro.distributed.ptas import DistributedRobustPTAS
from repro.dynamics import DynamicStrategyEngine, LinkFlap, NodeDeparture
from repro.graph.topology import connected_random_network


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("seed", range(12))
def test_protocol_after_churn_matches_fresh_run_on_new_topology(r, seed):
    rng = np.random.default_rng(seed)
    graph = connected_random_network(10, 2, rng=rng)
    engine = DynamicStrategyEngine(graph, r=r)
    weights = rng.uniform(0.5, 3.0, engine.extended.num_vertices)
    engine.protocol.run(weights)

    edges = engine.topology.edges()
    u, v = edges[int(rng.integers(len(edges)))]
    leaving = next(node for node in range(graph.num_nodes) if node not in (u, v))
    report = engine.apply_events(
        [
            LinkFlap(round_index=1, u=u, v=v, up=False),
            NodeDeparture(round_index=1, node=leaving),
        ]
    )
    assert report.touched_vertices > 0

    live = engine.protocol.run(weights)
    adjacency = [set(neighbors) for neighbors in engine.extended.adjacency]
    fresh = DistributedRobustPTAS(adjacency, r=r).run(weights)
    assert live.independent_set.vertices == fresh.independent_set.vertices
    assert live.mini_rounds == fresh.mini_rounds
    assert live.costs == fresh.costs
