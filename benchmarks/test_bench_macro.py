"""Macro benchmarks: the structural kernels at n = 10^4 and 10^5.

The micro benches (solvers/policies/fig*) exercise paper-scale networks of
tens of users.  This group locks in the large-``n`` path instead — the
cell-bucket unit-disk builder, the CSR constructions of ``G`` and ``H`` and
the frontier-BFS r-hop sweep — at the sizes the scaling work targets
(``docs/scaling.md``), plus the neighbourhood table build of fig8-paper's
``H`` (|V(H)| = 1000, r = 2) that every fig8 run pays before its first
decision.  The committed baseline in ``benchmarks/baseline.json``
carries entries for this ``macro`` group, and the ``benchmark-trend`` CI
job gates both scales at the same 2x median ratio as the micro groups.

``test_grid_builder_beats_naive_at_10k`` is the acceptance bound of the
scaling issue: the cell-bucket builder must produce the *identical* edge
array at least 50x faster than the blocked O(n^2) reference.  Measured
headroom on a dev container is ~700x, so 50x holds comfortably on any CI
runner.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graph.conflict_graph import ConflictGraph
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.neighborhoods import (
    NeighborhoodTable,
    protocol_radii,
    r_hop_neighborhood,
    r_hop_neighborhood_arrays,
)
from repro.graph.topology import area_side_for_average_degree
from repro.graph.unit_disk import (
    DEFAULT_CONFLICT_RADIUS,
    unit_disk_edge_array,
    unit_disk_edges_naive,
)

N_10K = 10_000
N_100K = 100_000


def _deployment(num_nodes: int, seed: int = 2014) -> np.ndarray:
    """Uniform deployment targeting average degree 6, as random_network does."""
    rng = np.random.default_rng(seed)
    side = area_side_for_average_degree(num_nodes, 6.0)
    return rng.uniform(0.0, side, size=(num_nodes, 2))


@pytest.fixture(scope="module")
def coords_10k():
    return _deployment(N_10K)


@pytest.fixture(scope="module")
def coords_100k():
    return _deployment(N_100K)


@pytest.fixture(scope="module")
def graph_10k(coords_10k):
    edges = unit_disk_edge_array(coords_10k, DEFAULT_CONFLICT_RADIUS)
    return ConflictGraph(N_10K, edges, 5)


def test_unit_disk_grid_10k(benchmark, coords_10k):
    edges = benchmark(unit_disk_edge_array, coords_10k, DEFAULT_CONFLICT_RADIUS)
    assert edges.shape[0] > N_10K  # average degree ~6 -> ~3n edges


def test_unit_disk_grid_100k(benchmark, coords_100k):
    edges = benchmark(unit_disk_edge_array, coords_100k, DEFAULT_CONFLICT_RADIUS)
    assert edges.shape[0] > N_100K


def test_conflict_graph_build_100k(benchmark, coords_100k):
    edges = unit_disk_edge_array(coords_100k, DEFAULT_CONFLICT_RADIUS)
    graph = benchmark(ConflictGraph, N_100K, edges, 5)
    assert graph.num_nodes == N_100K


def test_extended_graph_build_10k(benchmark, graph_10k):
    extended = benchmark(ExtendedConflictGraph, graph_10k)
    assert extended.num_vertices == N_10K * 5


def test_r_hop_arrays_10k(benchmark, graph_10k):
    offsets, members = benchmark(r_hop_neighborhood_arrays, graph_10k, 1)
    assert len(offsets) == N_10K + 1
    # every 1-hop ball contains at least the vertex itself
    assert members.size >= N_10K


@pytest.fixture(scope="module")
def fig8_adjacency():
    from repro.spec import get_scenario

    spec = get_scenario("fig8-paper")
    graph = spec.topology.build(np.random.default_rng(spec.seed))
    return graph.extended_graph().adjacency_sets()


def test_neighborhood_table_build_fig8(benchmark, fig8_adjacency):
    radii = protocol_radii(2)
    table = benchmark(lambda: NeighborhoodTable(fig8_adjacency, radii).build())
    assert table.radii == radii
    outer = table.balls(radii[-1])
    assert len(outer) == 1000
    assert outer[999] == r_hop_neighborhood(fig8_adjacency, 999, radii[-1])


def test_grid_builder_beats_naive_at_10k(coords_10k):
    """Acceptance bound: identical edges, >= 50x faster than the naive builder.

    A plain (non-``benchmark``) test so the O(n^2) reference runs exactly
    once; the grid builder takes its best of three to shed warm-up noise.
    """
    started = time.perf_counter()
    naive = unit_disk_edges_naive(coords_10k, DEFAULT_CONFLICT_RADIUS)
    naive_seconds = time.perf_counter() - started

    grid_seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        grid = unit_disk_edge_array(coords_10k, DEFAULT_CONFLICT_RADIUS)
        grid_seconds = min(grid_seconds, time.perf_counter() - started)

    assert np.array_equal(grid, naive)
    speedup = naive_seconds / grid_seconds
    assert speedup >= 50.0, (
        f"cell-bucket builder only {speedup:.1f}x faster than naive "
        f"({grid_seconds:.4f}s vs {naive_seconds:.4f}s) at n={N_10K}"
    )
