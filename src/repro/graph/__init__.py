"""Graph substrate: unit-disk conflict graphs and the extended conflict graph.

The paper models a multi-hop cognitive radio network as a unit-disk conflict
graph ``G = (V, E, C)`` over ``N`` secondary users sharing ``M`` channels, and
re-models the channel allocation problem on an *extended conflict graph*
``H`` with ``N * M`` virtual vertices (Section III, Fig. 1).

This subpackage provides:

* :mod:`repro.graph.geometry` -- planar point utilities.
* :mod:`repro.graph.unit_disk` -- unit-disk graph construction.
* :mod:`repro.graph.conflict_graph` -- the original conflict graph ``G``.
* :mod:`repro.graph.extended` -- the extended conflict graph ``H``.
* :mod:`repro.graph.neighborhoods` -- hop distances and r-hop neighbourhoods.
* :mod:`repro.graph.topology` -- topology generators (random, linear, grid...).
"""

from repro.graph.geometry import Point, grid_cell_keys, pairwise_distances
from repro.graph.conflict_graph import ConflictGraph
from repro.graph.extended import ExtendedConflictGraph, VirtualVertex
from repro.graph.neighborhoods import (
    NeighborhoodTable,
    all_r_hop_neighborhoods,
    hop_distances,
    r_hop_neighborhood,
    r_hop_neighborhood_arrays,
    hop_distance,
    eccentricity,
    protocol_radii,
)
from repro.graph.unit_disk import (
    build_unit_disk_graph,
    unit_disk_edge_array,
    unit_disk_edges,
    unit_disk_edges_naive,
)
from repro.graph.topology import (
    random_network,
    linear_network,
    grid_network,
    ring_network,
    star_network,
    connected_random_network,
)

__all__ = [
    "Point",
    "pairwise_distances",
    "ConflictGraph",
    "ExtendedConflictGraph",
    "VirtualVertex",
    "grid_cell_keys",
    "hop_distances",
    "hop_distance",
    "r_hop_neighborhood",
    "r_hop_neighborhood_arrays",
    "all_r_hop_neighborhoods",
    "NeighborhoodTable",
    "protocol_radii",
    "eccentricity",
    "unit_disk_edges",
    "unit_disk_edge_array",
    "unit_disk_edges_naive",
    "build_unit_disk_graph",
    "random_network",
    "linear_network",
    "grid_network",
    "ring_network",
    "star_network",
    "connected_random_network",
]
