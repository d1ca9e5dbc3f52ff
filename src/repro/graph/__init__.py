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

from repro.graph.geometry import Point, grid_cell_keys
from repro.graph.conflict_graph import ConflictGraph
from repro.graph.extended import ExtendedConflictGraph, VirtualVertex
from repro.graph.neighborhoods import (
    NeighborhoodTable,
    hop_distances,
    r_hop_neighborhood,
    r_hop_neighborhood_arrays,
    protocol_radii,
)
from repro.graph.unit_disk import unit_disk_edge_array, unit_disk_edges_naive
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
    "ConflictGraph",
    "ExtendedConflictGraph",
    "VirtualVertex",
    "grid_cell_keys",
    "hop_distances",
    "r_hop_neighborhood",
    "r_hop_neighborhood_arrays",
    "NeighborhoodTable",
    "protocol_radii",
    "unit_disk_edge_array",
    "unit_disk_edges_naive",
    "random_network",
    "linear_network",
    "grid_network",
    "ring_network",
    "star_network",
    "connected_random_network",
]
