"""Topology generators used in the paper's evaluation.

* Random networks with uniformly-distributed node positions (Section V uses
  networks of 50/100/200 users with 5 or 10 channels, and a 15-user network
  for the regret study).
* Linear networks: the worst case of Fig. 5 where only one LocalLeader can be
  elected per mini-round.
* Grid, ring and star networks for tests and additional examples.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.graph.conflict_graph import ConflictGraph
from repro.graph.geometry import Point
from repro.graph.unit_disk import DEFAULT_CONFLICT_RADIUS, unit_disk_edge_array


def _geometric_network(
    coords: np.ndarray, num_channels: int, radius: float
) -> ConflictGraph:
    """Build a unit-disk :class:`ConflictGraph` from a coordinate array.

    The whole pipeline is array-based (cell-bucket edge construction into
    the CSR constructor); the :class:`Point` list is kept only as the
    positions attribute for reproducibility, plotting and the dynamics
    layer.
    """
    edges = unit_disk_edge_array(coords, radius=radius)
    positions = [Point(float(x), float(y)) for x, y in coords]
    return ConflictGraph(
        len(positions), edges, num_channels, positions=positions
    )

__all__ = [
    "random_network",
    "connected_random_network",
    "linear_network",
    "grid_network",
    "ring_network",
    "star_network",
    "area_side_for_average_degree",
]


def area_side_for_average_degree(
    num_nodes: int,
    average_degree: float,
    radius: float = DEFAULT_CONFLICT_RADIUS,
) -> float:
    """Side length of a square deployment area giving roughly the requested
    average degree.

    For ``N`` nodes placed uniformly in an ``L x L`` square, the expected
    number of neighbours of a typical node is approximately
    ``(N - 1) * pi * radius^2 / L^2`` (ignoring border effects).  Solving for
    ``L`` yields the value returned here.
    """
    if num_nodes <= 1:
        raise ValueError("need at least two nodes to define an average degree")
    if average_degree <= 0:
        raise ValueError(f"average_degree must be positive, got {average_degree}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    area = (num_nodes - 1) * math.pi * radius * radius / average_degree
    return math.sqrt(area)


def random_network(
    num_nodes: int,
    num_channels: int,
    *,
    area_side: Optional[float] = None,
    average_degree: Optional[float] = None,
    radius: float = DEFAULT_CONFLICT_RADIUS,
    rng: Optional[np.random.Generator] = None,
) -> ConflictGraph:
    """Random unit-disk network with uniformly distributed node positions.

    Exactly one of ``area_side`` and ``average_degree`` may be given; when
    neither is given a default average degree of 6 is targeted, which gives
    connected-ish sparse networks similar to the paper's random topologies.
    """
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    if area_side is not None and average_degree is not None:
        raise ValueError("give either area_side or average_degree, not both")
    rng = rng if rng is not None else np.random.default_rng()
    if area_side is None:
        target_degree = average_degree if average_degree is not None else 6.0
        if num_nodes == 1:
            area_side = radius
        else:
            area_side = area_side_for_average_degree(
                num_nodes, target_degree, radius=radius
            )
    if area_side <= 0:
        raise ValueError(f"area_side must be positive, got {area_side}")
    coords = rng.uniform(0.0, area_side, size=(num_nodes, 2))
    return _geometric_network(coords, num_channels, radius)


def connected_random_network(
    num_nodes: int,
    num_channels: int,
    *,
    average_degree: float = 6.0,
    radius: float = DEFAULT_CONFLICT_RADIUS,
    rng: Optional[np.random.Generator] = None,
    max_attempts: int = 200,
) -> ConflictGraph:
    """Random network resampled until it is connected.

    The regret experiment of the paper (Fig. 7) uses a *connected* random
    network of 15 users; this helper reproduces that construction.  When
    none of ``max_attempts`` draws is connected (the requested density is
    low for the network size), the last draw is repaired: every smaller
    component, largest first, is translated rigidly until its node closest
    to the components joined so far sits ``0.9 * radius`` from them.  Edges
    are recomputed from the final positions, so the result is always
    connected, is still exactly the unit-disk graph of its positions, and
    is a deterministic function of the seeded draws.
    """
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be positive, got {max_attempts}")
    rng = rng if rng is not None else np.random.default_rng()
    for _ in range(max_attempts):
        graph = random_network(
            num_nodes,
            num_channels,
            average_degree=average_degree,
            radius=radius,
            rng=rng,
        )
        if graph.is_connected():
            return graph
    return _join_components(graph, radius)


def _join_components(graph: ConflictGraph, radius: float) -> ConflictGraph:
    """Translate every smaller component to within ``0.9 * radius`` of the
    nodes joined so far (see :func:`connected_random_network`)."""
    coords = np.array([(p.x, p.y) for p in graph.positions], dtype=float)
    components = sorted(
        (sorted(c) for c in graph.connected_components()),
        key=lambda c: (-len(c), c[0]),
    )
    joined = list(components[0])
    for component in components[1:]:
        gaps = coords[component, None, :] - coords[None, joined, :]
        distances = np.hypot(gaps[..., 0], gaps[..., 1])
        row, col = np.unravel_index(np.argmin(distances), distances.shape)
        distance = distances[row, col]
        if distance > 0.9 * radius:
            # A rigid translation keeps the component's own edges and moves
            # its closest node straight towards the closest joined node.
            coords[component] -= gaps[row, col] * (1.0 - 0.9 * radius / distance)
        joined.extend(component)
    return _geometric_network(coords, graph.num_channels, radius)


def linear_network(
    num_nodes: int,
    num_channels: int,
    *,
    spacing: float = 1.0,
    radius: float = DEFAULT_CONFLICT_RADIUS,
) -> ConflictGraph:
    """Nodes aligned uniformly along a line (the Fig. 5 worst case).

    With ``spacing <= radius`` consecutive nodes conflict; the default spacing
    of 1 with the default radius of 2 makes each node conflict with its two
    neighbours on either side, mirroring the "within 1-hop distance" phrasing
    of the paper.
    """
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    coords = np.stack(
        (np.arange(num_nodes, dtype=float) * spacing, np.zeros(num_nodes)),
        axis=1,
    )
    return _geometric_network(coords, num_channels, radius)


def grid_network(
    rows: int,
    cols: int,
    num_channels: int,
    *,
    spacing: float = 2.0,
    radius: float = DEFAULT_CONFLICT_RADIUS,
) -> ConflictGraph:
    """Regular grid of ``rows x cols`` nodes.

    With the default spacing equal to the conflict radius, each node conflicts
    with its 4-neighbourhood (von Neumann neighbours).
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"rows and cols must be positive, got {rows}x{cols}")
    ys, xs = np.divmod(np.arange(rows * cols, dtype=np.int64), cols)
    coords = np.stack((xs * spacing, ys * spacing), axis=1).astype(float)
    return _geometric_network(coords, num_channels, radius)


def ring_network(num_nodes: int, num_channels: int) -> ConflictGraph:
    """Cycle graph where node ``i`` conflicts with ``i-1`` and ``i+1``.

    Built combinatorially (no positions) so it stays a true cycle for any
    ``num_nodes >= 3``; for smaller sizes it degenerates to a path.
    """
    if num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    edges = []
    if num_nodes >= 2:
        edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
        if num_nodes == 2:
            edges = [(0, 1)]
    return ConflictGraph(num_nodes, edges, num_channels)


def star_network(num_leaves: int, num_channels: int) -> ConflictGraph:
    """Star graph: node 0 is the hub conflicting with every leaf."""
    if num_leaves < 0:
        raise ValueError(f"num_leaves must be non-negative, got {num_leaves}")
    edges = [(0, leaf) for leaf in range(1, num_leaves + 1)]
    return ConflictGraph(num_leaves + 1, edges, num_channels)
