"""Hop distances and r-hop neighbourhoods.

The robust PTAS and its distributed variant operate on r-hop neighbourhoods
``J_{G,r}(v) = {u : d_G(u, v) <= r}`` (Table I of the paper).
:func:`r_hop_neighborhood` accepts any adjacency-set sequence *or* a
CSR-backed graph (:class:`~repro.graph.conflict_graph.ConflictGraph`,
:class:`~repro.graph.extended.ExtendedConflictGraph`), so it is shared by
the original conflict graph ``G`` and the extended conflict graph ``H``;
:func:`hop_distances`, the full-BFS reference it is checked against, takes
adjacency sets only.

Two implementations sit behind :func:`r_hop_neighborhood`:

* CSR-backed graphs run a **frontier-based BFS** entirely on numpy arrays —
  each hop gathers the concatenated neighbour rows of the whole frontier in
  one shot, marks a boolean visited vector and dedupes with ``np.unique``.
  No per-vertex Python set is ever materialized on this path;
  :func:`r_hop_neighborhood_arrays` exposes the raw CSR-of-neighbourhoods
  form for bulk consumers (macro benchmarks, large-``n`` pipelines).
* Raw ``Sequence[Set[int]]`` adjacency (the live mutable structures of
  :mod:`repro.dynamics.graph`) keeps the original pure-Python traversal,
  bit for bit.

Equivalence of the two paths over every registered topology preset and
under random churn sequences is locked by
``tests/graph/test_csr_equivalence.py``.

:class:`NeighborhoodTable` holds the balls Algorithm 3 reads — radii ``r``,
``r + 1``, ``2r + 1`` and ``3r + 2`` of every vertex — built by one layered
BFS per vertex and kept up to date in place under topology dynamics.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Sequence, Set, Tuple, Union

import numpy as np

from repro.graph.conflict_graph import ConflictGraph
from repro.graph.extended import ExtendedConflictGraph

__all__ = [
    "hop_distances",
    "r_hop_neighborhood",
    "r_hop_neighborhood_arrays",
    "protocol_radii",
    "NeighborhoodTable",
]

AdjacencyLike = Union[Sequence[Set[int]], ConflictGraph, ExtendedConflictGraph]

_CSRGraph = (ConflictGraph, ExtendedConflictGraph)


def _size(graph: AdjacencyLike) -> int:
    if isinstance(graph, ConflictGraph):
        return graph.num_nodes
    if isinstance(graph, ExtendedConflictGraph):
        return graph.num_vertices
    return len(graph)


def _csr_bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    source: int,
    max_hops: int,
) -> np.ndarray:
    """Frontier BFS over CSR adjacency; returns the hop-distance vector.

    Unvisited vertices hold ``-1``.  The traversal stops after ``max_hops``
    levels (or when the frontier empties), so it only ever touches the ball
    it returns.
    """
    n = len(indptr) - 1
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    hops = 0
    while frontier.size and hops < max_hops:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        offsets = np.cumsum(counts) - counts
        flat = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
        gathered = indices[np.repeat(starts, counts) + flat]
        fresh = gathered[dist[gathered] < 0]
        if fresh.size == 0:
            break
        frontier = np.unique(fresh)
        hops += 1
        dist[frontier] = hops
    return dist


def hop_distances(adjacency: Sequence[Set[int]], source: int) -> Dict[int, int]:
    """Breadth-first hop distances from ``source`` to every reachable vertex.

    The source itself is at distance 0.  Unreachable vertices are omitted.
    """
    n = len(adjacency)
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range [0, {n})")
    distances: Dict[int, int] = {source: 0}
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        for neighbor in adjacency[vertex]:
            if neighbor not in distances:
                distances[neighbor] = distances[vertex] + 1
                queue.append(neighbor)
    return distances


def r_hop_neighborhood(graph: AdjacencyLike, vertex: int, r: int) -> Set[int]:
    """The r-hop neighbourhood ``J_r(vertex)`` *including* the vertex itself.

    Matches the paper's definition ``J_{G,r}(v) = {u : d_G(u, v) <= r}``.
    A truncated breadth-first search is used so only vertices within ``r``
    hops are ever visited.
    """
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    n = _size(graph)
    if not (0 <= vertex < n):
        raise ValueError(f"vertex {vertex} out of range [0, {n})")
    if isinstance(graph, _CSRGraph):
        dist = _csr_bfs(*graph.csr_adjacency(), vertex, max_hops=r)
        return set(np.flatnonzero(dist >= 0).tolist())
    return _layered_balls(graph, vertex, [r])[0]


def r_hop_neighborhood_arrays(
    graph: Union[ConflictGraph, ExtendedConflictGraph], r: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``J_r(v)`` packed as CSR-of-neighbourhoods arrays.

    Returns ``(offsets, members)``: the (sorted) members of ``J_r(v)`` are
    ``members[offsets[v]:offsets[v + 1]]``.  This is the large-``n`` bulk
    form — no per-vertex Python set is created.  Only CSR-backed graphs are
    supported; raw adjacency-set consumers call
    :func:`r_hop_neighborhood` per vertex.
    """
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    indptr, indices = graph.csr_adjacency()
    n = len(indptr) - 1
    hoods: List[np.ndarray] = []
    sizes = np.zeros(n, dtype=np.int64)
    for vertex in range(n):
        dist = _csr_bfs(indptr, indices, vertex, max_hops=r)
        ball = np.flatnonzero(dist >= 0)
        sizes[vertex] = ball.size
        hoods.append(ball)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    members = (
        np.concatenate(hoods) if hoods else np.zeros(0, dtype=np.int64)
    )
    return offsets, members


def protocol_radii(r: int) -> Tuple[int, int, int, int]:
    """The ball radii Algorithm 3 reads at PTAS radius ``r``.

    ``r`` for the local MWIS, ``r + 1`` for the Loser ball, ``2r + 1`` for
    knowledge and elections and ``3r + 2`` for the determination broadcast
    (the paper's ``3r + 1`` plus one hop, because our Losers include the
    Winners' direct neighbours, up to ``r + 1`` hops from the leader).
    """
    return (r, r + 1, 2 * r + 1, 3 * r + 2)


def _layered_balls(
    adjacency: Sequence[Set[int]], vertex: int, radii: Sequence[int]
) -> List[Set[int]]:
    """``J_k(vertex)`` for every ``k`` of the ascending ``radii``.

    One BFS to the largest radius records the visit order, and each smaller
    ball is a prefix of it, so every set is filled in the same order as a
    truncated BFS to its own radius fills it (and iterates the same way).
    """
    reached = {vertex}
    order = [vertex]
    # layer_end[d]: how many vertices lie within d hops.
    layer_end = [1]
    frontier = {vertex}
    for _ in range(radii[-1]):
        next_frontier: Set[int] = set()
        for current in frontier:
            for neighbor in adjacency[current]:
                if neighbor not in reached:
                    reached.add(neighbor)
                    next_frontier.add(neighbor)
                    order.append(neighbor)
        if not next_frontier:
            break
        frontier = next_frontier
        layer_end.append(len(order))
    last = len(layer_end) - 1
    balls = [set(order[: layer_end[min(hops, last)]]) for hops in radii[:-1]]
    balls.append(reached)
    return balls


class NeighborhoodTable:
    """Every vertex's balls ``J_k(v)`` at a set of radii, one BFS per vertex.

    A table at :func:`protocol_radii` is all the topology knowledge
    Algorithm 3 uses: it is built once per (graph, r) and shared by
    reference between the protocol, its transports and every policy, period
    and replication of a run, which only read it.  The one writer is the
    dynamics engine: it mutates the shared ``adjacency``, then calls
    :meth:`update`, so the live protocol sees the new balls at once.

    Construction is cheap: the layered pass over ``radii`` runs at the first
    :meth:`build` or read.  A radius outside ``radii`` is computed on first
    read and kept.
    """

    def __init__(self, adjacency: Sequence[Set[int]], radii: Iterable[int] = ()) -> None:
        self._adjacency = adjacency
        self._layered = tuple(sorted(set(radii)))
        if self._layered and self._layered[0] < 0:
            raise ValueError(f"radii must be non-negative, got {self._layered}")
        self._balls: Dict[int, List[Set[int]]] = {}

    @property
    def adjacency(self) -> Sequence[Set[int]]:
        """The adjacency sets the balls are taken over (kept by reference)."""
        return self._adjacency

    @property
    def radii(self) -> Tuple[int, ...]:
        """Every radius held, ascending."""
        return tuple(sorted(set(self._layered).union(self._balls)))

    def build(self) -> "NeighborhoodTable":
        """Run the layered pass unless it has run; returns the table.

        Concurrent first calls may each run it, but every radius keeps the
        first list stored, so all callers read the same balls.
        """
        radii = self._layered
        if radii and radii[-1] not in self._balls:
            built: Dict[int, List[Set[int]]] = {hops: [] for hops in radii}
            for vertex in range(len(self._adjacency)):
                for hops, ball in zip(radii, _layered_balls(self._adjacency, vertex, radii)):
                    built[hops].append(ball)
            for hops in radii:  # the largest radius last: it marks the pass done
                self._balls.setdefault(hops, built[hops])
        return self

    def balls(self, hops: int) -> List[Set[int]]:
        """The live per-vertex list of ``hops``-balls (updated in place)."""
        balls = self._balls.get(hops)
        if balls is None:
            if hops in self._layered:
                return self.build()._balls[hops]
            if hops < 0:
                raise ValueError(f"hops must be non-negative, got {hops}")
            balls = self._balls.setdefault(
                hops,
                [
                    r_hop_neighborhood(self._adjacency, vertex, hops)
                    for vertex in range(len(self._adjacency))
                ],
            )
        return balls

    def update(self, touched_vertices: Iterable[int]) -> Set[int]:
        """Refresh every radius after the shared adjacency changed.

        ``touched_vertices`` are the endpoints of every added or removed
        edge.  A vertex's ball can change only when it holds a touched
        vertex in the old or the new graph: by symmetry, exactly the vertices
        of the touched vertices' old and new balls at the largest radius.
        Every radius of those vertices is recomputed; they are returned.
        """
        radii = self.build().radii
        if not radii:
            return set()
        outer = self._balls[radii[-1]]
        fresh: Dict[int, List[Set[int]]] = {}
        affected: Set[int] = set()
        for vertex in touched_vertices:
            affected |= outer[vertex]
            fresh[vertex] = _layered_balls(self._adjacency, vertex, radii)
            affected |= fresh[vertex][-1]
        for vertex in affected:
            balls = fresh.get(vertex) or _layered_balls(self._adjacency, vertex, radii)
            for hops, ball in zip(radii, balls):
                self._balls[hops][vertex] = ball
        return affected

    def verify_rebuild(self) -> None:
        """Assert every ball equals a from-scratch :func:`r_hop_neighborhood`."""
        for hops, balls in self._balls.items():
            for vertex, ball in enumerate(balls):
                if ball != r_hop_neighborhood(self._adjacency, vertex, hops):
                    raise AssertionError(
                        f"{hops}-hop ball of vertex {vertex} diverged from a "
                        "fresh rebuild"
                    )

