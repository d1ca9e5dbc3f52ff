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
``r + 1``, ``2r + 1`` and ``3r + 2`` of every vertex — as sorted CSR
arrays, built for every radius by one vectorised bitset pass over ``H``.
Broadcast delivery reads those rows as they are; a ball becomes a Python
set only when a vertex machine first reads it as one.  Under topology
dynamics the table is kept up to date in place: the recomputed balls are
stored as sets, by the layered BFS the adjacency-set path uses.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple, Union

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


#: Bytes one column block of :func:`_ball_arrays` may hold in its
#: gathered neighbour rows plus its unpacked bits (a bound on the pass's
#: scratch memory, whatever the size of ``H``).
_BLOCK_BYTES = 1 << 24


def _adjacency_csr(adjacency: Sequence[Set[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of adjacency sets (rows in set order)."""
    n = len(adjacency)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, adjacency), dtype=np.int64, count=n), out=indptr[1:])
    indices = np.fromiter(
        chain.from_iterable(adjacency), dtype=np.int64, count=int(indptr[-1])
    )
    return indptr, indices


def _ball_arrays(
    indptr: np.ndarray, indices: np.ndarray, radii: Sequence[int]
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Every ``J_k(v)``, ``k`` in the ascending ``radii``, as sorted CSR.

    Returns ``{k: (offsets, members)}`` with the ascending members of
    ``J_k(v)`` at ``members[offsets[v]:offsets[v + 1]]``.  One bitset
    reach expansion serves every radius: row ``v`` holds ``J_d(v)`` as bits,
    and each hop ORs into it the rows of ``v``'s neighbours.  Reach is
    column-separable, so the bits are expanded in column blocks that keep
    the scratch memory under ``_BLOCK_BYTES``; the time is
    ``O(hops * |E(H)| * |V(H)| / 64)`` word operations.
    """
    n = len(indptr) - 1
    nonempty = np.diff(indptr) > 0
    starts = indptr[:-1][nonempty]
    block_words = max(1, _BLOCK_BYTES // (8 * len(indices) + 64 * n + 1))
    # Per radius and column block: (members per row, members in row order).
    found: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {hops: [] for hops in radii}
    for first in range(0, n, 64 * block_words):
        width = min(64 * block_words, n - first)
        columns = np.arange(width)
        reach = np.zeros((n, (width + 63) // 64), dtype=np.uint64)
        reach[first + columns, columns >> 6] = np.left_shift(
            np.uint64(1), (columns & 63).astype(np.uint64)
        )
        hops, settled = 0, not starts.size
        for radius in radii:
            while hops < radius and not settled:
                grown = reach.copy()
                grown[nonempty] |= np.bitwise_or.reduceat(reach[indices], starts, axis=0)
                # Once no ball grows, no larger radius adds anything.
                settled = np.array_equal(grown, reach)
                reach = grown
                hops += 1
            # Little-endian words: bit b of word j is column 64 j + b.
            words = reach.astype("<u8", copy=False).view(np.uint8)
            bits = np.unpackbits(words, axis=1, count=width, bitorder="little")
            members = np.flatnonzero(bits)
            members %= width
            members += first
            found[radius].append((np.count_nonzero(bits, axis=1), members.astype(np.int32)))
    arrays = {}
    for radius, blocks in found.items():
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sum((counts for counts, _ in blocks), np.zeros(n, np.int64)), out=offsets[1:])
        members = np.concatenate([block for _, block in blocks] or [np.zeros(0, np.int32)])
        if len(blocks) > 1:  # blocks come in column order: a stable row sort merges them
            rows = np.concatenate([np.repeat(np.arange(n), counts) for counts, _ in blocks])
            members = members[np.argsort(rows, kind="stable")]
        arrays[radius] = (offsets, members)
    return arrays


class _RowView(Sequence[np.ndarray]):
    """The ``J_k(v)`` of one radius ``k`` as sorted member arrays.

    ``rows[v]`` is ``v``'s CSR slice, or the sorted copy of the set the
    table stored for ``v`` (:meth:`NeighborhoodTable.update`).  Reading a
    row, or its length, makes no set.
    """

    __slots__ = ("_offsets", "_members", "_stored")

    def __init__(self, offsets: List[int], members: np.ndarray) -> None:
        self._offsets = offsets
        self._members = members
        self._stored: Dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, vertex: int) -> np.ndarray:
        row = self._stored.get(vertex)
        if row is None:
            if not (0 <= vertex < len(self)):
                raise IndexError(f"vertex {vertex} out of range [0, {len(self)})")
            row = self._members[self._offsets[vertex] : self._offsets[vertex + 1]]
        return row

    def __iter__(self) -> Iterator[np.ndarray]:
        if self._stored:
            return map(self.__getitem__, range(len(self)))
        members, offsets = self._members, self._offsets
        return (members[start:stop] for start, stop in zip(offsets, offsets[1:]))


class _BallView(Sequence[Set[int]]):
    """The ``J_k(v)`` of one radius ``k``: a read-only per-vertex sequence.

    ``view[v]`` makes ``J_k(v)`` as a set from its CSR row the first time
    it is read and keeps it; the members are the table's shared int
    objects, so every ball holding ``u`` holds the same object.  A set the
    table stores (:meth:`NeighborhoodTable.update`) replaces the row, in
    :attr:`rows` as well.
    """

    __slots__ = ("_ints", "_sets", "rows")

    def __init__(self, offsets: np.ndarray, members: np.ndarray, ints: np.ndarray) -> None:
        self._ints = ints
        self._sets: Dict[int, Set[int]] = {}
        #: The same balls as sorted rows (:class:`_RowView`).
        self.rows = _RowView(offsets.tolist(), members)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, vertex: int) -> Set[int]:
        try:
            return self._sets[vertex]
        except KeyError:
            return self._make(vertex)

    def _make(self, vertex: int) -> Set[int]:
        row = self.rows[vertex]
        # Concurrent first reads may each make a set; all keep the first.
        return self._sets.setdefault(vertex, set(self._ints[row].tolist()))

    def __iter__(self) -> Iterator[Set[int]]:
        return map(self.__getitem__, range(len(self)))

    def _store(self, vertex: int, ball: Set[int]) -> None:
        self._sets[vertex] = ball
        self.rows._stored[vertex] = np.array(sorted(ball), dtype=np.int32)


class NeighborhoodTable:
    """Every vertex's balls ``J_k(v)`` at a set of radii.

    A table at :func:`protocol_radii` is all the topology knowledge
    Algorithm 3 uses: it is built once per (graph, r) and shared by
    reference between the protocol, its transports and every policy, period
    and replication of a run, which only read it.  The one writer is the
    dynamics engine: it mutates the shared ``adjacency``, then calls
    :meth:`update`, so the live protocol sees the new balls at once.

    Construction is cheap: one vectorised pass (:func:`_ball_arrays`) over
    ``radii`` runs at the first :meth:`build` or read and holds each radius
    as sorted CSR arrays.  Each radius is served two ways: :meth:`balls`
    makes a ball a set when it is first read, and :meth:`rows` hands out
    the sorted CSR rows, making no set.  The transports read rows, so the
    ``3r + 2`` radius, which only the determination broadcast reaches, is
    never made as sets.  A radius outside ``radii`` is served by the same
    pass on its first read, and kept.
    """

    def __init__(self, adjacency: Sequence[Set[int]], radii: Iterable[int] = ()) -> None:
        self._adjacency = adjacency
        self._layered = tuple(sorted(set(radii)))
        if self._layered and self._layered[0] < 0:
            raise ValueError(f"radii must be non-negative, got {self._layered}")
        self._views: Dict[int, _BallView] = {}
        # One int object per vertex, shared by every ball (see _BallView).
        self._ints = np.array(list(range(len(adjacency))), dtype=object)

    @property
    def adjacency(self) -> Sequence[Set[int]]:
        """The adjacency sets the balls are taken over (kept by reference)."""
        return self._adjacency

    @property
    def radii(self) -> Tuple[int, ...]:
        """Every radius held, ascending."""
        return tuple(sorted(set(self._layered).union(self._views)))

    def _make_views(self, radii: Sequence[int]) -> Dict[int, _BallView]:
        arrays = _ball_arrays(*_adjacency_csr(self._adjacency), radii)
        return {
            hops: _BallView(offsets, members, self._ints)
            for hops, (offsets, members) in arrays.items()
        }

    def build(self) -> "NeighborhoodTable":
        """Run the pass over ``radii`` unless it has run; returns the table.

        Concurrent first calls may each run it, but every radius keeps the
        first view stored, so all callers read the same balls.
        """
        radii = self._layered
        if radii and radii[-1] not in self._views:
            built = self._make_views(radii)
            for hops in radii:  # the largest radius last: it marks the pass done
                self._views.setdefault(hops, built[hops])
        return self

    def balls(self, hops: int) -> Sequence[Set[int]]:
        """The live per-vertex view of ``hops``-balls (updated in place)."""
        view = self._views.get(hops)
        if view is None:
            if hops in self._layered:
                return self.build()._views[hops]
            if hops < 0:
                raise ValueError(f"hops must be non-negative, got {hops}")
            view = self._views.setdefault(hops, self._make_views((hops,))[hops])
        return view

    def rows(self, hops: int) -> Sequence[np.ndarray]:
        """The live ``hops``-balls as sorted member arrays (no set is made).

        What broadcast delivery reads: a transport needs each ball's members
        in order, or only its length.
        """
        return self.balls(hops).rows

    def make_sets(self, radii: Iterable[int]) -> None:
        """Make every ball of each of ``radii`` a set now.

        For a reader that reads them all anyway, so that it pays for them
        once, before its first use.
        """
        for hops in radii:
            deque(self.balls(hops), maxlen=0)

    def update(self, touched_vertices: Iterable[int]) -> Set[int]:
        """Refresh every radius after the shared adjacency changed.

        ``touched_vertices`` are the endpoints of every added or removed
        edge.  A vertex's ball can change only when it holds a touched
        vertex in the old or the new graph: by symmetry, exactly the vertices
        of the touched vertices' old and new balls at the largest radius.
        Every radius of those vertices is recomputed by a layered BFS and
        stored as a set, which the views (and, sorted, :meth:`rows`) read
        instead of their CSR rows from then on; they are returned.
        """
        radii = self.build().radii
        if not radii:
            return set()
        views = [self._views[hops] for hops in radii]
        outer = views[-1]
        fresh: Dict[int, List[Set[int]]] = {}
        affected: Set[int] = set()
        for vertex in touched_vertices:
            affected |= outer[vertex]
            fresh[vertex] = _layered_balls(self._adjacency, vertex, radii)
            affected |= fresh[vertex][-1]
        for vertex in affected:
            balls = fresh.get(vertex) or _layered_balls(self._adjacency, vertex, radii)
            for view, ball in zip(views, balls):
                view._store(vertex, ball)
        return affected

    def verify_rebuild(self) -> None:
        """Assert every ball equals a from-scratch :func:`r_hop_neighborhood`."""
        for hops, view in self._views.items():
            for vertex, ball in enumerate(view):
                if ball != r_hop_neighborhood(self._adjacency, vertex, hops):
                    raise AssertionError(
                        f"{hops}-hop ball of vertex {vertex} diverged from a "
                        "fresh rebuild"
                    )
