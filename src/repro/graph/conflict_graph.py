"""The original conflict graph ``G = (V, E, C)`` of the network model.

``G`` has one vertex per secondary user; an edge between two users means
their transmissions conflict when they access the same channel in the same
round (Section II of the paper).  The channel set ``C`` is carried along with
the graph because the number of channels ``M`` determines the size of the
extended conflict graph ``H``.

Adjacency is stored in **CSR form** (``indptr``/``indices`` int64 numpy
arrays with per-row sorted neighbours): a graph of ``10^5``–``10^6`` nodes
costs two flat arrays instead of ``n`` Python sets, construction from an
edge array is fully vectorised, and the BFS kernels in
:mod:`repro.graph.neighborhoods` can gather whole frontiers in numpy.  The
historical set-based accessors (:meth:`ConflictGraph.neighbors`,
:meth:`ConflictGraph.adjacency_sets`, …) are preserved as *views* built from
the CSR rows on demand — same contents, plain Python ints — so every
existing consumer keeps working unchanged; large-``n`` code should prefer
:meth:`ConflictGraph.csr_adjacency` / :meth:`ConflictGraph.neighbors_array`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.graph.geometry import Point

if TYPE_CHECKING:
    from repro.graph.extended import ExtendedConflictGraph
    from repro.graph.neighborhoods import NeighborhoodTable

__all__ = ["ConflictGraph", "build_csr", "canonical_edge_array"]

EdgesLike = Union[Iterable[Tuple[int, int]], np.ndarray]


def canonical_edge_array(num_nodes: int, edges: EdgesLike) -> np.ndarray:
    """Validate and canonicalize an edge collection.

    Returns a deduplicated ``(m, 2)`` int64 array with ``lo < hi`` per row,
    sorted lexicographically.  Raises ``ValueError`` on the first
    out-of-range endpoint or self loop (checked in that order, matching the
    historical per-edge construction).
    """
    if isinstance(edges, np.ndarray):
        edge_array = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    else:
        edge_list = list(edges)
        edge_array = (
            np.array(edge_list, dtype=np.int64).reshape(-1, 2)
            if edge_list
            else np.zeros((0, 2), dtype=np.int64)
        )
    if edge_array.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    src, dst = edge_array[:, 0], edge_array[:, 1]
    bad = (src < 0) | (src >= num_nodes) | (dst < 0) | (dst >= num_nodes) | (src == dst)
    if bad.any():
        first = int(np.argmax(bad))
        i, j = int(src[first]), int(dst[first])
        if not (0 <= i < num_nodes and 0 <= j < num_nodes):
            raise ValueError(
                f"edge ({i}, {j}) out of range for {num_nodes} nodes"
            )
        raise ValueError(f"self loop ({i}, {j}) is not allowed")
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    # One int64 key per undirected edge; unique() both dedupes and yields
    # the lexicographic (lo, hi) order.  Safe while n * n fits in int64.
    keys = np.unique(lo * np.int64(num_nodes) + hi)
    return np.stack((keys // num_nodes, keys % num_nodes), axis=1)


def build_csr(num_nodes: int, edge_array: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Build ``(indptr, indices)`` CSR adjacency from a canonical edge array.

    Both directions of every undirected edge are materialized; each row's
    neighbour list comes out sorted ascending.  The returned arrays are
    marked read-only — they are shared, not copied, by the accessors.
    """
    if edge_array.shape[0] == 0:
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        indices = np.zeros(0, dtype=np.int64)
    else:
        src = np.concatenate((edge_array[:, 0], edge_array[:, 1]))
        dst = np.concatenate((edge_array[:, 1], edge_array[:, 0]))
        order = np.lexsort((dst, src))
        indices = dst[order]
        counts = np.bincount(src, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices


class ConflictGraph:
    """Undirected conflict graph over ``N`` users with ``M`` channels.

    Parameters
    ----------
    num_nodes:
        Number of secondary users ``N``.
    edges:
        Iterable of ``(i, j)`` conflict pairs or an ``(m, 2)`` int64 array
        (the zero-copy path used by the topology generators at scale),
        ``0 <= i, j < num_nodes``.  Self loops are rejected; duplicate edges
        are merged.
    num_channels:
        Number of channels ``M`` available to every user.
    positions:
        Optional planar positions (used by unit-disk based topologies and kept
        for reproducibility and plotting; never required by the algorithms).
    """

    def __init__(
        self,
        num_nodes: int,
        edges: EdgesLike,
        num_channels: int,
        positions: Optional[Sequence[Point]] = None,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        if num_channels <= 0:
            raise ValueError(f"num_channels must be positive, got {num_channels}")
        if positions is not None and len(positions) != num_nodes:
            raise ValueError(
                f"positions has {len(positions)} entries but num_nodes is {num_nodes}"
            )
        self._num_nodes = num_nodes
        self._num_channels = num_channels
        self._positions = list(positions) if positions is not None else None
        self._edge_array = canonical_edge_array(num_nodes, edges)
        self._edge_array.setflags(write=False)
        self._indptr, self._indices = build_csr(num_nodes, self._edge_array)

    def __getstate__(self) -> Dict[str, object]:
        # A process rebuilds H (and with it the neighbourhood tables) on
        # first use instead of receiving it pickled; an unpickled graph then
        # hands its own H to every caller in that process.
        return {k: v for k, v in self.__dict__.items() if k != "_extended_graph"}

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of users ``N``."""
        return self._num_nodes

    @property
    def num_channels(self) -> int:
        """Number of channels ``M``."""
        return self._num_channels

    @property
    def positions(self) -> Optional[List[Point]]:
        """Planar node positions if the graph was built geometrically."""
        return list(self._positions) if self._positions is not None else None

    def nodes(self) -> range:
        """Iterate over node ids ``0 .. N-1``."""
        return range(self._num_nodes)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges as ``(i, j)`` with ``i < j`` (lexicographic)."""
        for i, j in self._edge_array.tolist():
            yield (i, j)

    def edge_array(self) -> np.ndarray:
        """The canonical ``(m, 2)`` int64 edge array (read-only view)."""
        return self._edge_array

    def csr_adjacency(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(indptr, indices)`` CSR adjacency (read-only views).

        ``indices[indptr[v]:indptr[v + 1]]`` is the sorted neighbour row of
        ``v`` — the zero-copy representation the BFS kernels and the macro
        benchmarks operate on.
        """
        return self._indptr, self._indices

    @property
    def num_edges(self) -> int:
        """Number of conflict edges."""
        return int(self._edge_array.shape[0])

    def neighbors(self, node: int) -> FrozenSet[int]:
        """Return the neighbour set of ``node`` (view of the CSR row)."""
        self._check_node(node)
        return frozenset(self._row(node).tolist())

    def neighbors_array(self, node: int) -> np.ndarray:
        """The sorted neighbour row of ``node`` as a read-only int64 view."""
        self._check_node(node)
        return self._row(node)

    def _row(self, node: int) -> np.ndarray:
        return self._indices[self._indptr[node] : self._indptr[node + 1]]

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        self._check_node(node)
        return int(self._indptr[node + 1] - self._indptr[node])

    def average_degree(self) -> float:
        """Average degree ``d`` of the graph (0 for an empty graph)."""
        if self._num_nodes == 0:
            return 0.0
        return 2.0 * self.num_edges / self._num_nodes

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self._num_nodes):
            raise ValueError(f"node {node} out of range [0, {self._num_nodes})")

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def is_independent_set(self, nodes: Iterable[int]) -> bool:
        """Return ``True`` when no two nodes in ``nodes`` are adjacent."""
        selected = list(nodes)
        selected_set = set(selected)
        if len(selected_set) != len(selected):
            return False
        for node in selected_set:
            self._check_node(node)
            if not selected_set.isdisjoint(self._row(node).tolist()):
                return False
        return True

    def connected_components(self) -> List[Set[int]]:
        """Return the connected components as a list of node sets."""
        seen = np.zeros(self._num_nodes, dtype=bool)
        components: List[Set[int]] = []
        for start in range(self._num_nodes):
            if seen[start]:
                continue
            seen[start] = True
            frontier = np.array([start], dtype=np.int64)
            component: Set[int] = {start}
            while frontier.size:
                gathered = _gather_rows(self._indptr, self._indices, frontier)
                fresh = np.unique(gathered[~seen[gathered]])
                seen[fresh] = True
                component.update(fresh.tolist())
                frontier = fresh
            components.append(component)
        return components

    def is_connected(self) -> bool:
        """Return ``True`` when the graph has a single connected component."""
        return len(self.connected_components()) <= 1

    def adjacency_sets(self) -> List[Set[int]]:
        """The adjacency structure as per-node Python sets (a fresh copy).

        This is the compatibility view consumed by the simulator, protocol
        and dynamics layers at paper scale; it materializes ``n`` sets of
        Python ints, so large-``n`` code should use :meth:`csr_adjacency`.
        """
        return [
            set(self._indices[self._indptr[i] : self._indptr[i + 1]].tolist())
            for i in range(self._num_nodes)
        ]

    def extended_graph(self) -> "ExtendedConflictGraph":
        """The extended conflict graph ``H`` of this graph.

        One read-only ``H``, created on the first call and handed to every
        later caller (every system, solver and policy on this graph):
        concurrent first calls may each create one, but only the first
        stored is ever handed out.  ``H`` holds no reference back to this
        graph, so the pair is freed as soon as the graph is.
        """
        from repro.graph.extended import ExtendedConflictGraph

        extended = self.__dict__.get("_extended_graph")
        if extended is None:
            extended = self.__dict__.setdefault(
                "_extended_graph", ExtendedConflictGraph(self)
            )
        return extended

    def neighborhood_table(self, r: int) -> "NeighborhoodTable":
        """Algorithm 3's balls of ``H`` at PTAS radius ``r`` (held by :meth:`extended_graph`)."""
        return self.extended_graph().neighborhood_table(r)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"ConflictGraph(num_nodes={self._num_nodes}, "
            f"num_edges={self.num_edges}, num_channels={self._num_channels})"
        )


def _gather_rows(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> np.ndarray:
    """Concatenate the CSR neighbour rows of ``vertices`` without a loop."""
    starts = indptr[vertices]
    counts = indptr[vertices + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    flat = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    return indices[np.repeat(starts, counts) + flat]
