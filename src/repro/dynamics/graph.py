"""Incrementally-maintained dynamic conflict graphs.

The static layers build :class:`~repro.graph.conflict_graph.ConflictGraph`
and :class:`~repro.graph.extended.ExtendedConflictGraph` once per topology.
Under churn and mobility the topology changes every few rounds, and a full
rebuild per event would recompute every adjacency set and every r-hop
neighbourhood.  This module maintains the same structures *incrementally*:

* :class:`DynamicTopology` — the conflict graph ``G`` over a fixed node
  universe with an active-node set, per-node positions and link overrides;
  applying a :class:`~repro.dynamics.events.TopologyEvent` yields the exact
  edge delta.
* :class:`DynamicExtendedGraph` — the extended graph ``H`` whose adjacency
  sets are patched in place from edge deltas of ``G`` (master cliques are
  static; only same-channel conflict edges change).

The protocol's :class:`~repro.graph.neighborhoods.NeighborhoodTable` over
``H``'s live adjacency is patched from the same deltas
(:meth:`~repro.graph.neighborhoods.NeighborhoodTable.update`).

Everything obeys a *rebuild-equality contract*: after any event sequence,
the incremental state is bit-identical to a fresh build from the current
topology (asserted by :meth:`DynamicExtendedGraph.verify_rebuild` and the
property tests in ``tests/dynamics/``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.dynamics.events import (
    LinkFlap,
    MobilityStep,
    NodeArrival,
    NodeDeparture,
    TopologyEvent,
)
from repro.graph.conflict_graph import ConflictGraph
from repro.graph.extended import ExtendedConflictGraph
from repro.graph.geometry import Point
from repro.graph.unit_disk import DEFAULT_CONFLICT_RADIUS

__all__ = [
    "GraphDelta",
    "ExtendedDelta",
    "DynamicTopology",
    "DynamicExtendedGraph",
    "index_frame",
]


def _edge(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class GraphDelta:
    """The exact change one event made to the conflict graph ``G``."""

    added_edges: FrozenSet[Tuple[int, int]] = frozenset()
    removed_edges: FrozenSet[Tuple[int, int]] = frozenset()

    def merge(self, other: "GraphDelta") -> "GraphDelta":
        """Combine two sequential deltas (an add then a remove cancels)."""
        added = (self.added_edges - other.removed_edges) | other.added_edges
        removed = (self.removed_edges - other.added_edges) | other.removed_edges
        return GraphDelta(added_edges=frozenset(added), removed_edges=frozenset(removed))


class DynamicTopology:
    """The conflict graph ``G`` under churn, mobility and link flapping.

    The node universe (``N`` users, ``M`` channels) is fixed for the
    lifetime of a scenario; dynamics change which nodes are *active*, where
    they are, and which conflict links exist.  An edge ``(u, v)`` is present
    exactly when

    * both endpoints are active,
    * the link is not forced down by an un-restored :class:`LinkFlap`, and
    * the topology rule holds: on geometric topologies the unit-disk test
      on *current* positions, on combinatorial ones membership in the base
      edge set.
    """

    def __init__(
        self, base: ConflictGraph, radius: float = DEFAULT_CONFLICT_RADIUS
    ) -> None:
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self._num_nodes = base.num_nodes
        self._num_channels = base.num_channels
        self._radius = float(radius)
        positions = base.positions
        self._positions: Optional[List[Point]] = positions
        self._base_edges: Set[Tuple[int, int]] = {_edge(u, v) for u, v in base.edges()}
        self._active: List[bool] = [True] * self._num_nodes
        self._links_down: Set[Tuple[int, int]] = set()
        self._adjacency: List[Set[int]] = base.adjacency_sets()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Size of the fixed node universe ``N``."""
        return self._num_nodes

    @property
    def num_channels(self) -> int:
        """Number of channels ``M``."""
        return self._num_channels

    def is_active(self, node: int) -> bool:
        """Whether ``node`` is currently part of the network."""
        self._check_node(node)
        return self._active[node]

    def active_nodes(self) -> List[int]:
        """Sorted ids of the currently active nodes."""
        return [node for node in range(self._num_nodes) if self._active[node]]

    @property
    def num_active(self) -> int:
        """Number of currently active nodes."""
        return sum(self._active)

    @property
    def num_edges(self) -> int:
        """Number of current conflict edges."""
        return sum(len(n) for n in self._adjacency) // 2

    def adjacency_sets(self) -> List[Set[int]]:
        """A copy of the current adjacency structure of ``G``."""
        return [set(neighbors) for neighbors in self._adjacency]

    def edges(self) -> List[Tuple[int, int]]:
        """The current edges as sorted ``(u, v)`` pairs with ``u < v``."""
        return sorted(
            (u, v)
            for u, neighbors in enumerate(self._adjacency)
            for v in neighbors
            if u < v
        )

    def to_conflict_graph(self) -> ConflictGraph:
        """A fresh :class:`ConflictGraph` snapshot of the current state.

        The snapshot keeps the full node universe (departed nodes appear as
        isolated vertices), which is what the rebuild-equality contract of
        :class:`DynamicExtendedGraph` compares against.
        """
        return ConflictGraph(
            self._num_nodes,
            self.edges(),
            self._num_channels,
            positions=self._positions,
        )

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self._num_nodes):
            raise ValueError(f"node {node} out of range [0, {self._num_nodes})")

    # ------------------------------------------------------------------
    # The edge rule
    # ------------------------------------------------------------------
    def _rule_connected(self, u: int, v: int) -> bool:
        """Whether the topology rule (before overrides) links ``u`` and ``v``."""
        if self._positions is not None:
            pu, pv = self._positions[u], self._positions[v]
            return (pu.x - pv.x) ** 2 + (pu.y - pv.y) ** 2 <= self._radius**2
        return _edge(u, v) in self._base_edges

    def _connected(self, u: int, v: int) -> bool:
        if u == v or not (self._active[u] and self._active[v]):
            return False
        if _edge(u, v) in self._links_down:
            return False
        return self._rule_connected(u, v)

    def _recompute_incident(self, node: int) -> GraphDelta:
        """Re-evaluate every edge incident to ``node`` against the rule."""
        old = self._adjacency[node]
        new = {
            other
            for other in range(self._num_nodes)
            if self._connected(node, other)
        }
        added = {_edge(node, other) for other in new - old}
        removed = {_edge(node, other) for other in old - new}
        for other in old - new:
            self._adjacency[other].discard(node)
        for other in new - old:
            self._adjacency[other].add(node)
        self._adjacency[node] = new
        return GraphDelta(added_edges=frozenset(added), removed_edges=frozenset(removed))

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(self, event: TopologyEvent) -> GraphDelta:
        """Apply one event and return the exact edge delta it caused."""
        if isinstance(event, NodeDeparture):
            self._check_node(event.node)
            if not self._active[event.node]:
                raise ValueError(f"node {event.node} is already departed")
            self._active[event.node] = False
            return self._recompute_incident(event.node)
        if isinstance(event, NodeArrival):
            self._check_node(event.node)
            if self._active[event.node]:
                raise ValueError(f"node {event.node} is already active")
            if event.x is not None:
                if self._positions is None:
                    raise ValueError(
                        f"arrival of node {event.node} carries a position but the "
                        "topology is combinatorial (no node positions)"
                    )
                self._positions[event.node] = Point(float(event.x), float(event.y))
            self._active[event.node] = True
            return self._recompute_incident(event.node)
        if isinstance(event, MobilityStep):
            self._check_node(event.node)
            if self._positions is None:
                raise ValueError(
                    "mobility events need a geometric topology (node positions)"
                )
            if not self._active[event.node]:
                # A departed node can move silently; no edges change until
                # it rejoins.
                self._positions[event.node] = Point(float(event.x), float(event.y))
                return GraphDelta()
            self._positions[event.node] = Point(float(event.x), float(event.y))
            return self._recompute_incident(event.node)
        if isinstance(event, LinkFlap):
            self._check_node(event.u)
            self._check_node(event.v)
            key = _edge(event.u, event.v)
            if event.up:
                self._links_down.discard(key)
            else:
                self._links_down.add(key)
            present_now = self._connected(event.u, event.v)
            present_before = key[1] in self._adjacency[key[0]]
            if present_now == present_before:
                return GraphDelta()
            if present_now:
                self._adjacency[key[0]].add(key[1])
                self._adjacency[key[1]].add(key[0])
                return GraphDelta(added_edges=frozenset({key}))
            self._adjacency[key[0]].discard(key[1])
            self._adjacency[key[1]].discard(key[0])
            return GraphDelta(removed_edges=frozenset({key}))
        raise ValueError(f"unknown topology event {type(event).__name__}")


@dataclass
class ExtendedDelta:
    """The change one ``G``-delta induced on the extended graph ``H``."""

    added_edges: Set[Tuple[int, int]] = field(default_factory=set)
    removed_edges: Set[Tuple[int, int]] = field(default_factory=set)

    @property
    def touched_vertices(self) -> Set[int]:
        """Endpoints of every changed ``H`` edge."""
        vertices: Set[int] = set()
        for u, v in self.added_edges | self.removed_edges:
            vertices.add(u)
            vertices.add(v)
        return vertices


class DynamicExtendedGraph:
    """The extended conflict graph ``H`` maintained from ``G``-edge deltas.

    Matches ``ExtendedConflictGraph(topology.to_conflict_graph())`` at all
    times: master cliques exist for every node of the universe (active or
    not) and same-channel edges mirror the current conflict edges of ``G``.
    The adjacency list is mutated *in place*, so protocol engines holding a
    reference (:class:`~repro.distributed.ptas.DistributedRobustPTAS`, the
    message network) always see the current topology.
    """

    def __init__(self, topology: DynamicTopology) -> None:
        self._topology = topology
        self._m = topology.num_channels
        self._num_vertices = topology.num_nodes * self._m
        self._adjacency: List[Set[int]] = [set() for _ in range(self._num_vertices)]
        for node in range(topology.num_nodes):
            base = node * self._m
            for a in range(self._m):
                for b in range(a + 1, self._m):
                    self._adjacency[base + a].add(base + b)
                    self._adjacency[base + b].add(base + a)
        for u, v in topology.edges():
            self._set_conflict_edges(u, v, present=True)

    def _set_conflict_edges(self, i: int, j: int, present: bool) -> List[Tuple[int, int]]:
        changed = []
        for channel in range(self._m):
            u = i * self._m + channel
            v = j * self._m + channel
            if present:
                self._adjacency[u].add(v)
                self._adjacency[v].add(u)
            else:
                self._adjacency[u].discard(v)
                self._adjacency[v].discard(u)
            changed.append(_edge(u, v))
        return changed

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def topology(self) -> DynamicTopology:
        """The dynamic conflict graph ``G`` this ``H`` mirrors."""
        return self._topology

    @property
    def num_vertices(self) -> int:
        """Number of virtual vertices ``K = N * M``."""
        return self._num_vertices

    @property
    def num_channels(self) -> int:
        """Number of channels ``M``."""
        return self._m

    @property
    def adjacency(self) -> List[Set[int]]:
        """The live adjacency sets of ``H`` (shared, mutated in place)."""
        return self._adjacency

    def master_of(self, vertex: int) -> int:
        """Master node id of a virtual vertex (static under dynamics)."""
        if not (0 <= vertex < self._num_vertices):
            raise ValueError(f"vertex {vertex} out of range [0, {self._num_vertices})")
        return vertex // self._m

    def active_vertices(self) -> Set[int]:
        """Vertices whose master node is currently active."""
        active: Set[int] = set()
        for node in self._topology.active_nodes():
            base = node * self._m
            active.update(range(base, base + self._m))
        return active

    def is_independent(self, vertices: Iterable[int]) -> bool:
        """Independence test against the *current* adjacency of ``H``."""
        selected = set(vertices)
        for vertex in selected:
            if self._adjacency[vertex] & selected:
                return False
        return True

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def apply_delta(self, delta: GraphDelta) -> ExtendedDelta:
        """Mirror a ``G``-edge delta into ``H`` (same-channel edges only)."""
        result = ExtendedDelta()
        for i, j in delta.removed_edges:
            result.removed_edges.update(self._set_conflict_edges(i, j, present=False))
        for i, j in delta.added_edges:
            result.added_edges.update(self._set_conflict_edges(i, j, present=True))
        return result

    def rebuild_reference(self) -> List[Set[int]]:
        """Adjacency of a from-scratch ``H`` build of the current topology."""
        return ExtendedConflictGraph(self._topology.to_conflict_graph()).adjacency_sets()

    def verify_rebuild(self) -> None:
        """Assert the incremental ``H`` equals a fresh full rebuild."""
        reference = self.rebuild_reference()
        if reference != self._adjacency:
            diverged = [
                vertex
                for vertex in range(self._num_vertices)
                if reference[vertex] != self._adjacency[vertex]
            ]
            raise AssertionError(
                f"incremental extended graph diverged from a fresh rebuild at "
                f"vertices {diverged[:10]}{'...' if len(diverged) > 10 else ''}"
            )


def index_frame(num_nodes: int, num_channels: int) -> ExtendedConflictGraph:
    """The static arm-index frame policies use under dynamics.

    An :class:`ExtendedConflictGraph` over an *edgeless* conflict graph:
    the vertex <-> (node, channel) mapping and the one-channel-per-node
    master cliques — the only structure that never changes under dynamics.
    Conflict edges are deliberately absent, because a strategy chosen on the
    current topology may be perfectly feasible there while violating the
    *initial* conflict edges (a node that rejoined somewhere else); the
    simulator validates feasibility against the live graph instead.
    """
    return ExtendedConflictGraph(ConflictGraph(num_nodes, (), num_channels))
