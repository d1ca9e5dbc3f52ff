"""The dynamic strategy-decision engine.

One :class:`DynamicStrategyEngine` owns everything a scenario under network
dynamics shares per replication:

* the :class:`~repro.dynamics.graph.DynamicTopology` (``G``) and the
  in-place maintained :class:`~repro.dynamics.graph.DynamicExtendedGraph`
  (``H``),
* one :class:`~repro.graph.neighborhoods.NeighborhoodTable` over ``H``'s
  live adjacency, holding every protocol radius (``r``, ``r+1``, ``2r+1``,
  ``3r+2``) and patched in place after each event batch, and
* a :class:`~repro.distributed.ptas.DistributedRobustPTAS` built over the
  *live* adjacency and table, so after an event is applied incrementally
  the protocol immediately runs on the new topology — no rebuild.

Policies get their strategy decisions through :meth:`solver`, which returns
a :class:`DynamicStrategySolver`: a drop-in
:class:`~repro.mwis.base.MWISSolver` that masks departed nodes out of the
weight vector, runs Algorithm 3 on the current topology and filters the
winners to active nodes.  Applying events *invalidates* every issued solver
(the previous-strategy memory is cleared), which forces the next decision
to re-broadcast all weights and fully re-converge — exactly the re-start
the paper's protocol would perform after a topology change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.distributed.ptas import DistributedRobustPTAS, ProtocolResult
from repro.dynamics.events import TopologyEvent
from repro.dynamics.graph import DynamicExtendedGraph, DynamicTopology, GraphDelta
from repro.graph.conflict_graph import ConflictGraph
from repro.graph.neighborhoods import NeighborhoodTable, protocol_radii
from repro.mwis.base import IndependentSet, MWISSolver

__all__ = ["EventReport", "DynamicStrategySolver", "DynamicStrategyEngine"]


@dataclass(frozen=True)
class EventReport:
    """What one batch of topology events changed."""

    num_events: int
    #: Extended-graph vertices incident to a changed edge.
    touched_vertices: int
    #: Vertices whose neighbourhoods were recomputed (those of the
    #: touched vertices' old and new (3r+2)-balls).
    recomputed_neighborhoods: int
    active_nodes: int
    num_edges: int


class DynamicStrategySolver(MWISSolver):
    """MWIS solver running Algorithm 3 on the engine's live topology.

    Satisfies the generic solver interface the learning policies use, so
    :class:`~repro.core.policies.CombinatorialUCBPolicy` /
    :class:`~repro.core.policies.LLRPolicy` work under dynamics unchanged.
    The ``adjacency`` argument of :meth:`solve` is only size-checked — the
    engine's live adjacency is authoritative (a policy's construction-time
    snapshot goes stale the moment the topology changes).
    """

    def __init__(self, engine: "DynamicStrategyEngine") -> None:
        self._engine = engine
        self._previous_strategy: Optional[Set[int]] = None
        self._last_result: Optional[ProtocolResult] = None
        #: Total protocol decisions run (lets callers detect rounds in which
        #: a policy decided without invoking the protocol at all).
        self.num_solves = 0

    @property
    def last_result(self) -> Optional[ProtocolResult]:
        """Full protocol result of the most recent decision."""
        return self._last_result

    def invalidate(self) -> None:
        """Drop the previous-strategy memory: the topology changed.

        The next :meth:`solve` broadcasts every weight during the WB phase
        (first-round behaviour) and re-converges from scratch.
        """
        self._previous_strategy = None

    def reset(self) -> None:
        """Policy-facing reset (start of a new run)."""
        self.invalidate()
        self._last_result = None

    def solve(self, adjacency: Sequence[Set[int]], weights: Sequence[float]) -> IndependentSet:
        engine = self._engine
        if len(adjacency) != engine.extended.num_vertices:
            raise ValueError(
                f"adjacency has {len(adjacency)} vertices but the engine was "
                f"built for {engine.extended.num_vertices}"
            )
        active = engine.extended.active_vertices()
        masked = np.asarray(weights, dtype=float).copy()
        if len(active) < masked.size:
            inactive = np.ones(masked.size, dtype=bool)
            inactive[sorted(active)] = False
            masked[inactive] = 0.0
        result = engine.protocol.run(
            masked, broadcasting_vertices=self._previous_strategy
        )
        winners = set(result.independent_set.vertices) & active
        self._last_result = result
        self.num_solves += 1
        self._previous_strategy = winners
        return IndependentSet.from_iterable(winners, weights)


class DynamicStrategyEngine:
    """Shared dynamic-topology state of one simulation run.

    Parameters
    ----------
    base_graph:
        The initial conflict graph (the fixed node universe).
    r:
        PTAS radius of the strategy decision.
    local_solver:
        Optional solver for the per-leader local MWIS instances (``None`` =
        exact enumeration; pass :class:`~repro.mwis.greedy.GreedyMWISSolver`
        for large extended graphs, mirroring ``PolicySpec.solver``).
    max_mini_rounds:
        Optional mini-round budget ``D`` per decision.
    """

    def __init__(
        self,
        base_graph: ConflictGraph,
        r: int = 2,
        local_solver: Optional[MWISSolver] = None,
        max_mini_rounds: Optional[int] = None,
    ) -> None:
        self.topology = DynamicTopology(base_graph)
        self.extended = DynamicExtendedGraph(self.topology)
        adjacency = self.extended.adjacency
        self._r = r
        self.neighborhoods = NeighborhoodTable(adjacency, protocol_radii(r))
        self.protocol = DistributedRobustPTAS(
            adjacency,
            r=r,
            max_mini_rounds=max_mini_rounds,
            local_solver=local_solver,
            neighborhoods=self.neighborhoods,
        )
        self._solvers: List[DynamicStrategySolver] = []
        self.num_event_batches = 0
        self.num_events_applied = 0

    @property
    def r(self) -> int:
        """The PTAS radius."""
        return self._r

    @property
    def solvers(self) -> "tuple[DynamicStrategySolver, ...]":
        """Every strategy solver issued by this engine."""
        return tuple(self._solvers)

    def solver(self) -> DynamicStrategySolver:
        """A fresh strategy-decision solver bound to this engine.

        Every policy of a run gets its own solver (its own previous-strategy
        memory); all of them are invalidated together when events apply.
        """
        solver = DynamicStrategySolver(self)
        self._solvers.append(solver)
        return solver

    def apply_events(self, events: Iterable[TopologyEvent]) -> EventReport:
        """Apply an event batch incrementally and invalidate all solvers."""
        events = list(events)
        merged = GraphDelta()
        for event in events:
            merged = merged.merge(self.topology.apply(event))
        extended_delta = self.extended.apply_delta(merged)
        touched = extended_delta.touched_vertices
        recomputed = len(self.neighborhoods.update(touched))
        for solver in self._solvers:
            solver.invalidate()
        self.num_event_batches += 1
        self.num_events_applied += len(events)
        return EventReport(
            num_events=len(events),
            touched_vertices=len(touched),
            recomputed_neighborhoods=recomputed,
            active_nodes=self.topology.num_active,
            num_edges=self.topology.num_edges,
        )

    def verify_rebuild(self) -> None:
        """Assert every incremental structure matches a fresh rebuild."""
        self.extended.verify_rebuild()
        self.neighborhoods.verify_rebuild()
