"""Adapter exposing the distributed protocol through the MWIS solver interface.

The learning policies of :mod:`repro.core.policies` only need an object with
``solve(adjacency, weights) -> IndependentSet``; the Algorithm 2 framework is
then "learning policy + whichever strategy-decision engine is plugged in".
:class:`DistributedMWISSolver` plugs in Algorithm 3 and keeps the cost and
convergence information of the latest round available for inspection, which
the experiment harness uses to report communication/computation complexity.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from repro.distributed.ptas import DistributedRobustPTAS, ProtocolResult
from repro.graph.extended import ExtendedConflictGraph
from repro.mwis.base import Adjacency, IndependentSet, MWISSolver

__all__ = ["DistributedMWISSolver"]


class DistributedMWISSolver(MWISSolver):
    """MWIS solver backed by the distributed robust PTAS (Algorithm 3).

    Parameters
    ----------
    extended_graph:
        The extended conflict graph ``H`` the protocol runs on.
    r:
        PTAS radius (paper simulations use 2).
    max_mini_rounds:
        Mini-round budget ``D``; ``None`` runs to full convergence.
    local_solver:
        Solver for the per-leader local MWIS instances (defaults to exact
        enumeration inside :class:`DistributedRobustPTAS`).

    The protocol runs on ``H``'s neighbourhood table
    (:meth:`~repro.graph.extended.ExtendedConflictGraph.neighborhood_table`),
    so every solver built over one ``H`` and ``r`` shares a single table.
    """

    def __init__(
        self,
        extended_graph: ExtendedConflictGraph,
        r: int = 2,
        max_mini_rounds: Optional[int] = None,
        local_solver=None,
    ) -> None:
        self._graph = extended_graph
        neighborhoods = extended_graph.neighborhood_table(r)
        self._protocol = DistributedRobustPTAS(
            neighborhoods.adjacency,
            r=r,
            max_mini_rounds=max_mini_rounds,
            local_solver=local_solver,
            neighborhoods=neighborhoods,
        )
        self._last_result: Optional[ProtocolResult] = None
        #: Vertices of the previously returned strategy; they are the ones
        #: that refresh their weight during the next WB phase (Algorithm 2).
        self._previous_strategy: Optional[Set[int]] = None
        self.approximation_ratio = None

    @property
    def protocol(self) -> DistributedRobustPTAS:
        """The underlying protocol engine."""
        return self._protocol

    @property
    def last_result(self) -> Optional[ProtocolResult]:
        """Full protocol result of the most recent ``solve`` call."""
        return self._last_result

    def reset(self) -> None:
        """Forget the previous strategy (start of a new simulation run)."""
        self._previous_strategy = None
        self._last_result = None

    def solve(self, adjacency: Adjacency, weights: Sequence[float]) -> IndependentSet:
        """Run one strategy decision with the distributed protocol.

        ``adjacency`` must describe the same graph the solver was built for;
        it is accepted (and checked for size) so the class satisfies the
        generic :class:`~repro.mwis.base.MWISSolver` interface.
        """
        if len(adjacency) != self._graph.num_vertices:
            raise ValueError(
                f"adjacency has {len(adjacency)} vertices but the solver was "
                f"built for {self._graph.num_vertices}"
            )
        result = self._protocol.run(
            weights, broadcasting_vertices=self._previous_strategy
        )
        self._last_result = result
        self._previous_strategy = set(result.independent_set.vertices)
        return result.independent_set
