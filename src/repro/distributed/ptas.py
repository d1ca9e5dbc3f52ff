"""Distributed robust PTAS for strategy decision (Algorithm 3 of the paper).

Every mini-round proceeds in three logical phases, realised by the
message-driven state machines of :mod:`repro.distributed.runtime` over a
:class:`~repro.distributed.transport.Transport`:

1. *LocalLeader selection (LS/LD)* -- every Candidate that is the
   maximum-weight Candidate of its (2r+1)-hop neighbourhood declares itself
   LocalLeader within (2r+1) hops.
2. *Local MWIS (LMWIS)* -- every LocalLeader solves MWIS exactly (by
   enumeration) over the Candidate vertices ``A_r(v)`` of its r-hop
   neighbourhood; the members of the MWIS become Winners, and the remaining
   Candidates of ``A_r(v)`` *plus every Candidate adjacent to a new Winner*
   become Losers.  Including the Winners' direct neighbours in the Loser set
   mirrors the centralized robust PTAS ("remove the MWIS and all adjacent
   vertices") and guarantees that Winners chosen by later LocalLeaders can
   never conflict with Winners chosen now.
3. *Local broadcast (LB)* -- the decisions are broadcast within (3r+2) hops so
   that every vertex whose (2r+1)-hop knowledge horizon contains a decided
   vertex learns about the decision before the next mini-round.

The union of the Winner sets of all mini-rounds is an independent set of ``H``
achieving the same approximation ratio as the centralized robust PTAS
(Theorem 3); with a truncated number of mini-rounds ``D`` the output is still
a constant-factor approximation on random networks (Theorem 4) -- experiment
E1 / Fig. 6 measures exactly this convergence.

This class is the user-facing wrapper: it validates parameters, holds the
topology's :class:`~repro.graph.neighborhoods.NeighborhoodTable` (built here
unless a shared one is passed) and runs the protocol over either a fresh
:class:`~repro.distributed.transport.SimulatedTransport` per run or any
transport passed via ``transport=`` — including the real asyncio runtime.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set

from repro.distributed.runtime import MiniRoundRecord, ProtocolEngine, ProtocolResult
from repro.distributed.transport import SimulatedTransport, Transport
from repro.graph.neighborhoods import NeighborhoodTable, protocol_radii
from repro.mwis.base import Adjacency, MWISSolver

__all__ = [
    "MiniRoundRecord",
    "ProtocolResult",
    "DistributedRobustPTAS",
]


class DistributedRobustPTAS:
    """Executable model of Algorithm 3 on a fixed extended conflict graph.

    The neighbourhood table is built once per topology so that the
    per-round work matches the distributed algorithm (the real protocol also
    discovers its neighbourhood once, not every round).

    Parameters
    ----------
    adjacency:
        Adjacency sets of the extended conflict graph ``H``.  May be omitted
        when ``transport`` is given (the transport's adjacency is used).
    r:
        The PTAS radius (the paper's simulations use ``r = 2``).
    max_mini_rounds:
        Mini-round budget ``D``.  ``None`` means "run until every vertex is
        marked" (at most ``|V(H)|`` mini-rounds, the paper's O(N) bound).
    local_solver:
        Solver used for the local MWIS instances; defaults to exact
        enumeration as in the paper.
    neighborhoods:
        The :class:`~repro.graph.neighborhoods.NeighborhoodTable` of ``H``
        at :func:`~repro.graph.neighborhoods.protocol_radii` ``(r)``, kept
        *by reference*: every policy of a run can share one (see
        :meth:`repro.graph.conflict_graph.ConflictGraph.neighborhood_table`),
        and :mod:`repro.dynamics` updates it in place while the protocol
        keeps running on the live topology.  Built from ``adjacency`` when
        omitted.
    transport:
        Optional :class:`~repro.distributed.transport.Transport` instance to
        run the protocol over.  It is :meth:`~repro.distributed.transport.
        Transport.reset` before every :meth:`run` so per-run cost reports
        never mix rounds.  When omitted, each run builds a fresh
        :class:`~repro.distributed.transport.SimulatedTransport` over
        ``adjacency`` and the neighbourhood table.
    """

    def __init__(
        self,
        adjacency: Optional[Adjacency] = None,
        r: int = 2,
        max_mini_rounds: Optional[int] = None,
        local_solver: Optional[MWISSolver] = None,
        neighborhoods: Optional[NeighborhoodTable] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        if adjacency is None:
            if transport is None:
                raise ValueError(
                    "DistributedRobustPTAS needs an adjacency, a transport, or both"
                )
            adjacency = transport.adjacency
        if transport is not None and transport.num_vertices != len(adjacency):
            raise ValueError(
                f"transport connects {transport.num_vertices} vertices but the "
                f"adjacency has {len(adjacency)}"
            )
        if r < 1:
            raise ValueError(
                "r must be at least 1 for the protocol's knowledge horizons to "
                f"be consistent, got {r}"
            )
        if max_mini_rounds is not None and max_mini_rounds <= 0:
            raise ValueError(
                f"max_mini_rounds must be positive or None, got {max_mini_rounds}"
            )
        self._adjacency = adjacency
        self._num_vertices = len(adjacency)
        self._r = r
        self._max_mini_rounds = max_mini_rounds
        self._transport = transport
        if neighborhoods is None:
            neighborhoods = NeighborhoodTable(adjacency, protocol_radii(r))
        # Set-up builds the table (for its first user) and makes the balls
        # the engine reads for every vertex at every decision, so no
        # decision pays for them; a (3r + 2)-ball is made when its vertex
        # first broadcasts a determination as a leader.
        self._neighborhoods = neighborhoods.build()
        self._neighborhoods.make_sets((r, r + 1, 2 * r + 1))
        self._engine = ProtocolEngine(
            adjacency, r, self._neighborhoods, local_solver=local_solver
        )

    @property
    def r(self) -> int:
        """The PTAS radius."""
        return self._r

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the extended graph."""
        return self._num_vertices

    @property
    def transport(self) -> Optional[Transport]:
        """The externally-supplied transport (``None`` = simulated per run)."""
        return self._transport

    def transport_neighborhoods(self) -> Dict[int, Sequence[Set[int]]]:
        """The per-vertex ball views at every protocol radius, keyed by radius.

        Iterating a view makes every ball of its radius as a set.
        """
        return {
            hops: self._neighborhoods.balls(hops) for hops in protocol_radii(self._r)
        }

    # ------------------------------------------------------------------
    # Protocol execution
    # ------------------------------------------------------------------
    def run(
        self,
        weights: Sequence[float],
        broadcasting_vertices: Optional[Iterable[int]] = None,
        max_mini_rounds: Optional[int] = None,
    ) -> ProtocolResult:
        """Execute one strategy decision (one full round of Algorithm 3).

        Parameters
        ----------
        weights:
            Flat estimated-weight vector over the vertices of ``H`` (the
            output of the learning policy's index computation).
        broadcasting_vertices:
            Vertices that refresh their weight during the WB phase (the
            members of the previous strategy, per Algorithm 2 line 2-3).
            ``None`` means every vertex broadcasts, which is what happens in
            the very first round.
        max_mini_rounds:
            Optional per-call override of the mini-round budget ``D``.
        """
        if len(weights) != self._num_vertices:
            raise ValueError(
                f"weights has length {len(weights)} but the graph has "
                f"{self._num_vertices} vertices"
            )
        budget = max_mini_rounds if max_mini_rounds is not None else self._max_mini_rounds
        if budget is not None and budget <= 0:
            raise ValueError(f"max_mini_rounds must be positive, got {budget}")
        hard_limit = self._num_vertices if budget is None else min(budget, max(1, self._num_vertices))

        if self._transport is None:
            transport: Transport = SimulatedTransport(
                self._adjacency, neighborhoods=self._neighborhoods
            )
        else:
            transport = self._transport
            transport.reset()
        return self._engine.run(
            transport,
            weights,
            broadcasting_vertices=broadcasting_vertices,
            hard_limit=hard_limit,
        )
