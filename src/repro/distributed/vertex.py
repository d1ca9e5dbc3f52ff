"""Per-vertex protocol state for the distributed robust PTAS.

Algorithm 3 of the paper gives every virtual vertex one of four statuses:

* ``CANDIDATE`` -- not yet decided, still eligible to become a Winner;
* ``LOCAL_LEADER`` -- a Candidate that is the maximum-weight Candidate in its
  (2r+1)-hop neighbourhood for the current mini-round;
* ``WINNER`` -- included in the final independent set (will access a channel);
* ``LOSER`` -- permanently excluded.

Every vertex also maintains *local knowledge* of its (2r+1)-hop
neighbourhood -- the estimated weights, and the set of vertices not yet known
to be a Winner or Loser -- primed with the newest weights when a strategy
decision starts, then updated only through received control messages.
Keeping the knowledge local (instead of reading global state) is what makes
the simulation faithful to a distributed implementation.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Sequence, Set

__all__ = ["VertexStatus", "VertexAgent"]


class VertexStatus(enum.Enum):
    """Status of a virtual vertex during Algorithm 3."""

    CANDIDATE = "candidate"
    LOCAL_LEADER = "local_leader"
    WINNER = "winner"
    LOSER = "loser"

    @property
    def is_decided(self) -> bool:
        """``True`` for terminal statuses (Winner or Loser)."""
        return self in (VertexStatus.WINNER, VertexStatus.LOSER)


class _Unprimed:
    """The weights of an agent that was never primed: 0.0 for every vertex."""

    def __getitem__(self, vertex: int) -> float:
        return 0.0


class VertexAgent:
    """Protocol state machine of a single virtual vertex.

    Parameters
    ----------
    vertex:
        The vertex id in the extended conflict graph ``H``.
    neighborhood_2r1:
        The (2r+1)-hop neighbourhood of the vertex (its knowledge horizon for
        LocalLeader election).
    neighborhood_r:
        The r-hop neighbourhood (the set a LocalLeader computes its local
        MWIS over).  Both sets are kept by reference and never mutated.
    """

    def __init__(
        self,
        vertex: int,
        neighborhood_2r1: Set[int],
        neighborhood_r: Set[int],
    ) -> None:
        self.vertex = vertex
        self.neighborhood_2r1 = neighborhood_2r1
        self.neighborhood_r = neighborhood_r
        if vertex not in neighborhood_2r1 or vertex not in neighborhood_r:
            raise ValueError("neighbourhoods must contain the vertex itself")
        self.status = VertexStatus.CANDIDATE
        #: The decision's weights by vertex id, shared by all vertices, never mutated.
        self.primed: Sequence[float] = _Unprimed()
        #: Horizon announcements heard since :meth:`prime` that differ from it.
        self.heard: Dict[int, float] = {}
        #: The (2r+1)-hop neighbourhood minus self, minus every vertex known
        #: to be a Winner or Loser.  Terminal statuses are never re-added.
        self.undecided: Set[int] = neighborhood_2r1 - {vertex}

    # ------------------------------------------------------------------
    # Knowledge updates (primed, then driven by received messages)
    # ------------------------------------------------------------------
    def prime(self, weights: Sequence[float]) -> None:
        """Know ``weights`` (by vertex id, kept by reference) before any announcement."""
        self.primed = weights

    def observe_weight(self, vertex: int, weight: float) -> None:
        """Record a weight announcement for a vertex in the knowledge horizon.

        Announcements from outside the (2r+1)-hop neighbourhood are ignored,
        mirroring the fact that such messages would never reach this vertex
        in the real protocol.
        """
        if vertex in self.neighborhood_2r1:
            weight = float(weight)
            if weight == self.primed[vertex]:
                self.heard.pop(vertex, None)
            else:
                self.heard[vertex] = weight

    def mark(self, status: VertexStatus) -> None:
        """Set this vertex's own status."""
        if self.status.is_decided and status != self.status:
            raise ValueError(
                f"vertex {self.vertex} already decided as {self.status.value}; "
                f"cannot re-mark as {status.value}"
            )
        self.status = status

    # ------------------------------------------------------------------
    # Queries used by Algorithm 3
    # ------------------------------------------------------------------
    def known_weight(self, vertex: int, default: Optional[float] = None) -> Optional[float]:
        """The last weight known for ``vertex``; ``default`` outside the horizon."""
        if vertex not in self.neighborhood_2r1:
            return default
        return self.heard.get(vertex, self.primed[vertex])

    def own_weight(self) -> float:
        """The weight this vertex currently announces for itself."""
        return self.heard.get(self.vertex, self.primed[self.vertex])

    def candidate_set_r(self, exclude: Optional[Set[int]] = None) -> Set[int]:
        """``A_r(v)``: Candidate vertices (including self) in the r-hop
        neighbourhood, according to local knowledge.

        ``exclude`` removes vertices (other than self) from the set, used by
        fault-mitigation runs so excluded senders never receive Winner slots.
        """
        candidates = self.neighborhood_r & self.undecided
        if exclude:
            candidates -= exclude
        candidates.add(self.vertex)
        return candidates

    def is_local_maximum(self, exclude: Optional[Set[int]] = None) -> bool:
        """Line 3 of Algorithm 3: is this vertex the maximum-weight Candidate
        of its (2r+1)-hop neighbourhood?

        Ties are broken by vertex id (smaller id wins) so that the election is
        a strict total order even with equal weights — without this, two
        adjacent equal-weight vertices could both become leaders and the
        output could lose independence.  ``exclude`` names vertices the
        election ignores (fault-mitigation runs pass the suspected and
        evidence-excluded ones).  Stops at the first heavier Candidate.
        """
        if self.status != VertexStatus.CANDIDATE:
            return False
        heard = self.heard
        primed = self.primed
        own = (self.own_weight(), -self.vertex)
        for other in self.undecided:
            if (heard.get(other, primed[other]), -other) > own and (
                not exclude or other not in exclude
            ):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"VertexAgent(vertex={self.vertex}, status={self.status.value})"
