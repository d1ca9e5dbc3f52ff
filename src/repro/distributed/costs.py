"""Cost accounting for the distributed protocol.

Section IV-C of the paper summarises the per-round complexity of the
distributed channel-access scheme:

* *Communication*: each vertex originates ``O(r^2 + D)`` messages per round
  and the control phases need ``O(r^2 + D r)`` mini-timeslots.
* *Computation*: each LocalLeader enumerates independent sets of its r-hop
  candidate set; the number of enumerations is bounded by
  ``(m e / (2r+1)^2)^{rho_r}`` (eq. (8)) where ``m`` is the number of master
  nodes in the neighbourhood and ``rho_r = M (2r+1)^2``.
* *Space*: each vertex stores the weights of its (2r+1)-hop neighbourhood,
  i.e. ``O(m)`` values.

These dataclasses collect the measured quantities so the complexity claims
can be checked experimentally (experiment E6 of DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = [
    "CommunicationCosts",
    "ComputationCosts",
    "RoundCosts",
    "theoretical_message_bound",
    "theoretical_space_bound",
]


@dataclass
class CommunicationCosts:
    """Measured communication cost of one strategy-decision round."""

    #: Broadcasts originated, indexed by vertex id.
    messages_per_vertex: List[int] = field(default_factory=list)
    #: Total (message, recipient) deliveries.
    total_deliveries: int = 0
    #: Mini-timeslots consumed per protocol phase ("WB", "LD", "LB").
    mini_timeslots_per_phase: Dict[str, int] = field(default_factory=dict)

    @property
    def total_messages(self) -> int:
        """Total broadcasts originated by all vertices."""
        return sum(self.messages_per_vertex)

    @property
    def max_messages_per_vertex(self) -> int:
        """Worst-case number of broadcasts originated by a single vertex."""
        return max(self.messages_per_vertex, default=0)

    @property
    def total_mini_timeslots(self) -> int:
        """Mini-timeslots consumed over all phases."""
        return sum(self.mini_timeslots_per_phase.values())


@dataclass
class ComputationCosts:
    """Measured computation cost of one strategy-decision round."""

    #: Number of local MWIS instances solved (one per elected LocalLeader).
    local_mwis_calls: int = 0
    #: Sizes of the candidate sets handed to the local solver.
    candidate_set_sizes: List[int] = field(default_factory=list)
    #: Number of mini-rounds executed.
    mini_rounds: int = 0

    @property
    def max_candidate_set_size(self) -> int:
        """Largest local instance solved in the round."""
        return max(self.candidate_set_sizes, default=0)


@dataclass
class RoundCosts:
    """Communication, computation and space cost of one round."""

    communication: CommunicationCosts = field(default_factory=CommunicationCosts)
    computation: ComputationCosts = field(default_factory=ComputationCosts)
    #: Per-vertex number of stored neighbour weights (space complexity O(m)).
    stored_weights_per_vertex: List[int] = field(default_factory=list)

    @property
    def max_stored_weights(self) -> int:
        """Worst-case per-vertex storage, in stored weight entries."""
        return max(self.stored_weights_per_vertex, default=0)


def theoretical_message_bound(r: int, mini_rounds: int) -> int:
    """Paper bound on broadcasts originated per vertex per round: O(r^2 + D).

    We return the explicit constant-free form ``(2r + 1)^2 + 2 * D`` — each
    vertex forwards at most ``(2r+1)^2`` weight announcements during WB and
    originates at most one declaration and one determination per mini-round.
    """
    if r < 0 or mini_rounds < 0:
        raise ValueError("r and mini_rounds must be non-negative")
    return (2 * r + 1) ** 2 + 2 * mini_rounds


def theoretical_space_bound(neighborhood_size: int) -> int:
    """Paper bound on per-vertex storage: O(m) weights for the (2r+1)-hop
    neighbourhood of size ``neighborhood_size``."""
    if neighborhood_size < 0:
        raise ValueError("neighborhood_size must be non-negative")
    return neighborhood_size

