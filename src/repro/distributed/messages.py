"""Control-channel messages of the distributed protocol.

The paper assumes a common control channel for control message passing during
strategy decision (Section IV).  Three message types are exchanged per round
(Fig. 2):

* ``WB`` -- weight broadcast: vertices that transmitted in the previous round
  announce their updated estimated weight within ``(2r + 1)`` hops.
* ``LD`` -- LocalLeader declaration: a Candidate that is locally maximum
  declares itself within ``(2r + 1)`` hops.
* ``LB`` -- local broadcast of status determinations: the LocalLeader
  announces Winner / Loser decisions for its r-hop candidates (and the
  Winners' direct neighbours) within ``(3r + 2)`` hops.

A fourth message type exists only in fault-mitigation runs
(:mod:`repro.faults`): ``Accusation`` lets an honest vertex that caught a
neighbour sending inconsistent claims spread the evidence within ``(2r + 1)``
hops, so a DLS-style quorum of accusers can exclude the sender everywhere.

Each message carries its hop budget so the message network can both deliver
it to the right recipients and account mini-timeslots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "Message",
    "WeightBroadcast",
    "LeaderDeclaration",
    "StatusDetermination",
    "Accusation",
]


@dataclass(frozen=True)
class Message:
    """Base class of all control messages.

    ``sender`` is a vertex id of the extended conflict graph ``H`` and
    ``hop_limit`` the broadcast radius in hops of ``H``.
    """

    sender: int
    hop_limit: int


@dataclass(frozen=True)
class WeightBroadcast(Message):
    """A vertex announces its freshly updated estimated weight (WB phase)."""

    weight: float = 0.0


@dataclass(frozen=True)
class LeaderDeclaration(Message):
    """A Candidate declares itself LocalLeader for this mini-round (LD phase)."""

    weight: float = 0.0
    mini_round: int = 0


@dataclass(frozen=True)
class StatusDetermination(Message):
    """A LocalLeader announces Winner / Loser decisions (LB phase).

    ``decisions`` maps vertex ids of ``A_r(leader)`` to ``True`` (Winner) or
    ``False`` (Loser).  The leader itself appears in the map as well.
    """

    decisions: Mapping[int, bool] = field(default_factory=dict)
    mini_round: int = 0


@dataclass(frozen=True)
class Accusation(Message):
    """An honest vertex reports evidence against an inconsistent sender.

    Only emitted in fault-mitigation runs (:mod:`repro.faults`).  ``accused``
    names the vertex that sent a claim contradicting the accuser's local
    knowledge; ``reason`` is a short machine-readable evidence tag (e.g.
    ``"weight-mismatch"``, ``"dependent-winners"``, ``"not-leader"``).
    A receiver excludes the accused once a quorum of distinct accusers is
    reached.
    """

    accused: int = 0
    reason: str = ""
    mini_round: int = 0
