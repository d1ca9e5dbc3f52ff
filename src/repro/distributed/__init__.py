"""Distributed protocol substrate.

Implements the distributed strategy-decision machinery of the paper:

* :mod:`repro.distributed.messages` -- control messages exchanged on the
  common control channel (weight broadcast, LocalLeader declaration, status
  determination).
* :mod:`repro.distributed.transport` -- the :class:`Transport` interface all
  protocol messages travel through, plus :class:`SimulatedTransport`, the
  synchronous oracle network with k-hop broadcast and per-vertex cost
  accounting.
* :mod:`repro.distributed.serialize` -- the versioned JSON wire codec for
  control messages.
* :mod:`repro.distributed.runtime` -- the message-driven
  :class:`VertexProtocol` state machine (statuses Candidate / LocalLeader /
  Winner / Loser and local knowledge), the :class:`ProtocolEngine` driver
  and the real :class:`AsyncioTransport`.
* :mod:`repro.distributed.ptas` -- the distributed robust PTAS (Algorithm 3).
* :mod:`repro.distributed.framework` -- the per-round strategy decision
  wrapper used by Algorithm 2, exposing the :class:`repro.mwis.MWISSolver`
  interface so learning policies can plug it in transparently.
* :mod:`repro.distributed.costs` -- communication / computation / space cost
  accounting and the paper's theoretical bounds.
"""

from repro.distributed.messages import (
    Accusation,
    Message,
    WeightBroadcast,
    LeaderDeclaration,
    StatusDetermination,
)
from repro.distributed.transport import Transport, SimulatedTransport
from repro.distributed.serialize import (
    WIRE_SCHEMA,
    WireError,
    decode_message,
    encode_message,
    frame_to_message,
    message_to_frame,
)
from repro.distributed.runtime import (
    AsyncioTransport,
    ProtocolEngine,
    VertexProtocol,
    VertexStatus,
)
from repro.distributed.ptas import (
    DistributedRobustPTAS,
    MiniRoundRecord,
    ProtocolResult,
)
from repro.distributed.framework import DistributedMWISSolver
from repro.distributed.costs import (
    CommunicationCosts,
    ComputationCosts,
    RoundCosts,
    theoretical_message_bound,
    theoretical_space_bound,
)

__all__ = [
    "Message",
    "Accusation",
    "WeightBroadcast",
    "LeaderDeclaration",
    "StatusDetermination",
    "Transport",
    "SimulatedTransport",
    "AsyncioTransport",
    "WIRE_SCHEMA",
    "WireError",
    "encode_message",
    "decode_message",
    "message_to_frame",
    "frame_to_message",
    "VertexStatus",
    "VertexProtocol",
    "ProtocolEngine",
    "DistributedRobustPTAS",
    "MiniRoundRecord",
    "ProtocolResult",
    "DistributedMWISSolver",
    "CommunicationCosts",
    "ComputationCosts",
    "RoundCosts",
    "theoretical_message_bound",
    "theoretical_space_bound",
]
