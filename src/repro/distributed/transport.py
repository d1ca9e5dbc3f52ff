"""The ``Transport`` interface of the distributed protocol runtime.

:class:`~repro.distributed.runtime.VertexProtocol` state machines never touch
each other directly: every interaction goes through a :class:`Transport`,
which owns k-hop broadcast delivery and the communication cost counters the
paper's complexity analysis talks about (messages originated per vertex,
total deliveries, mini-timeslots per phase).  Two implementations ship:

* :class:`SimulatedTransport` -- the in-process oracle network; delivers
  instantly, in order, losslessly, and counts without queueing the frames
  a caller declares unread (:meth:`Transport.count_only`).
* :class:`~repro.distributed.runtime.AsyncioTransport` -- real asyncio
  streams between per-vertex tasks, with every message crossing a JSON wire
  boundary (:mod:`repro.distributed.serialize`) and configurable latency,
  reordering and seeded drops.

The equivalence contract: under a lossless, in-order configuration any
transport must yield a bit-identical :class:`~repro.distributed.runtime.
ProtocolResult` to the simulated one (see ``docs/transport.md``).  It holds
for finite weights: the asyncio wire refuses ``±inf`` and ``NaN``, so an
infinite weight raises :class:`~repro.distributed.serialize.WireError`
there while the simulated transport decides.
"""

from __future__ import annotations

import abc
import contextlib
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.distributed.messages import Message
from repro.graph.neighborhoods import NeighborhoodTable

__all__ = ["Transport", "SimulatedTransport"]


class Transport(abc.ABC):
    """Message substrate between the per-vertex protocol state machines.

    A transport connects a fixed vertex population (the extended conflict
    graph ``H``) and delivers k-hop broadcasts between them.  Delivery is
    *phase-buffered*: messages sent during a phase become visible to
    :meth:`collect` only after the sender side of the phase is over, which is
    exactly the synchronous mini-timeslot structure of Algorithm 3.

    The base class owns what every transport shares: the topology, the k-hop
    balls a broadcast reaches (read from a
    :class:`~repro.graph.neighborhoods.NeighborhoodTable`) and the cost
    accounting, so protocol results stay comparable across transports: one
    originated message per broadcast, one delivery per (message, recipient)
    pair and ``max(1, hop_limit)`` mini-timeslots per broadcast, with
    zero-hop broadcasts charging nothing.  It also keeps the delivery
    counters :meth:`telemetry_summary` reports (deliveries, drops,
    out-of-order arrivals, virtual latency and deliveries per message type),
    which subclasses bump as they deliver.

    Parameters
    ----------
    adjacency:
        Adjacency sets of the extended conflict graph ``H``.
    neighborhoods:
        The :class:`~repro.graph.neighborhoods.NeighborhoodTable` k-hop
        delivery reads.  The protocol passes its own, so balls are computed
        once per topology rather than once per round; a private table over
        ``adjacency`` (each hop limit computed on first use) when omitted.
    """

    def __init__(
        self,
        adjacency: Sequence[Set[int]],
        neighborhoods: Optional[NeighborhoodTable] = None,
    ) -> None:
        self._adjacency = adjacency
        self._num_vertices = len(adjacency)
        self._neighborhoods = (
            neighborhoods if neighborhoods is not None else NeighborhoodTable(adjacency)
        )
        self.reset_costs()

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices the transport connects."""
        return self._num_vertices

    @property
    def adjacency(self) -> Sequence[Set[int]]:
        """Adjacency sets of the graph the transport routes over."""
        return self._adjacency

    def _charge(self, message: Message, phase: str) -> bool:
        """Validate one broadcast and charge its message and mini-timeslots.

        Returns ``False`` for a zero-hop broadcast: it reaches nobody, so
        nothing is transmitted and nothing is charged.
        """
        sender = message.sender
        if not (0 <= sender < self._num_vertices):
            raise ValueError(
                f"sender {sender} out of range [0, {self._num_vertices})"
            )
        if message.hop_limit < 0:
            raise ValueError(f"hop_limit must be non-negative, got {message.hop_limit}")
        if message.hop_limit == 0:
            return False
        self._messages_sent[sender] += 1
        # A k-hop flood needs O(k) mini-timeslots to propagate.
        self._mini_timeslots[phase] += max(1, message.hop_limit)
        return True

    def _recipients(self, sender: int, hops: int) -> Set[int]:
        """Every vertex within ``hops`` of ``sender``, the sender excluded."""
        return self._neighborhoods.balls(hops)[sender] - {sender}

    # ------------------------------------------------------------------
    # Broadcast and delivery
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def broadcast(self, message: Message, phase: str) -> int:
        """Send ``message`` to every vertex within its hop limit.

        Returns the number of recipients (excluding the sender).  ``phase``
        labels the protocol phase (``"WB"``, ``"LD"`` or ``"LB"``) for the
        mini-timeslot accounting.
        """

    @abc.abstractmethod
    def collect(self, vertex: int) -> List[Message]:
        """Drain and return the inbox of ``vertex``."""

    @contextlib.contextmanager
    def count_only(self, message_types: Tuple[type, ...]) -> Iterator[None]:
        """Within the block, no recipient reads broadcasts of ``message_types``.

        A transport may then charge and count such a broadcast exactly as
        if it delivered it -- the same messages, deliveries, per-type counts
        and mini-timeslots -- without queueing a frame.  This base class
        ignores the hint and delivers in full.
        """
        yield

    @abc.abstractmethod
    def pending(self, vertex: int) -> int:
        """Number of undelivered messages waiting for ``vertex``."""

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def messages_sent(self, vertex: Optional[int] = None):
        """Messages originated by ``vertex`` (or the per-vertex list)."""
        if vertex is None:
            return list(self._messages_sent)
        return self._messages_sent[vertex]

    @property
    def total_messages_sent(self) -> int:
        """Total number of broadcasts originated by any vertex."""
        return sum(self._messages_sent)

    @property
    def total_deliveries(self) -> int:
        """Total number of (message, recipient) deliveries (drops excluded)."""
        return self._deliveries

    @property
    def total_dropped(self) -> int:
        """(message, recipient) pairs lost to the drop model (0 if lossless)."""
        return self._dropped

    def mini_timeslots(self, phase: Optional[str] = None) -> int:
        """Mini-timeslots consumed, optionally restricted to one phase."""
        if phase is not None:
            return self._mini_timeslots.get(phase, 0)
        return sum(self._mini_timeslots.values())

    def telemetry_summary(self) -> Dict[str, float]:
        """Flat numeric delivery summary (``net_*`` keys, float values).

        Every transport reports the same schema — ``net_deliveries``,
        ``net_dropped``, ``net_out_of_order``, ``net_latency_mean`` /
        ``net_latency_max`` (virtual latency over all deliveries) and one
        ``net_delivered_<Type>`` count per message type delivered, in type
        name order.  On the instant, lossless simulated transport drops,
        out-of-order arrivals and latency are structurally zero.  Records
        carry the summary only for lossy transport settings, so a lossless
        run's envelope never sees it.
        """
        deliveries = self._deliveries
        summary: Dict[str, float] = {
            "net_deliveries": float(deliveries),
            "net_dropped": float(self._dropped),
            "net_out_of_order": float(self._out_of_order),
            "net_latency_mean": (
                self._latency_total / deliveries if deliveries else 0.0
            ),
            "net_latency_max": self._latency_max,
        }
        for name in sorted(self._delivered_by_type):
            summary[f"net_delivered_{name}"] = float(self._delivered_by_type[name])
        return summary

    def reset_costs(self) -> None:
        """Zero all counters (inboxes and staged deliveries are kept)."""
        self._messages_sent: List[int] = [0] * self._num_vertices
        self._mini_timeslots: Dict[str, int] = defaultdict(int)
        self._deliveries = 0
        self._dropped = 0
        self._out_of_order = 0
        self._latency_total = 0.0
        self._latency_max = 0.0
        self._delivered_by_type: Dict[str, int] = defaultdict(int)

    @abc.abstractmethod
    def reset(self) -> None:
        """Discard all undelivered messages and zero all counters.

        Called between protocol runs that reuse one transport instance, so
        per-run cost reports never mix rounds.
        """

    # ------------------------------------------------------------------
    # Delivery guarantees and lifecycle
    # ------------------------------------------------------------------
    @property
    def is_lossless(self) -> bool:
        """Whether every broadcast reaches every in-range recipient.

        On a lossy transport a vertex that misses a Loser notification stays
        a Candidate, blocked for good, so an honest run may end unconverged.
        The runtime raises on a dependent honest winner set only when this
        is ``True``.
        """
        return True

    def close(self) -> None:
        """Release any resources held by the transport (idempotent)."""


class SimulatedTransport(Transport):
    """The in-process oracle network: synchronous k-hop broadcast delivery.

    The real system relays control messages hop by hop on a common control
    channel; this transport simulates the outcome of that relay: a k-hop
    broadcast from vertex ``v`` lands in the inbox of every vertex within
    ``k`` hops of ``v`` in ``H``, instantly, in order and losslessly.  It
    keeps the exact cost counters the paper's complexity analysis talks
    about (messages originated per vertex, total deliveries, and
    mini-timeslots per phase: ``O((2r+1)^2)`` for WB, ``O(2r+1)`` for LD and
    ``O(3r+1)`` for LB, Section IV-C), and is the reference behaviour every
    other transport is tested against.  Parameters as for
    :class:`Transport`.

    Inside :meth:`count_only` it queues no frame of the named types: it
    charges and counts their ``len(ball) - 1`` deliveries and appends
    nothing.  The honest protocol engine declares WB and LD unread, so an
    honest simulated run counts those deliveries without queueing them; its
    counters and telemetry are those of full delivery.
    """

    def __init__(
        self,
        adjacency: Sequence[Set[int]],
        neighborhoods: Optional[NeighborhoodTable] = None,
    ) -> None:
        super().__init__(adjacency, neighborhoods)
        self._inboxes: List[List[Message]] = [[] for _ in range(self._num_vertices)]
        #: Message types counted but not queued; set only inside count_only.
        self._unread: Tuple[type, ...] = ()

    @contextlib.contextmanager
    def count_only(self, message_types: Tuple[type, ...]) -> Iterator[None]:
        self._unread = tuple(message_types)
        try:
            yield
        finally:
            self._unread = ()

    def broadcast(self, message: Message, phase: str) -> int:
        """Deliver ``message`` to every vertex within its hop limit.

        Returns the number of recipients (excluding the sender).  ``phase``
        labels the protocol phase (``"WB"``, ``"LD"`` or ``"LB"``) for the
        mini-timeslot accounting.
        """
        if not self._charge(message, phase):
            return 0
        if isinstance(message, self._unread):
            ball = self._neighborhoods.balls(message.hop_limit)[message.sender]
            delivered = len(ball) - 1
        else:
            recipients = self._recipients(message.sender, message.hop_limit)
            for recipient in recipients:
                self._inboxes[recipient].append(message)
            delivered = len(recipients)
        if delivered:
            self._deliveries += delivered
            self._delivered_by_type[type(message).__name__] += delivered
        return delivered

    def collect(self, vertex: int) -> List[Message]:
        """Drain and return the inbox of ``vertex``."""
        if not (0 <= vertex < self._num_vertices):
            raise ValueError(f"vertex {vertex} out of range [0, {self._num_vertices})")
        inbox = self._inboxes[vertex]
        self._inboxes[vertex] = []
        return inbox

    def pending(self, vertex: int) -> int:
        """Number of undelivered messages waiting for ``vertex``."""
        return len(self._inboxes[vertex])

    def reset(self) -> None:
        """Discard all undelivered messages and zero all counters."""
        self._inboxes = [[] for _ in range(self._num_vertices)]
        self.reset_costs()
