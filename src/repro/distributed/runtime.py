"""Message-driven runtime of the distributed robust PTAS (Algorithm 3).

This module splits the protocol into the two halves a real deployment has:

* :class:`VertexProtocol` -- the per-vertex state machine.  It holds the
  vertex's :class:`VertexStatus` and its local knowledge of the (2r+1)-hop
  horizon, and advances through the phases of a mini-round -- LocalLeader
  selection/declaration (LS/LD), local MWIS (LMWIS), local broadcast of
  determinations (LB) -- emitting and consuming only the typed messages of
  :mod:`repro.distributed.messages` through a
  :class:`~repro.distributed.transport.Transport`.  It never reads another
  vertex's state.
* :class:`ProtocolEngine` -- the synchronous driver: it clocks the phase
  barriers (every vertex finishes a phase before anyone collects), keeps the
  mini-round records and cost accounting, and assembles the
  :class:`ProtocolResult`.

:class:`AsyncioTransport` is the "real network" counterpart of the oracle
:class:`~repro.distributed.transport.SimulatedTransport`: every vertex gets its
own asyncio mailbox task, frames travel as newline-delimited JSON
(:mod:`repro.distributed.serialize`) over in-memory asyncio streams, and the
router supports configurable latency distributions, reordering and seeded
drops.  Latency is *virtual* (it permutes delivery order, it does not sleep
wall-clock time), so large protocol runs stay fast.  Under the lossless
in-order default the results are bit-identical to the simulated transport —
the equivalence contract the transport tests pin down.
"""

from __future__ import annotations

import asyncio
import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.distributed.costs import CommunicationCosts, ComputationCosts, RoundCosts
from repro.distributed.messages import (
    LeaderDeclaration,
    Message,
    StatusDetermination,
    WeightBroadcast,
)
from repro.distributed.serialize import decode_message, encode_message
from repro.distributed.transport import Transport
from repro.graph.neighborhoods import NeighborhoodTable
from repro.mwis.base import Adjacency, IndependentSet, MWISSolver, is_independent
from repro.mwis.local import solve_local_mwis
from repro.obs import current_observer

__all__ = [
    "VertexStatus",
    "MiniRoundRecord",
    "ProtocolResult",
    "VertexProtocol",
    "ProtocolEngine",
    "AsyncioTransport",
    "LATENCY_KINDS",
]

#: Latency distributions :class:`AsyncioTransport` can impose on deliveries.
LATENCY_KINDS = ("none", "uniform", "exponential")


class VertexStatus(enum.Enum):
    """Status of a virtual vertex during Algorithm 3.

    * ``CANDIDATE`` -- not yet decided, still eligible to become a Winner;
    * ``LOCAL_LEADER`` -- a Candidate that is the maximum-weight Candidate in
      its (2r+1)-hop neighbourhood for the current mini-round;
    * ``WINNER`` -- included in the final independent set (will access a
      channel);
    * ``LOSER`` -- permanently excluded.
    """

    CANDIDATE = "candidate"
    LOCAL_LEADER = "local_leader"
    WINNER = "winner"
    LOSER = "loser"

    @property
    def is_decided(self) -> bool:
        """``True`` for terminal statuses (Winner or Loser)."""
        return self in (VertexStatus.WINNER, VertexStatus.LOSER)


@dataclass(frozen=True)
class MiniRoundRecord:
    """What happened during one mini-round of Algorithm 3."""

    index: int
    leaders: FrozenSet[int]
    new_winners: FrozenSet[int]
    new_losers: FrozenSet[int]
    cumulative_weight: float
    remaining_candidates: int


@dataclass
class ProtocolResult:
    """Outcome of one full execution of the distributed robust PTAS."""

    independent_set: IndependentSet
    mini_rounds: List[MiniRoundRecord] = field(default_factory=list)
    costs: RoundCosts = field(default_factory=RoundCosts)
    #: ``True`` when every vertex was marked before the mini-round budget ran out.
    converged: bool = True
    #: ``False`` when two winners are adjacent, which only a fault run can
    #: cause.  An honest run's winners stay independent on a lossy transport
    #: too: a vertex that misses a Loser notification is blocked for good by
    #: the heavier leader it never heard decide.
    independent: bool = True

    @property
    def num_mini_rounds(self) -> int:
        """Number of executed mini-rounds."""
        return len(self.mini_rounds)

    def weight_trajectory(self) -> List[float]:
        """Cumulative Winner weight after each mini-round (the Fig. 6 series)."""
        return [record.cumulative_weight for record in self.mini_rounds]


class _DictWeights:
    """Sparse weight vector backed by a dict (0.0 outside the dict).

    ``solve_local_mwis`` indexes weights by global vertex id; building a full
    dense list per leader would be wasteful, so this adapter provides the
    minimal sequence protocol the solver needs.
    """

    def __init__(self, values: Dict[int, float], length: int) -> None:
        self._values = values
        self._length = length

    def __getitem__(self, vertex: int) -> float:
        return self._values.get(vertex, 0.0)

    def __len__(self) -> int:
        return self._length


class _Unprimed:
    """The weights of a vertex that was never primed: 0.0 for every vertex."""

    def __getitem__(self, vertex: int) -> float:
        return 0.0


class VertexProtocol:
    """The per-vertex state machine of Algorithm 3.

    Each phase method either broadcasts a typed message through the transport
    and returns it, or returns ``None`` when the vertex has nothing to say in
    that phase; :meth:`receive` folds delivered messages into local
    knowledge.  All graph structure the vertex uses (its r / r+1 / 2r+1-hop
    neighbourhoods and the adjacency needed for the local MWIS) corresponds
    to what a deployed node would discover once during neighbourhood setup.

    The local knowledge covers the (2r+1)-hop neighbourhood: the estimated
    weights (primed with the newest weights when a strategy decision starts,
    then updated only through received announcements) and which vertices
    are known to be a Winner or Loser (:attr:`decided`).  Keeping the
    knowledge local, instead of reading global state, is what makes the
    simulation faithful to a distributed implementation.

    Parameters
    ----------
    vertex:
        The vertex id in the extended conflict graph ``H``.
    transport:
        The :class:`~repro.distributed.transport.Transport` all outgoing
        messages are broadcast through.
    r:
        The PTAS radius.
    adjacency:
        Adjacency sets of ``H`` (read-only; used for the local MWIS and the
        Winner-neighbour Loser rule).
    hood_r, hood_r1, hood_2r1:
        This vertex's r-, (r+1)- and (2r+1)-hop neighbourhoods: the set a
        LocalLeader computes its local MWIS over, the reach of the
        Winner-neighbour Loser rule and the knowledge horizon of the
        LocalLeader election.  All are kept by reference and never mutated.
    local_solver:
        Solver for the local MWIS instances; ``None`` means exact enumeration.
    decided:
        A set of decided vertices shared with every other vertex of the
        run, kept by its owner (the engine of an honest run whose transport
        counts determinations unread: every vertex would have heard the
        same decisions within its horizon, so one set serves all).  The
        vertex only reads it.  ``None`` (the default) gives the vertex a
        private set that starts empty and that it keeps itself, from its
        own determinations and the ones it receives.
    """

    def __init__(
        self,
        vertex: int,
        transport: Transport,
        r: int,
        adjacency: Adjacency,
        hood_r: Set[int],
        hood_r1: Set[int],
        hood_2r1: Set[int],
        local_solver: Optional[MWISSolver] = None,
        decided: Optional[Set[int]] = None,
    ) -> None:
        if vertex not in hood_2r1 or vertex not in hood_r:
            raise ValueError("neighbourhoods must contain the vertex itself")
        self.vertex = vertex
        self.neighborhood_r = hood_r
        self.neighborhood_2r1 = hood_2r1
        self.status = VertexStatus.CANDIDATE
        #: The decision's weights by vertex id, shared by all vertices, never mutated.
        self.primed: Sequence[float] = _Unprimed()
        #: Horizon announcements heard since :meth:`prime` that differ from it.
        self.heard: Dict[int, float] = {}
        #: Vertices known to be a Winner or Loser; it only grows.  It may hold
        #: vertices outside the horizon, which no query reads.
        self.decided: Set[int] = set() if decided is None else decided
        self._keeps_decided = decided is None
        #: The last vertex that beat this one in the election: checked
        #: first, because it usually still does.
        self._blocker: Optional[int] = None
        self._transport = transport
        self._r = r
        self._adjacency = adjacency
        self._hood_r1 = hood_r1
        self._local_solver = local_solver
        #: ``|A_r(v)|`` of the most recent :meth:`determine_statuses` call
        #: (computation-cost accounting).
        self.last_candidate_set_size = 0

    # ------------------------------------------------------------------
    # Local knowledge
    # ------------------------------------------------------------------
    def prime(self, weights: Sequence[float]) -> None:
        """Seed the (2r+1)-hop weight knowledge Algorithm 3 starts from.

        The paper's invariant is that every vertex "has collected newest
        weights of all (2r+1)-hop neighbours" before a strategy decision;
        the WB phase then re-announces (and charges for) refreshed entries.
        ``weights`` is the decision's weight vector, indexed by vertex id;
        every vertex keeps a reference to the same vector (it reads only its
        horizon's entries), so the caller must not mutate it.
        """
        self.primed = weights
        self._blocker = None

    def observe_weight(self, vertex: int, weight: float) -> None:
        """Record a weight announcement for a vertex in the knowledge horizon.

        Announcements from outside the (2r+1)-hop neighbourhood are ignored,
        mirroring the fact that such messages would never reach this vertex
        in the real protocol.
        """
        if vertex in self.neighborhood_2r1:
            self._blocker = None
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

    def known_weight(self, vertex: int, default: Optional[float] = None) -> Optional[float]:
        """The last weight known for ``vertex``; ``default`` outside the horizon."""
        if vertex not in self.neighborhood_2r1:
            return default
        return self.heard.get(vertex, self.primed[vertex])

    def own_weight(self) -> float:
        """The weight this vertex currently announces for itself."""
        return self.heard.get(self.vertex, self.primed[self.vertex])

    @property
    def undecided(self) -> Set[int]:
        """The (2r+1)-hop neighbourhood minus self and every vertex known
        to be decided (a fresh set)."""
        return self.neighborhood_2r1.difference(self.decided, (self.vertex,))

    def candidate_set_r(self, exclude: Optional[Set[int]] = None) -> Set[int]:
        """``A_r(v)``: Candidate vertices (including self) in the r-hop
        neighbourhood, according to local knowledge.

        ``exclude`` removes vertices (other than self) from the set, used by
        fault-mitigation runs so excluded senders never receive Winner slots.
        """
        candidates = self.neighborhood_r - self.decided
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
        evidence-excluded ones).  Scans the horizon, skipping decided
        vertices, and stops at the first heavier Candidate; the last one
        found is checked first.
        """
        if self.status != VertexStatus.CANDIDATE:
            return False
        heard = self.heard
        primed = self.primed
        decided = self.decided
        own = (self.own_weight(), -self.vertex)
        blocker = self._blocker
        if (
            blocker is not None
            and blocker not in decided
            and (heard.get(blocker, primed[blocker]), -blocker) > own
            and (not exclude or blocker not in exclude)
        ):
            return False
        # The vertex itself never beats its own key, so it needs no skip.
        for other in self.neighborhood_2r1:
            if (
                other not in decided
                and (heard.get(other, primed[other]), -other) > own
                and (not exclude or other not in exclude)
            ):
                self._blocker = other
                return False
        return True

    # ------------------------------------------------------------------
    # WB phase
    # ------------------------------------------------------------------
    def announce_weight(self) -> WeightBroadcast:
        """WB phase: broadcast this vertex's current weight within 2r+1 hops."""
        message = WeightBroadcast(
            sender=self.vertex,
            hop_limit=2 * self._r + 1,
            weight=self.own_weight(),
        )
        self._transport.broadcast(message, phase="WB")
        return message

    # ------------------------------------------------------------------
    # Mini-round phases
    # ------------------------------------------------------------------
    def begin_mini_round(self, mini_round: int) -> Optional[LeaderDeclaration]:
        """LS + LD: declare LocalLeader when locally maximum among Candidates."""
        if self.status != VertexStatus.CANDIDATE:
            return None
        if not self.is_local_maximum(exclude=self._election_exclusions()):
            return None
        self.mark(VertexStatus.LOCAL_LEADER)
        message = LeaderDeclaration(
            sender=self.vertex,
            hop_limit=2 * self._r + 1,
            weight=self.own_weight(),
            mini_round=mini_round,
        )
        self._transport.broadcast(message, phase="LD")
        return message

    def determine_statuses(self, mini_round: int) -> Optional[StatusDetermination]:
        """LMWIS + LB: as a LocalLeader, decide the r-hop candidate set.

        Solves MWIS over ``A_r(v)``; the members become Winners and the
        remaining candidates of ``A_r(v)`` *plus every still-Candidate
        neighbour of a new Winner* become Losers (the distributed counterpart
        of the centralized PTAS deleting "the MWIS and all adjacent
        vertices", which keeps Winners of different mini-rounds mutually
        independent).  The decisions are broadcast within 3r+2 hops and
        applied to this vertex's own state immediately (the leader does not
        hear its own broadcast).
        """
        if self.status != VertexStatus.LOCAL_LEADER:
            return None
        candidate_set = self.candidate_set_r(exclude=self._election_exclusions())
        winners = self._choose_winners(candidate_set)
        winner_neighbors: Set[int] = set()
        for winner in winners:
            winner_neighbors |= self._adjacency[winner]
        removal = candidate_set | ((winner_neighbors & self._hood_r1) - self.decided)
        losers = removal - winners
        self.last_candidate_set_size = len(candidate_set)
        decisions: Dict[int, bool] = {vertex: True for vertex in winners}
        decisions.update({vertex: False for vertex in losers})
        message = StatusDetermination(
            sender=self.vertex,
            hop_limit=3 * self._r + 2,
            decisions=decisions,
            mini_round=mini_round,
        )
        self._transport.broadcast(message, phase="LB")
        self.mark(
            VertexStatus.WINNER if decisions[self.vertex] else VertexStatus.LOSER
        )
        if self._keeps_decided:
            self.decided.update(decisions)
        return message

    def _election_exclusions(self) -> Optional[Set[int]]:
        """Vertices the election and ``A_r(v)`` ignore (none when honest)."""
        return None

    def _choose_winners(self, candidate_set: Set[int]) -> Set[int]:
        """LMWIS: the Winners this LocalLeader picks from ``A_r(v)``."""
        local_weights = {
            vertex: self.known_weight(vertex, 0.0) for vertex in candidate_set
        }
        solution = solve_local_mwis(
            self._adjacency,
            _DictWeights(local_weights, len(self._adjacency)),
            candidate_set,
            solver=self._local_solver,
        )
        winners = set(solution.vertices)
        if not winners:
            # All candidate weights were non-positive (e.g. the all-zero
            # first round); the leader itself is a valid singleton IS.
            winners = {self.vertex}
        return winners

    # ------------------------------------------------------------------
    # Message delivery
    # ------------------------------------------------------------------
    def receive(self, message: Message) -> None:
        """Fold one delivered message into local knowledge.

        Status determinations naming this vertex also mark it (unless it is
        already decided — possible only when a lossy transport let a leader
        act on stale knowledge; terminal statuses are never overwritten), and
        every vertex they name joins a private :attr:`decided` set.
        Leader declarations need no handler: elections are decided from the
        weight knowledge, the declaration itself is informational.
        """
        if isinstance(message, StatusDetermination):
            decisions = message.decisions
            if self.vertex in decisions and not self.status.is_decided:
                self.mark(
                    VertexStatus.WINNER
                    if decisions[self.vertex]
                    else VertexStatus.LOSER
                )
            if self._keeps_decided:
                self.decided.update(decisions)
        elif isinstance(message, WeightBroadcast):
            self.observe_weight(message.sender, message.weight)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"VertexProtocol(vertex={self.vertex}, status={self.status.value})"


class ProtocolEngine:
    """Synchronous driver clocking :class:`VertexProtocol` machines.

    The engine owns nothing protocol-specific beyond the phase barriers: it
    asks every vertex to act, lets the transport deliver, and records what
    the broadcast decisions said.  All state transitions happen inside the
    vertex machines.

    An honest run skips what no vertex needs delivered.  It declares WB, LD
    and LB broadcasts unread (:meth:`Transport.count_only`): an honest WB
    repeats the primed weight every recipient holds, LD is informational,
    and an LB tells each recipient only which vertices of its horizon are
    decided, which the engine can keep for all of them at once.  On a
    transport that counts all three (``SimulatedTransport``) every vertex
    reads one engine-owned ``decided`` set; at each LB barrier the engine
    adds the mini-round's determinations to it, marks each named vertex
    itself (the first determination naming a vertex wins, as in
    :meth:`VertexProtocol.receive`) and skips delivery.  Elsewhere the
    barrier delivers in full, except that a Winner's or Loser's inbox is
    drained unread.  Each mini-round walks only the Candidates left.
    Counters and telemetry are those of full delivery.

    It is the only driver: fault-injection runs go through it too, by
    passing a fault participant to :meth:`run` (duck-typed, so this module
    never imports :mod:`repro.faults`).  The participant supplies the six
    ways a fault run differs from an honest one:

    * ``make_vertex(...)`` -- the vertex factory (same arguments as
      :class:`VertexProtocol`);
    * ``enter_phase(mini_round, phase)`` -- the fault clock, set at every
      WB / LD / LB boundary;
    * ``after_barrier(mini_round, deliver)`` -- work after every delivery
      barrier (the QR accusation phase and its own ``deliver()`` call);
    * ``has_live_candidates()`` -- the termination predicate;
    * ``mini_round_budget(num_vertices)`` and ``phases`` -- the default
      mini-round budget and the phases whose mini-timeslots are reported;
    * a dependent winner set on a lossless transport is data, not a bug.

    Parameters mirror :class:`~repro.distributed.ptas.DistributedRobustPTAS`
    (which delegates here); ``neighborhoods`` is the topology's shared
    :class:`~repro.graph.neighborhoods.NeighborhoodTable`, read afresh at
    every run so in-place dynamic updates are seen.
    """

    def __init__(
        self,
        adjacency: Adjacency,
        r: int,
        neighborhoods: NeighborhoodTable,
        local_solver: Optional[MWISSolver] = None,
    ) -> None:
        self._adjacency = adjacency
        self._num_vertices = len(adjacency)
        self._r = r
        self._neighborhoods = neighborhoods
        self._local_solver = local_solver

    def run(
        self,
        transport: Transport,
        weights: Sequence[float],
        broadcasting_vertices: Optional[Iterable[int]] = None,
        hard_limit: Optional[int] = None,
        *,
        faults=None,
    ) -> ProtocolResult:
        """Execute one full strategy decision over ``transport``.

        ``faults`` is the fault participant of a fault-injection run (see
        the class docstring); ``None`` runs the honest protocol.
        """
        if transport.num_vertices != self._num_vertices:
            raise ValueError(
                f"transport connects {transport.num_vertices} vertices but the "
                f"graph has {self._num_vertices}"
            )
        if hard_limit is None:
            hard_limit = (
                self._num_vertices
                if faults is None
                else faults.mini_round_budget(self._num_vertices)
            )
        obs = current_observer()
        messages_before = transport.total_messages_sent
        deliveries_before = transport.total_deliveries
        dropped_before = transport.total_dropped
        unread = (
            (WeightBroadcast, LeaderDeclaration, StatusDetermination)
            if faults is None
            else ()
        )
        with transport.count_only(unread) as counted, obs.span(
            "protocol.run", num_vertices=self._num_vertices, r=self._r
        ) as run_span:
            # When no frame is queued, the engine keeps what LB would tell.
            decided = set() if unread and set(unread) <= set(counted) else None
            result = self._execute(
                transport, weights, broadcasting_vertices, hard_limit, obs, faults,
                decided,
            )
            run_span.set_attrs(
                mini_rounds=result.num_mini_rounds, converged=result.converged
            )
        obs.count("net.messages", transport.total_messages_sent - messages_before)
        obs.count("net.deliveries", transport.total_deliveries - deliveries_before)
        dropped = transport.total_dropped - dropped_before
        if dropped:
            obs.count("net.dropped", dropped)
        return result

    def _execute(
        self,
        transport: Transport,
        weights: Sequence[float],
        broadcasting_vertices: Optional[Iterable[int]],
        hard_limit: int,
        obs,
        faults,
        decided: Optional[Set[int]],
    ) -> ProtocolResult:
        """One decision; ``decided`` is the shared set the engine keeps in
        place of delivery, ``None`` when the transport delivers."""
        make_vertex = VertexProtocol if faults is None else faults.make_vertex
        r = self._r
        hood_r = self._neighborhoods.balls(r)
        hood_r1 = self._neighborhoods.balls(r + 1)
        hood_2r1 = self._neighborhoods.balls(2 * r + 1)
        vertices = [
            make_vertex(
                vertex,
                transport,
                r,
                self._adjacency,
                hood_r=hood_r[vertex],
                hood_r1=hood_r1[vertex],
                hood_2r1=hood_2r1[vertex],
                local_solver=self._local_solver,
                decided=decided,
            )
            for vertex in range(self._num_vertices)
        ]
        values = [float(weight) for weight in weights]
        for vertex in vertices:
            vertex.prime(values)

        def deliver() -> None:
            """Phase barrier: drain every inbox into its vertex machine.

            An honest Winner or Loser never reads its knowledge again, so
            its inbox is drained unread.
            """
            for vertex in vertices:
                inbox = transport.collect(vertex.vertex)
                if faults is None and vertex.status.is_decided:
                    continue
                for message in inbox:
                    vertex.receive(message)

        # WB phase: the previous round's strategy members announce weights.
        if broadcasting_vertices is None:
            broadcasters: Iterable[int] = range(self._num_vertices)
        else:
            broadcasters = sorted(set(broadcasting_vertices))
        with obs.span("protocol.phase", phase="WB"):
            if faults is not None:
                faults.enter_phase(0, "WB")
            for sender in broadcasters:
                if not (0 <= sender < self._num_vertices):
                    raise ValueError(
                        f"broadcasting vertex {sender} out of range "
                        f"[0, {self._num_vertices})"
                    )
                vertices[sender].announce_weight()
            if decided is None:
                deliver()
        if faults is not None:
            faults.after_barrier(0, deliver)

        records: List[MiniRoundRecord] = []
        winners: Set[int] = set()
        cumulative_weight = 0.0
        computation = ComputationCosts()

        # The Candidates, in vertex order; only they can lead or be counted.
        live = [vertex for vertex in vertices if vertex.status == VertexStatus.CANDIDATE]
        for mini_round in range(1, hard_limit + 1):
            running = bool(live) if faults is None else faults.has_live_candidates()
            if not running:
                break
            with obs.span("protocol.mini_round", mini_round=mini_round) as round_span:
                with obs.span("protocol.phase", phase="LD"):
                    if faults is not None:
                        faults.enter_phase(mini_round, "LD")
                    leaders = [
                        vertex.vertex
                        for vertex in live
                        if vertex.begin_mini_round(mini_round) is not None
                    ]
                new_winners: Set[int] = set()
                new_losers: Set[int] = set()
                with obs.span("protocol.phase", phase="LB"):
                    if faults is not None:
                        faults.enter_phase(mini_round, "LB")
                    determinations = []
                    for leader in leaders:
                        determination = vertices[leader].determine_statuses(mini_round)
                        if determination is None:
                            continue  # a faulty leader crashed between LD and LB
                        determinations.append(determination.decisions)
                        computation.local_mwis_calls += 1
                        computation.candidate_set_sizes.append(
                            vertices[leader].last_candidate_set_size
                        )
                        for vertex, is_winner in determination.decisions.items():
                            (new_winners if is_winner else new_losers).add(vertex)
                    if decided is None:
                        deliver()
                    else:
                        for decisions in determinations:
                            for vertex, is_winner in decisions.items():
                                machine = vertices[vertex]
                                if not machine.status.is_decided:
                                    machine.mark(
                                        VertexStatus.WINNER
                                        if is_winner
                                        else VertexStatus.LOSER
                                    )
                            decided.update(decisions)
                if faults is not None:
                    faults.after_barrier(mini_round, deliver)
                round_span.set_attrs(
                    leaders=len(leaders),
                    new_winners=len(new_winners),
                    new_losers=len(new_losers),
                )
            winners |= new_winners
            cumulative_weight += sum(float(weights[v]) for v in new_winners)
            live = [vertex for vertex in live if vertex.status == VertexStatus.CANDIDATE]
            remaining = len(live)
            records.append(
                MiniRoundRecord(
                    index=mini_round,
                    leaders=frozenset(leaders),
                    new_winners=frozenset(new_winners),
                    new_losers=frozenset(new_losers),
                    cumulative_weight=cumulative_weight,
                    remaining_candidates=remaining,
                )
            )
            computation.mini_rounds = mini_round
            if remaining == 0:
                break

        independent = is_independent(self._adjacency, winners)
        if not independent and transport.is_lossless and faults is None:
            raise RuntimeError(
                "distributed PTAS produced a dependent vertex set on a "
                "lossless transport; this is a bug"
            )
        converged = all(vertex.status.is_decided for vertex in vertices)
        phases = ("WB", "LD", "LB") if faults is None else faults.phases
        costs = RoundCosts(
            communication=CommunicationCosts(
                messages_per_vertex=transport.messages_sent(),
                total_deliveries=transport.total_deliveries,
                mini_timeslots_per_phase={
                    phase: transport.mini_timeslots(phase) for phase in phases
                },
            ),
            computation=computation,
            stored_weights_per_vertex=[
                len(vertex.neighborhood_2r1) for vertex in vertices
            ],
        )
        independent_set = IndependentSet.from_iterable(winners, weights)
        return ProtocolResult(
            independent_set=independent_set,
            mini_rounds=records,
            costs=costs,
            converged=converged,
            independent=independent,
        )


# ----------------------------------------------------------------------
# AsyncioTransport
# ----------------------------------------------------------------------
#: Per-stream buffer limit.  Generous because the router may stage a few
#: hundred frames between cooperative yields; flow control is handled by the
#: explicit yield cadence, not by stream back-pressure.
_STREAM_LIMIT = 1 << 20

#: Frames written to down-links between cooperative yields during a flush.
#: Mailbox tasks drain their whole buffer at every yield, so this bounds
#: peak buffered bytes without paying one scheduler round-trip per frame.
_FLUSH_YIELD_EVERY = 256


class _PipeTransport(asyncio.Transport):
    """In-memory unidirectional byte pipe feeding an asyncio StreamReader."""

    def __init__(self, reader: asyncio.StreamReader) -> None:
        super().__init__()
        self._reader = reader
        self._closing = False

    def write(self, data: bytes) -> None:
        if not self._closing:
            self._reader.feed_data(data)

    def close(self) -> None:
        if not self._closing:
            self._closing = True
            self._reader.feed_eof()

    def is_closing(self) -> bool:
        return self._closing

    def pause_reading(self) -> None:  # flow control is a no-op in memory
        pass

    def resume_reading(self) -> None:
        pass


def _open_pipe(loop: asyncio.AbstractEventLoop):
    """One (reader, writer) pair over an in-memory byte pipe."""
    reader = asyncio.StreamReader(limit=_STREAM_LIMIT, loop=loop)
    protocol = asyncio.StreamReaderProtocol(reader, loop=loop)
    transport = _PipeTransport(reader)
    protocol.connection_made(transport)
    writer = asyncio.StreamWriter(transport, protocol, reader, loop)
    return reader, writer


class AsyncioTransport(Transport):
    """Real asyncio message passing between per-vertex tasks.

    Every vertex owns two in-memory byte streams — an up-link its broadcasts
    are written to and a down-link its mailbox task reads deliveries from —
    plus two long-lived tasks (router pump and mailbox) on a private event
    loop.  Every frame crosses the JSON wire codec, so a protocol run over
    this transport exercises exactly the serialization path a cross-machine
    deployment would.

    Sockets are deliberately not used: an in-memory pipe per direction keeps
    a 2000-vertex graph at 4000 stream objects instead of 4000 file
    descriptors, and keeps per-delivery cost in the microsecond range.

    Parameters
    ----------
    adjacency, neighborhoods:
        As for :class:`~repro.distributed.transport.Transport`.
    latency:
        Delivery latency distribution: ``"none"`` (in-order), ``"uniform"``
        over ``[0, latency_scale)`` or ``"exponential"`` with mean
        ``latency_scale``.  Latency is virtual — it reorders deliveries
        relative to their send times, it never sleeps.
    latency_scale:
        Scale of the latency distribution, in broadcast ticks.
    reorder:
        Randomly permute same-time deliveries.  The only same-time
        deliveries are those of one broadcast, one per recipient, so on its
        own (or with ``"uniform"`` latency at ``latency_scale <= 1``, whose
        delays never pass the next broadcast) it changes no recipient's
        arrival order.  Its jitter draws share the fault stream, so with
        drops it only changes which deliveries drop.
    drop_probability:
        Per-(message, recipient) Bernoulli drop probability.
    seed:
        Seed of the fault stream (drops, latency, reordering).  Same seed,
        topology and message sequence => same delivered-message trace.
    """

    def __init__(
        self,
        adjacency: Sequence[Set[int]],
        neighborhoods: Optional[NeighborhoodTable] = None,
        *,
        latency: str = "none",
        latency_scale: float = 1.0,
        reorder: bool = False,
        drop_probability: float = 0.0,
        seed=0,
    ) -> None:
        if latency not in LATENCY_KINDS:
            raise ValueError(
                f"latency must be one of {LATENCY_KINDS}, got {latency!r}"
            )
        if not (0.0 <= drop_probability < 1.0):
            raise ValueError(
                f"drop_probability must be in [0, 1), got {drop_probability}"
            )
        if latency_scale <= 0:
            raise ValueError(f"latency_scale must be positive, got {latency_scale}")
        super().__init__(adjacency, neighborhoods)
        self._latency = latency
        self._latency_scale = float(latency_scale)
        self._reorder = bool(reorder)
        self._drop_probability = float(drop_probability)
        self._rng = np.random.default_rng(seed)

        self._inboxes: List[List[Message]] = [[] for _ in range(self._num_vertices)]
        #: Deliveries staged by the router, flushed at the next phase barrier:
        #: (virtual delivery time, reorder jitter, sequence, recipient, frame).
        self._staged: List[Tuple[float, float, int, int, bytes]] = []
        self._clock = 0
        self._sequence = 0
        self._unrouted = 0
        self._in_flight = 0
        self._last_recipients = 0
        self._decode_cache: Dict[bytes, Message] = {}
        #: ``(message type, sender, recipient)`` per delivery, in delivery
        #: order.  The determinism contract: same seed => same trace.
        self.delivery_trace: List[Tuple[str, int, int]] = []
        self._last_delivered_seq: List[int] = [0] * self._num_vertices

        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._up_writers: List[asyncio.StreamWriter] = []
        self._down_writers: List[asyncio.StreamWriter] = []
        self._tasks: List[asyncio.Task] = []
        for vertex in range(self._num_vertices):
            up_reader, up_writer = _open_pipe(self._loop)
            down_reader, down_writer = _open_pipe(self._loop)
            self._up_writers.append(up_writer)
            self._down_writers.append(down_writer)
            self._tasks.append(
                self._loop.create_task(self._pump_uplink(vertex, up_reader))
            )
            self._tasks.append(
                self._loop.create_task(self._run_mailbox(vertex, down_reader))
            )

    # ------------------------------------------------------------------
    # Event-loop plumbing
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("transport is closed")

    def _drive(self, coro) -> None:
        """Run the private loop until ``coro`` finishes (sync -> async edge)."""
        self._loop.run_until_complete(coro)

    async def _pump_uplink(self, sender: int, reader: asyncio.StreamReader) -> None:
        """Route every frame ``sender`` writes to its up-link."""
        while True:
            line = await reader.readline()
            if not line:
                return
            self._route(sender, line)
            self._unrouted -= 1

    async def _run_mailbox(self, vertex: int, reader: asyncio.StreamReader) -> None:
        """Decode every frame arriving on the down-link into the inbox."""
        while True:
            line = await reader.readline()
            if not line:
                return
            message = self._decode(line)
            name = type(message).__name__
            self._inboxes[vertex].append(message)
            self.delivery_trace.append((name, message.sender, vertex))
            self._delivered_by_type[name] += 1
            self._in_flight -= 1

    def _decode(self, line: bytes) -> Message:
        """Frame decode with a byte-interned cache.

        Identical frames resolve to one shared message object, matching the
        oracle network's shared-object delivery and keeping per-delivery cost
        flat even for large StatusDetermination maps.
        """
        message = self._decode_cache.get(line)
        if message is None:
            message = decode_message(line)
            self._decode_cache[line] = message
        return message

    def _route(self, sender: int, line: bytes) -> None:
        """Stage one broadcast frame for delivery, applying the fault model.

        Recipients are visited in ascending order (the table's rows are
        sorted) so the fault stream (drop and latency draws) is a
        deterministic function of the seed and the message sequence.
        """
        message = self._decode(line)
        recipients = self._recipients(sender, message.hop_limit)
        self._clock += 1
        for recipient in recipients:
            if (
                self._drop_probability > 0.0
                and self._rng.random() < self._drop_probability
            ):
                self._dropped += 1
                continue
            if self._latency == "uniform":
                delay = float(self._rng.uniform(0.0, self._latency_scale))
            elif self._latency == "exponential":
                delay = float(self._rng.exponential(self._latency_scale))
            else:
                delay = 0.0
            jitter = float(self._rng.random()) if self._reorder else 0.0
            self._sequence += 1
            self._staged.append(
                (self._clock + delay, jitter, self._sequence, recipient, line)
            )
            self._deliveries += 1
            self._latency_total += delay
            if delay > self._latency_max:
                self._latency_max = delay
        self._last_recipients = len(recipients)

    async def _until_routed(self) -> None:
        while self._unrouted:
            await asyncio.sleep(0)

    async def _flush(self) -> None:
        """Deliver all staged frames in virtual-time order (phase barrier)."""
        while self._unrouted:
            await asyncio.sleep(0)
        staged = sorted(self._staged)
        self._staged.clear()
        for index, (_, _, sequence, recipient, line) in enumerate(staged):
            # A frame delivered after a later-sent frame to the same recipient
            # arrived out of send order (latency or reordering moved it).
            if sequence < self._last_delivered_seq[recipient]:
                self._out_of_order += 1
            else:
                self._last_delivered_seq[recipient] = sequence
            self._in_flight += 1
            self._down_writers[recipient].write(line)
            if index % _FLUSH_YIELD_EVERY == _FLUSH_YIELD_EVERY - 1:
                await asyncio.sleep(0)
        while self._in_flight:
            await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # Transport interface
    # ------------------------------------------------------------------
    def broadcast(self, message: Message, phase: str) -> int:
        """Encode ``message`` onto the sender's up-link and route it.

        Counter semantics mirror :class:`SimulatedTransport`: one originated
        message, ``max(1, hop_limit)`` mini-timeslots, one delivery per
        recipient — except that dropped (message, recipient) pairs are *not*
        counted as deliveries (they never happened on this transport).
        """
        self._ensure_open()
        if not self._charge(message, phase):
            return 0
        self._unrouted += 1
        self._up_writers[message.sender].write(encode_message(message))
        self._drive(self._until_routed())
        return self._last_recipients

    def collect(self, vertex: int) -> List[Message]:
        """Flush staged deliveries, then drain and return the inbox."""
        self._ensure_open()
        if not (0 <= vertex < self._num_vertices):
            raise ValueError(f"vertex {vertex} out of range [0, {self._num_vertices})")
        if self._staged or self._unrouted or self._in_flight:
            self._drive(self._flush())
        inbox = self._inboxes[vertex]
        self._inboxes[vertex] = []
        return inbox

    def pending(self, vertex: int) -> int:
        """Number of undelivered messages waiting for ``vertex``."""
        return len(self._inboxes[vertex]) + sum(
            1 for entry in self._staged if entry[3] == vertex
        )

    def reset(self) -> None:
        """Discard undelivered messages, the trace and all counters.

        The fault-stream rng is *not* rewound: successive runs on one
        transport instance consume one continuous stream, which keeps a
        multi-run session deterministic end to end.
        """
        self._ensure_open()
        self._staged.clear()
        self._inboxes = [[] for _ in range(self._num_vertices)]
        self.delivery_trace = []
        self._last_delivered_seq = [0] * self._num_vertices
        self.reset_costs()

    @property
    def is_lossless(self) -> bool:
        """``True`` iff the drop model can never lose a delivery."""
        return self._drop_probability == 0.0

    def close(self) -> None:
        """Tear down the per-vertex tasks and the private event loop."""
        if self._closed:
            return
        self._closed = True
        for writer in self._up_writers + self._down_writers:
            writer.close()

        async def _shutdown() -> None:
            for task in self._tasks:
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)

        self._loop.run_until_complete(_shutdown())
        self._loop.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass
