"""Fault injection over the message-driven protocol runtime.

:class:`FaultyVertexProtocol` wraps the per-vertex state machine of
:class:`~repro.distributed.runtime.VertexProtocol` with three roles:

* **crashed** — from its scheduled ``(mini_round, phase)`` boundary onward
  the vertex neither broadcasts nor receives; its last announced state keeps
  haunting its neighbourhood (the classic stalled-leader / silent-blocker
  failures).
* **Byzantine** — the vertex stays live but corrupts what it sends: an
  inflated WB weight, and (behavior-dependent) usurped or deliberately
  conflicting LB decisions.  Every corrupted message is an ordinary typed
  message broadcast through the real transport, so on
  :class:`~repro.distributed.runtime.AsyncioTransport` the lies cross the
  JSON wire codec like any honest frame.
* **honest + mitigation** — with quorum checking enabled, honest vertices
  hold a :class:`~repro.faults.quorum.QuorumState`: they cross-validate
  every claim against their (2r+1)-hop knowledge, exclude senders caught
  lying (direct evidence, then an ``Accusation`` quorum for vertices
  outside the evidence horizon), and suspect silent blockers after the
  Algorithm-Two termination bound instead of waiting on dead neighbours.

There is one protocol engine.  :class:`FaultController` is the fault
participant :class:`~repro.distributed.runtime.ProtocolEngine` accepts: it
builds the faulty vertex machines, runs the fault clock, adds the accusation
(QR) phase after every delivery barrier and supplies the alive-honest
termination predicate.  :class:`FaultInjectionEngine` is the thin entry point
around one such engine run; it validates the plan, derives the quorum
patience and turns the final vertex states into the :class:`FaultReport`.

All fault behaviour is deterministic given the plan (no runtime randomness),
so the transport-equivalence contract extends to fault runs: a lossless
in-order asyncio run is bit-identical to the simulated oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.distributed.messages import (
    Accusation,
    LeaderDeclaration,
    Message,
    StatusDetermination,
    WeightBroadcast,
)
from repro.distributed.runtime import (
    ProtocolEngine,
    ProtocolResult,
    VertexProtocol,
    VertexStatus,
)
from repro.distributed.transport import Transport
from repro.faults.plan import CRASH_PHASES, FaultPlan
from repro.faults.quorum import QuorumConfig, QuorumState, termination_bound
from repro.graph.neighborhoods import NeighborhoodTable
from repro.mwis.base import Adjacency, IndependentSet, MWISSolver, is_independent
# Re-exported: benchmark harnesses wrap ``repro.faults.runtime.solve_local_mwis``
# by name; the LMWIS itself runs in ``repro.distributed.runtime``.
from repro.mwis.local import solve_local_mwis  # noqa: F401
from repro.obs import current_observer

__all__ = [
    "FaultController",
    "FaultyVertexProtocol",
    "FaultReport",
    "FaultInjectionEngine",
]


class FaultController:
    """The fault side of one protocol run.

    Owns the plan, the fault clock, the deterministic fake weights Byzantine
    vertices announce and the run's :class:`FaultyVertexProtocol` machines.
    It is the fault participant
    :meth:`~repro.distributed.runtime.ProtocolEngine.run` accepts: the engine
    builds the vertices through :meth:`make_vertex`, moves the clock with
    :meth:`enter_phase`, calls :meth:`after_barrier` after every delivery
    barrier and stops once :meth:`has_live_candidates` turns false.  One
    controller drives exactly one run.

    A fake weight is ``1.5 * sum(true (2r+1)-hop weights) + 1.0`` — strictly
    above everything the vertex could legitimately see, so the lie wins every
    election it reaches, and a pure function of the primed truth, so both
    transports (and both ends of the wire codec) see the identical float.
    """

    def __init__(
        self,
        plan: FaultPlan,
        adjacency: Adjacency,
        hood_2r1: Sequence[Set[int]],
        quorum: Optional[QuorumConfig] = None,
    ) -> None:
        self.plan = plan
        self.crashes = plan.crashes
        self.byzantine = plan.byzantine
        self.adjacency = adjacency
        self.hood_2r1 = hood_2r1
        self.quorum = quorum
        #: Fault clock: (mini_round, index into ``CRASH_PHASES``), set by
        #: the engine at every phase boundary.
        self.clock: Tuple[int, int] = (0, 0)
        self._fake_weights: Dict[int, float] = {}
        #: The run's vertex machines, in vertex order.
        self.vertices: List[FaultyVertexProtocol] = []
        self.accusations_sent = 0
        #: Phases whose mini-timeslots the run reports.
        self.phases: Tuple[str, ...] = (
            ("WB", "LD", "LB", "QR") if quorum is not None else ("WB", "LD", "LB")
        )

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def make_vertex(self, *args, **kwargs) -> "FaultyVertexProtocol":
        """Build (and keep) one vertex machine of the run."""
        vertex = FaultyVertexProtocol(*args, controller=self, **kwargs)
        self.vertices.append(vertex)
        return vertex

    def mini_round_budget(self, num_vertices: int) -> int:
        """Suspicion needs ``patience`` silent rounds before the stuck part
        of the graph can resume; budget for both."""
        if self.quorum is None:
            return num_vertices
        return num_vertices + self.quorum.patience

    def enter_phase(self, mini_round: int, phase: str) -> None:
        """Set the fault clock at a WB / LD / LB boundary."""
        self.clock = (mini_round, CRASH_PHASES.index(phase))

    def after_barrier(self, mini_round: int, deliver: Callable[[], None]) -> None:
        """QR phase, then (in a mini-round) the silence bookkeeping.

        Mitigation runs only.  Accusations queued at a barrier spread before
        the next election — after WB too, so out-of-horizon vertices can
        already reject a weight liar's first LB.
        """
        if self.quorum is None:
            return
        with current_observer().span("protocol.phase", phase="QR"):
            sent = sum(vertex.flush_accusations(mini_round) for vertex in self.vertices)
            if sent:
                self.accusations_sent += sent
                deliver()
        if mini_round:
            for vertex in self.vertices:
                vertex.end_mini_round()

    def is_live_honest(self, vertex: "FaultyVertexProtocol") -> bool:
        """Neither Byzantine nor (yet) crashed on the fault clock."""
        return vertex.behavior is None and not self.is_crashed(vertex.vertex)

    def has_live_candidates(self) -> bool:
        """Termination predicate: some live honest vertex is still undecided."""
        return any(
            self.is_live_honest(vertex) and vertex.status == VertexStatus.CANDIDATE
            for vertex in self.vertices
        )

    def is_crashed(self, vertex: int) -> bool:
        """Has ``vertex``'s scheduled crash time passed on the fault clock?"""
        fault = self.crashes.get(vertex)
        return fault is not None and self.clock >= fault.crash_time()

    def fake_weight(self, machine: VertexProtocol) -> float:
        """The inflated weight Byzantine ``machine`` announces (memoized).

        The claim exceeds the *sum* of all true weights in the vertex's
        (2r+1)-hop horizon, so it wins every election it enters and — the
        rational attack — dominates any honest alternative a leader's exact
        local MWIS could pick inside its candidate ball.  A pure function of
        the primed truth: no runtime randomness, so fault runs stay
        transport-deterministic.
        """
        vertex = machine.vertex
        cached = self._fake_weights.get(vertex)
        if cached is None:
            horizon_total = sum(machine.known_weight(u) for u in self.hood_2r1[vertex])
            cached = horizon_total * 1.5 + 1.0
            self._fake_weights[vertex] = cached
        return cached


class FaultyVertexProtocol(VertexProtocol):
    """A :class:`VertexProtocol` whose behaviour a fault plan can corrupt."""

    def __init__(self, *args, controller: FaultController, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._controller = controller
        byzantine = controller.byzantine.get(self.vertex)
        #: Byzantine behavior tag, or ``None`` for honest / crash-only vertices.
        self.behavior: Optional[str] = byzantine.behavior if byzantine else None
        #: Mitigation ledger; only honest vertices run quorum checks.
        self.quorum_state: Optional[QuorumState] = (
            QuorumState(controller.quorum)
            if controller.quorum is not None and byzantine is None
            else None
        )

    # ------------------------------------------------------------------
    # WB phase
    # ------------------------------------------------------------------
    def announce_weight(self) -> Optional[WeightBroadcast]:
        if self._controller.is_crashed(self.vertex):
            return None
        if self.behavior is not None:
            # Observe the lie into our own knowledge first, so the base
            # broadcast announces it and our own elections believe it.
            fake = self._controller.fake_weight(self)
            self.observe_weight(self.vertex, fake)
        return super().announce_weight()

    # ------------------------------------------------------------------
    # LD + LMWIS + LB phases
    # ------------------------------------------------------------------
    def begin_mini_round(self, mini_round: int) -> Optional[LeaderDeclaration]:
        if self._controller.is_crashed(self.vertex):
            return None
        return super().begin_mini_round(mini_round)

    def determine_statuses(self, mini_round: int) -> Optional[StatusDetermination]:
        if self._controller.is_crashed(self.vertex):
            # The stalled-leader failure: a LocalLeader that declared itself
            # and died before LB leaves its whole ball waiting.
            return None
        return super().determine_statuses(mini_round)

    def _election_exclusions(self) -> Optional[Set[int]]:
        # Excluded / suspected vertices neither block elections nor receive
        # Winner slots: A_r(v) is filtered before the local MWIS.  (They can
        # still be Loser-marked as Winner neighbours, which only confirms
        # their exclusion.)
        state = self.quorum_state
        if state is None:
            return None
        return state.excluded | state.suspected

    def _choose_winners(self, candidate_set: Set[int]) -> Set[int]:
        if self.behavior not in ("winner-usurpation", "conflicting-decisions"):
            return super()._choose_winners(candidate_set)
        # Byzantine LB: skip the LMWIS and claim what the behavior dictates.
        winners: Set[int] = {self.vertex}
        if self.behavior == "conflicting-decisions":
            # Also crown the heaviest adjacent candidate: two adjacent
            # Winners in one LB, a direct independence violation.
            partner = None
            partner_key = None
            for u in self._adjacency[self.vertex]:
                if u not in self.undecided:
                    continue
                key = (self.known_weight(u, 0.0), -u)
                if partner_key is None or key > partner_key:
                    partner, partner_key = u, key
            if partner is not None:
                winners.add(partner)
        return winners

    # ------------------------------------------------------------------
    # QR phase (mitigation only)
    # ------------------------------------------------------------------
    def flush_accusations(self, mini_round: int) -> int:
        """Broadcast the queued accusations; returns how many were sent."""
        state = self.quorum_state
        if state is None or self._controller.is_crashed(self.vertex):
            return 0
        sent = 0
        for accused, reason in state.pending_accusations:
            self._transport.broadcast(
                Accusation(
                    sender=self.vertex,
                    hop_limit=2 * self._r + 1,
                    accused=accused,
                    reason=reason,
                    mini_round=mini_round,
                ),
                phase="QR",
            )
            sent += 1
        state.pending_accusations.clear()
        return sent

    def end_mini_round(self) -> None:
        """Advance silence counters over the still-undecided horizon.

        Tracking *every* undecided, unexcluded (2r+1)-hop neighbour (not
        just this vertex's current blockers) keeps the suspicion state
        symmetric across honest vertices in a shared horizon — the property
        meant to make the ``not-leader`` evidence check sound on a lossless
        transport.  With a crash it also lets blocked neighbours, silent
        while they wait, suspect each other (see :mod:`repro.faults.quorum`).
        """
        state = self.quorum_state
        if state is None or self._controller.is_crashed(self.vertex):
            return
        if self.status.is_decided:
            state.heard.clear()
            return
        state.end_mini_round(self.undecided - state.excluded)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def receive(self, message: Message) -> None:
        if self._controller.is_crashed(self.vertex):
            return  # dead vertices hear nothing
        state = self.quorum_state
        if state is None:
            if isinstance(message, Accusation):
                return  # only mitigating vertices act on accusations
            super().receive(message)
            return
        sender = message.sender
        if sender in state.excluded:
            return
        state.note_heard(sender)
        if isinstance(message, Accusation):
            state.register_accusation(sender, message.accused)
            return
        if isinstance(message, (WeightBroadcast, LeaderDeclaration)):
            # An honest announcement repeats the primed truth bit for bit,
            # so *any* mismatch against current knowledge is hard evidence.
            known = self.known_weight(sender)
            if known is not None and float(message.weight) != known:
                state.convict(sender, "weight-mismatch")
                return
            super().receive(message)
            return
        if isinstance(message, StatusDetermination):
            evidence = self._determination_evidence(message, state)
            if evidence is not None:
                state.convict(sender, evidence)
                return
        super().receive(message)

    def _determination_evidence(
        self, message: StatusDetermination, state: QuorumState
    ) -> Optional[str]:
        """Evidence that an LB is corrupt, or ``None`` when it checks out.

        Two checks, meant to be sound on a lossless transport.  They are
        not when a vertex crashes: see :mod:`repro.faults.quorum` for the
        smallest known case, where honest neighbours elect themselves
        together.


        * ``dependent-winners`` — the LB crowns two adjacent Winners, which
          no honest LMWIS can emit.
        * ``not-leader`` — some vertex in the *shared* (2r+1)-hop horizon of
          sender and receiver is still an unexcluded Candidate with a larger
          election key than the sender, so the sender cannot honestly have
          won the election.  Restricting to the shared horizon is what makes
          the check safe: within it, two honest vertices provably hold the
          same weight and decidedness knowledge at every phase barrier.
        """
        winners = [vertex for vertex, flag in message.decisions.items() if flag]
        for winner in winners:
            neighbors = self._controller.adjacency[winner]
            for other in winners:
                if other != winner and other in neighbors:
                    return "dependent-winners"
        sender = message.sender
        sender_weight = self.known_weight(sender)
        if sender_weight is not None:
            sender_key = (sender_weight, -sender)
            for u in self._controller.hood_2r1[sender] & self.undecided:
                if u == sender or state.ignores(u):
                    continue
                weight = self.known_weight(u)
                if weight is not None and (weight, -u) > sender_key:
                    return "not-leader"
        return None


@dataclass
class FaultReport:
    """Fault metrics of one run (all counts are over the *final* output).

    The final winner set is every vertex that ends with Winner status,
    minus — in mitigation runs — the vertices a quorum of honest vertices
    excluded (their claimed wins are void: the honest network polices their
    channel access).  ``corrupted`` winners are Byzantine winners plus any
    winner adjacent to another final winner (an independence violation that
    made it into the output).
    """

    num_crashed: int = 0
    num_byzantine: int = 0
    fault_fraction: float = 0.0
    claimed_winners: int = 0
    final_winners: int = 0
    quorum_rejected: int = 0
    byzantine_winners: int = 0
    conflicting_winners: int = 0
    corrupted_winners: int = 0
    corrupted_winner_rate: float = 0.0
    honest_winner_weight: float = 0.0
    undecided_honest: int = 0
    suspected_crashed: int = 0
    excluded_senders: int = 0
    accusations_sent: int = 0
    patience: int = 0
    quorum_enabled: bool = False


class FaultInjectionEngine:
    """Entry point of a fault-injection run.

    Validates the plan against the graph, derives the quorum patience, then
    runs :class:`~repro.distributed.runtime.ProtocolEngine` once with a
    :class:`FaultController` as its fault participant.  The engine's run
    differs from an honest one by a fault clock gating crashed vertices, a
    QR (accusation) phase after every delivery barrier in mitigation runs,
    honest-only termination, and no lossless-independence assertion (a
    faulty run is *supposed* to be able to violate it).  Afterwards the
    final winners, convergence and the :class:`FaultReport` are read off the
    vertex machines.  ``neighborhoods`` is the topology's shared
    :class:`~repro.graph.neighborhoods.NeighborhoodTable` at radius ``r``.
    """

    def __init__(
        self,
        adjacency: Adjacency,
        r: int,
        neighborhoods: NeighborhoodTable,
        local_solver: Optional[MWISSolver] = None,
        *,
        plan: FaultPlan,
        quorum: Optional[QuorumConfig] = None,
    ) -> None:
        self._adjacency = adjacency
        self._num_vertices = len(adjacency)
        self._hood_2r1 = neighborhoods.balls(2 * r + 1)
        if plan.max_vertex >= self._num_vertices:
            raise ValueError(
                f"fault plan names vertex {plan.max_vertex} but the graph "
                f"only has {self._num_vertices} vertices"
            )
        self._plan = plan
        if quorum is not None and quorum.patience <= 0:
            quorum = QuorumConfig(
                threshold=quorum.threshold,
                eps=quorum.eps,
                patience=termination_bound(
                    self._num_vertices, plan.num_faults, quorum.eps
                ),
            )
        self._quorum = quorum
        self._engine = ProtocolEngine(adjacency, r, neighborhoods, local_solver)

    def run(
        self,
        transport: Transport,
        weights: Sequence[float],
        hard_limit: Optional[int] = None,
    ) -> Tuple[ProtocolResult, FaultReport]:
        """Execute one faulty strategy decision over ``transport``."""
        controller = FaultController(
            self._plan, self._adjacency, self._hood_2r1, quorum=self._quorum
        )
        obs = current_observer()
        with obs.span(
            "faults.run",
            num_vertices=self._num_vertices,
            num_faults=self._plan.num_faults,
            quorum=self._quorum is not None,
        ) as run_span:
            try:
                result = self._engine.run(
                    transport, weights, hard_limit=hard_limit, faults=controller
                )
                report = self._settle(result, controller, weights)
            finally:
                # The vertices reference the controller: break the cycle so
                # the run's machines are freed now, not at the next full GC.
                controller.vertices.clear()
            run_span.set_attrs(
                mini_rounds=result.num_mini_rounds,
                corrupted_winners=report.corrupted_winners,
            )
        for name, value in (
            ("faults.crashed", report.num_crashed),
            ("faults.byzantine", report.num_byzantine),
            ("faults.accusations_sent", report.accusations_sent),
            ("faults.quorum_rejected", report.quorum_rejected),
            ("faults.excluded_senders", report.excluded_senders),
            ("faults.suspected_crashed", report.suspected_crashed),
            ("faults.corrupted_winners", report.corrupted_winners),
        ):
            if value:
                obs.count(name, value)
        return result, report

    def _settle(
        self,
        result: ProtocolResult,
        controller: FaultController,
        weights: Sequence[float],
    ) -> FaultReport:
        """Replace the claimed outcome on ``result`` by the final one and
        account for the faults."""
        vertices = controller.vertices
        status_winners = {
            vertex.vertex
            for vertex in vertices
            if vertex.status == VertexStatus.WINNER
        }
        quorum_rejected: Set[int] = set()
        if self._quorum is not None:
            votes: Dict[int, int] = {}
            for vertex in vertices:
                state = vertex.quorum_state
                if state is None:
                    continue
                for accused in state.excluded:
                    votes[accused] = votes.get(accused, 0) + 1
            quorum_rejected = {
                accused
                for accused, count in votes.items()
                if count >= self._quorum.threshold
            }
        final_winners = status_winners - quorum_rejected
        byzantine_set = set(self._plan.byzantine)
        byzantine_winners = final_winners & byzantine_set
        conflicting: Set[int] = set()
        for winner in final_winners:
            if final_winners & self._adjacency[winner]:
                conflicting.add(winner)
        corrupted = byzantine_winners | conflicting
        honest_weight = sum(
            float(weights[v]) for v in final_winners - corrupted
        )
        live_honest = [
            vertex for vertex in vertices if controller.is_live_honest(vertex)
        ]
        excluded_union: Set[int] = set()
        suspected_union: Set[int] = set()
        for vertex in vertices:
            state = vertex.quorum_state
            if state is not None:
                excluded_union |= state.excluded
                suspected_union |= state.suspected

        result.independent_set = IndependentSet.from_iterable(final_winners, weights)
        result.independent = is_independent(self._adjacency, final_winners)
        result.converged = all(vertex.status.is_decided for vertex in live_honest)
        return FaultReport(
            num_crashed=len(self._plan.crashes),
            num_byzantine=len(byzantine_set),
            fault_fraction=self._plan.num_faults / max(1, self._num_vertices),
            claimed_winners=len(status_winners),
            final_winners=len(final_winners),
            quorum_rejected=len(quorum_rejected),
            byzantine_winners=len(byzantine_winners),
            conflicting_winners=len(conflicting),
            corrupted_winners=len(corrupted),
            corrupted_winner_rate=len(corrupted) / max(1, len(final_winners)),
            honest_winner_weight=honest_weight,
            undecided_honest=sum(
                1 for vertex in live_honest if not vertex.status.is_decided
            ),
            suspected_crashed=len(suspected_union),
            excluded_senders=len(excluded_union),
            accusations_sent=controller.accusations_sent,
            patience=self._quorum.patience if self._quorum is not None else 0,
            quorum_enabled=self._quorum is not None,
        )
