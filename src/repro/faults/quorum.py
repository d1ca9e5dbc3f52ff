"""Quorum bookkeeping and the Algorithm-Two-style termination bound.

The mitigation mode hardens the protocol along two axes:

* **Evidence checking** — every honest vertex cross-validates incoming
  claims against its own (2r+1)-hop knowledge.  The checks are designed to
  be *sound* on a lossless transport: an honest sender can never trigger
  them, because within the shared (2r+1)-hop horizon two honest vertices
  always hold identical weight knowledge (both primed from the same truth,
  both hearing the same WB broadcasts) and consistent status knowledge (an
  LB deciding a shared-horizon vertex reaches both at the same barrier).
  That argument does not cover crashes, and the claim fails for them: the
  vertices a crashed leader blocks all fall silent, and
  ``FaultyVertexProtocol.end_mini_round`` counts silence over the whole
  undecided horizon, not only over blockers as :meth:`QuorumState.end_mini_round`
  says, so neighbours suspect each other in the same mini-round and elect
  themselves together.  On the triangle ``[{1, 2}, {0, 2}, {0, 1}]`` with
  weights ``[3, 2, 1]``, ``r = 1``, ``CrashFault(vertex=0, mini_round=1,
  phase="LD")`` and ``QuorumConfig(threshold=2)`` on a ``SimulatedTransport``
  the run returns winners ``{1, 2}`` with ``independent=False``; without
  quorum it stalls with no winners.
  Direct evidence excludes the sender locally and is broadcast as an
  ``Accusation``; remote vertices exclude the accused once a DLS-style
  quorum of *distinct* accusers is reached (``accept_vote`` in the DLS
  state machine requires ``N - f`` matching votes; here the accuser count
  plays that role over the r-hop reports that actually reach a vertex).
* **Crash suspicion** — a candidate that keeps losing elections to a
  silent heavier neighbour would otherwise wait forever.  The approximate-
  consensus termination bound of Algorithm Two,

      p_end = ceil( log(eps / K) / log((3n - 2f) / (4 (n - f))) ),

  bounds how many rounds an honest run still needs once ``f`` faulty
  vertices stop participating; a neighbour silent for that many
  consecutive mini-rounds is suspected crashed and dropped from elections
  (hearing from it again clears the suspicion).

:class:`QuorumState` is the per-honest-vertex ledger of all of this; the
protocol wiring lives in :mod:`repro.faults.runtime`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.obs import current_observer

__all__ = ["termination_bound", "QuorumConfig", "QuorumState"]


def termination_bound(num_vertices: int, num_faults: int, eps: float = 0.05) -> int:
    """Mini-rounds of silence after which a vertex is suspected crashed.

    Instantiates Algorithm Two's ``p_end = log(eps/K) / log(r)`` with the
    convergence-rate ratio ``r = (3n - 2f) / (4 (n - f))``.  ``f`` is clamped
    to the honest-majority range ``f <= (n - 1) / 2`` (beyond it the ratio
    reaches 1 and no finite bound exists).  Always at least 1.
    """
    if num_vertices <= 1:
        return 1
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    n = int(num_vertices)
    f = max(0, min(int(num_faults), (n - 1) // 2))
    ratio = (3.0 * n - 2.0 * f) / (4.0 * (n - f))
    k = float(max(2, n))
    p_end = math.ceil(math.log(eps / k) / math.log(ratio))
    return max(1, int(p_end))


@dataclass(frozen=True)
class QuorumConfig:
    """Tuning of the mitigation mode (one shared instance per run)."""

    #: Distinct accusers needed before a remote vertex excludes the accused.
    threshold: int = 2
    #: Approximation slack of the termination bound.
    eps: float = 0.05
    #: Silence patience in mini-rounds; ``0`` means "derive it from
    #: :func:`termination_bound`" (the engine fills it in per run).
    patience: int = 0


@dataclass
class QuorumState:
    """Per-honest-vertex mitigation ledger.

    Tracks evidence-excluded senders, quorum votes, crash suspicions and the
    accusations queued for the next QR phase.  All decisions are pure
    functions of the message sequence, so the ledger is transport-
    deterministic (the equivalence contract extends to mitigation runs).
    """

    config: QuorumConfig
    #: Senders excluded on direct evidence or by accuser quorum.  Permanent.
    excluded: Set[int] = field(default_factory=set)
    #: Vertices suspected crashed (cleared when they speak again).
    suspected: Set[int] = field(default_factory=set)
    #: accused -> distinct accusers heard so far.
    accusers: Dict[int, Set[int]] = field(default_factory=dict)
    #: blocker -> consecutive silent mini-rounds.
    silence: Dict[int, int] = field(default_factory=dict)
    #: Vertices heard from since the last mini-round boundary.
    heard: Set[int] = field(default_factory=set)
    #: (accused, reason) queued for broadcast at the next QR phase.
    pending_accusations: List[Tuple[int, str]] = field(default_factory=list)
    #: Vertices this vertex has already accused (one accusation per accused).
    accused_already: Set[int] = field(default_factory=set)

    def ignores(self, vertex: int) -> bool:
        """Should messages from / elections involving ``vertex`` be ignored?"""
        return vertex in self.excluded or vertex in self.suspected

    def note_heard(self, sender: int) -> None:
        """Record liveness: hearing a suspected vertex clears the suspicion."""
        self.heard.add(sender)
        if sender in self.suspected:
            self.suspected.discard(sender)
            self.silence.pop(sender, None)

    def convict(self, accused: int, reason: str) -> None:
        """Direct evidence: exclude now and queue one accusation broadcast."""
        if accused not in self.excluded:
            current_observer().count(f"faults.convictions.{reason}")
        self.excluded.add(accused)
        if accused not in self.accused_already:
            self.accused_already.add(accused)
            self.pending_accusations.append((accused, reason))

    def register_accusation(self, accuser: int, accused: int) -> None:
        """Count a remote accusation; excludes at ``config.threshold`` votes."""
        if accuser in self.excluded:
            return  # excluded senders cannot vote others out
        votes = self.accusers.setdefault(accused, set())
        votes.add(accuser)
        if len(votes) >= self.config.threshold:
            if accused not in self.excluded:
                current_observer().count("faults.quorum_exclusions")
            self.excluded.add(accused)

    def end_mini_round(self, blockers: Set[int]) -> None:
        """Advance the silence counters over this round's election blockers.

        ``blockers`` are the still-undecided heavier neighbours this vertex
        is currently losing elections to; only those can deadlock it, so
        only those accrue suspicion.  A blocker heard from this round resets
        its counter.
        """
        for vertex in blockers:
            if vertex in self.heard:
                self.silence[vertex] = 0
            else:
                count = self.silence.get(vertex, 0) + 1
                self.silence[vertex] = count
                if count >= self.config.patience:
                    if vertex not in self.suspected:
                        current_observer().count("faults.suspicions")
                    self.suspected.add(vertex)
        self.heard.clear()
