"""Fault plans: who fails, when, and how.

A :class:`FaultPlan` is the fault-injection counterpart of the dynamics
subsystem's :class:`~repro.dynamics.events.EventSchedule`: an immutable,
JSON-serializable, content-hashed list of per-vertex faults that a
scenario's fault stream generates deterministically from its seed.  Two
fault kinds exist:

* :class:`CrashFault` — crash-stop: the vertex goes silent at a named phase
  boundary of a named mini-round and never speaks (or listens) again.  A
  crash at mini-round 0 happens before the initial WB announcement; crashes
  at mini-round ``t >= 1`` happen before that round's LD or LB phase — a
  LocalLeader crashing between its declaration and its status broadcast is
  the classic mid-protocol failure the mitigation mode has to survive.
* :class:`ByzantineFault` — the vertex stays live but lies: it announces an
  inflated WB weight and (depending on ``behavior``) corrupts its LMWIS
  claims and LB decisions.  All corrupted messages are ordinary typed
  messages that cross the real wire codec.

The plan layer only *describes* faults; :mod:`repro.faults.runtime` applies
them to the protocol machines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro._codec import check_fields

__all__ = [
    "CRASH_PHASES",
    "BYZANTINE_BEHAVIORS",
    "VertexFault",
    "CrashFault",
    "ByzantineFault",
    "FaultPlan",
    "generate_fault_plan",
]

#: Phase boundaries a crash can be scheduled at.  ``WB`` is only valid at
#: mini-round 0 (before the initial weight broadcast); ``LD`` / ``LB`` only
#: at mini-rounds >= 1.
CRASH_PHASES = ("WB", "LD", "LB")

#: Adversarial strategies a Byzantine vertex can follow.
#:
#: * ``weight-inflation`` — announce an inflated WB weight (winning every
#:   local election it can) but keep the LMWIS/LB logic honest: the damage
#:   is a low-true-weight winner displacing its heavier neighbours.
#: * ``winner-usurpation`` — inflate, then as a LocalLeader skip the LMWIS
#:   and declare itself the only Winner, marking its whole candidate ball
#:   Losers.
#: * ``conflicting-decisions`` — inflate, then declare itself *and* its
#:   heaviest adjacent candidate Winners simultaneously, injecting a direct
#:   independence violation into the output.
BYZANTINE_BEHAVIORS = (
    "weight-inflation",
    "winner-usurpation",
    "conflicting-decisions",
)

_PHASE_INDEX = {phase: index for index, phase in enumerate(CRASH_PHASES)}


@dataclass(frozen=True)
class VertexFault:
    """Base class: one fault bound to one vertex of ``H``."""

    vertex: int

    #: Serialization tag; set by each concrete subclass.
    type_name = "fault"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, path: str = "fault") -> None:
        """Raise ``ValueError`` (with ``path``) when the fault is ill-formed."""
        check_fields(self, path)
        if self.vertex < 0:
            raise ValueError(
                f"{path}.vertex: vertex ids are non-negative, got {self.vertex}"
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        data: Dict[str, object] = {"type": self.type_name}
        for name, value in sorted(self.__dict__.items()):
            data[name] = value
        return data


@dataclass(frozen=True)
class CrashFault(VertexFault):
    """Crash-stop: the vertex is silent from ``(mini_round, phase)`` onward."""

    mini_round: int = 0
    phase: str = "WB"
    type_name = "crash"

    def validate(self, path: str = "fault") -> None:
        super().validate(path)
        if self.mini_round < 0:
            raise ValueError(
                f"{path}.mini_round: must be >= 0, got {self.mini_round}"
            )
        if self.phase not in CRASH_PHASES:
            raise ValueError(
                f"{path}.phase: expected one of {CRASH_PHASES}, got {self.phase!r}"
            )
        if (self.mini_round == 0) != (self.phase == "WB"):
            raise ValueError(
                f"{path}: phase 'WB' exists only at mini_round 0 and mini-rounds "
                f">= 1 only have phases 'LD'/'LB'; got mini_round={self.mini_round}, "
                f"phase={self.phase!r}"
            )

    def crash_time(self) -> Tuple[int, int]:
        """Totally ordered (mini_round, phase index) the vertex dies at."""
        return (self.mini_round, _PHASE_INDEX[self.phase])


@dataclass(frozen=True)
class ByzantineFault(VertexFault):
    """The vertex stays live but follows ``behavior`` instead of Algorithm 3."""

    behavior: str = "weight-inflation"
    type_name = "byzantine"

    def validate(self, path: str = "fault") -> None:
        super().validate(path)
        if self.behavior not in BYZANTINE_BEHAVIORS:
            raise ValueError(
                f"{path}.behavior: expected one of {BYZANTINE_BEHAVIORS}, "
                f"got {self.behavior!r}"
            )


class FaultPlan:
    """An immutable, validated set of per-vertex faults.

    Faults are stored sorted by ``(vertex, type)``; each vertex may carry at
    most one fault (a vertex cannot both crash and be Byzantine — the crash
    would make the lie moot and the plan ambiguous).
    """

    def __init__(self, faults: Iterable[VertexFault]) -> None:
        faults = list(faults)
        for index, fault in enumerate(faults):
            if not isinstance(fault, VertexFault):
                raise ValueError(
                    f"faults[{index}]: expected a VertexFault, got "
                    f"{type(fault).__name__}"
                )
            fault.validate(f"faults[{index}]")
        seen: Dict[int, str] = {}
        for index, fault in enumerate(faults):
            if fault.vertex in seen:
                raise ValueError(
                    f"faults[{index}]: vertex {fault.vertex} already has a "
                    f"{seen[fault.vertex]!r} fault; one fault per vertex"
                )
            seen[fault.vertex] = fault.type_name
        ordered = sorted(faults, key=lambda fault: (fault.vertex, fault.type_name))
        self._faults: Tuple[VertexFault, ...] = tuple(ordered)
        self._crashes: Dict[int, CrashFault] = {
            fault.vertex: fault for fault in self._faults
            if isinstance(fault, CrashFault)
        }
        self._byzantine: Dict[int, ByzantineFault] = {
            fault.vertex: fault for fault in self._faults
            if isinstance(fault, ByzantineFault)
        }

    @property
    def faults(self) -> Tuple[VertexFault, ...]:
        """All faults, sorted by vertex."""
        return self._faults

    @property
    def crashes(self) -> Dict[int, CrashFault]:
        """Vertex id -> its crash fault."""
        return dict(self._crashes)

    @property
    def byzantine(self) -> Dict[int, ByzantineFault]:
        """Vertex id -> its Byzantine fault."""
        return dict(self._byzantine)

    @property
    def num_faults(self) -> int:
        """Total number of faulty vertices."""
        return len(self._faults)

    @property
    def max_vertex(self) -> int:
        """Largest faulty vertex id (-1 for an empty plan)."""
        return max((fault.vertex for fault in self._faults), default=-1)

    def to_dicts(self) -> List[Dict[str, object]]:
        """JSON-ready fault list (the form :meth:`content_hash` digests)."""
        return [fault.to_dict() for fault in self._faults]

    def content_hash(self) -> str:
        """SHA-256 of the canonical JSON form (sorted keys, compact)."""
        canonical = json.dumps(
            self.to_dicts(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self):
        return iter(self._faults)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self._faults == other._faults

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"FaultPlan(crashes={len(self._crashes)}, "
            f"byzantine={len(self._byzantine)})"
        )


def _fault_count(fraction: float, num_vertices: int) -> int:
    """Faulty-vertex count for ``fraction``: rounded, but never 0 when > 0.

    ``int(round(...))`` alone would turn a small positive fraction on a small
    graph into an empty plan, breaking the monotone curve-vs-``f`` contract.
    """
    if fraction <= 0.0:
        return 0
    return max(1, int(round(fraction * num_vertices)))


def generate_fault_plan(
    num_vertices: int,
    *,
    crash_fraction: float = 0.0,
    byzantine_fraction: float = 0.0,
    behavior: str = "weight-inflation",
    max_crash_round: int = 3,
    rng: np.random.Generator,
) -> FaultPlan:
    """Draw a seeded fault plan over ``num_vertices`` vertices.

    Crashed and Byzantine vertex sets are disjoint; crash times are uniform
    over mini-rounds ``0..max_crash_round`` (round 0 crashes at the WB
    boundary, later rounds uniformly at LD or LB).  ``behavior`` may also be
    ``"mixed"``, which assigns the concrete :data:`BYZANTINE_BEHAVIORS`
    round-robin over the Byzantine vertices.
    """
    if num_vertices <= 0:
        raise ValueError(f"num_vertices must be positive, got {num_vertices}")
    if behavior != "mixed" and behavior not in BYZANTINE_BEHAVIORS:
        raise ValueError(
            f"behavior: expected 'mixed' or one of {BYZANTINE_BEHAVIORS}, "
            f"got {behavior!r}"
        )
    if max_crash_round < 0:
        raise ValueError(f"max_crash_round must be >= 0, got {max_crash_round}")
    num_crash = _fault_count(crash_fraction, num_vertices)
    num_byzantine = _fault_count(byzantine_fraction, num_vertices)
    if num_crash + num_byzantine > num_vertices:
        raise ValueError(
            f"fault fractions select {num_crash + num_byzantine} vertices but "
            f"the graph only has {num_vertices}"
        )
    # One permutation, prefix-sized: at a fixed seed, raising a fraction only
    # ADDS faulty vertices (the f=0.1 Byzantine set is a subset of the f=0.2
    # one).  Nested plans are what make seeded curves vs `f` monotone instead
    # of resampling noise — each sweep point perturbs the previous one.
    order = rng.permutation(num_vertices)
    crashed = sorted(int(v) for v in order[:num_crash])
    byzantine = sorted(int(v) for v in order[num_crash:num_crash + num_byzantine])
    faults: List[VertexFault] = []
    for vertex in crashed:
        mini_round = int(rng.integers(0, max_crash_round + 1))
        if mini_round == 0:
            phase = "WB"
        else:
            phase = "LD" if int(rng.integers(0, 2)) == 0 else "LB"
        faults.append(CrashFault(vertex=vertex, mini_round=mini_round, phase=phase))
    for index, vertex in enumerate(byzantine):
        assigned = (
            BYZANTINE_BEHAVIORS[index % len(BYZANTINE_BEHAVIORS)]
            if behavior == "mixed"
            else behavior
        )
        faults.append(ByzantineFault(vertex=vertex, behavior=assigned))
    return FaultPlan(faults)
