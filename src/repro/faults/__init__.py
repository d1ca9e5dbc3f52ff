"""Crash-stop and Byzantine fault injection for the distributed PTAS.

The subsystem has three layers:

* :mod:`repro.faults.plan` — *what fails*: seeded, content-hashed, JSON
  round-tripping :class:`FaultPlan` objects naming crashed and Byzantine
  vertices (the fault counterpart of the dynamics ``EventSchedule``).
* :mod:`repro.faults.runtime` — *how it fails*: fault-wrapped
  ``VertexProtocol`` machines, the :class:`FaultController` that plugs them
  (plus the fault clock and the QR accusation phase) into the one
  ``ProtocolEngine``, and the :class:`FaultInjectionEngine` entry point that
  runs it over any transport and reports what the faults did.
* :mod:`repro.faults.quorum` — *how honest vertices cope*: evidence
  checking, DLS-style accusation quorums and the Algorithm-Two termination
  bound that replaces waiting on dead neighbours.

Scenario wiring (the ``faults`` node of a ``ScenarioSpec``) lives in
:mod:`repro.spec.scenario`; presets are ``faults-quick`` / ``faults-paper``
and the ``byzantine-sweep`` plan.
"""

from repro.faults.plan import (
    BYZANTINE_BEHAVIORS,
    CRASH_PHASES,
    ByzantineFault,
    CrashFault,
    FaultPlan,
    VertexFault,
    generate_fault_plan,
)
from repro.faults.quorum import QuorumConfig, QuorumState, termination_bound
from repro.faults.runtime import (
    FaultController,
    FaultInjectionEngine,
    FaultReport,
    FaultyVertexProtocol,
)

__all__ = [
    "CRASH_PHASES",
    "BYZANTINE_BEHAVIORS",
    "VertexFault",
    "CrashFault",
    "ByzantineFault",
    "FaultPlan",
    "generate_fault_plan",
    "QuorumConfig",
    "QuorumState",
    "termination_bound",
    "FaultController",
    "FaultyVertexProtocol",
    "FaultReport",
    "FaultInjectionEngine",
]
