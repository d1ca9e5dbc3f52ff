"""Dynamic-topology subsystem: churn, mobility and link flapping.

* :mod:`repro.dynamics.events` -- the topology-event model
  (:class:`NodeArrival`, :class:`NodeDeparture`, :class:`LinkFlap`,
  :class:`MobilityStep`), the immutable :class:`EventSchedule`, and the
  deterministic seeded generators (Poisson churn, periodic flapping,
  random-waypoint mobility).
* :mod:`repro.dynamics.graph` -- incremental maintenance of the conflict
  graph ``G`` and the extended conflict graph ``H``, with a
  rebuild-equality contract against full reconstruction.
* :mod:`repro.dynamics.engine` -- the per-run
  :class:`DynamicStrategyEngine` wiring the live structures and their
  neighbourhood table into the distributed robust PTAS, and the :class:`DynamicStrategySolver` the
  learning policies plug in.

The simulation loop lives in :mod:`repro.sim.dynamic`; the declarative
entry point is the ``dynamics`` node of
:class:`~repro.spec.scenario.ScenarioSpec` (see ``docs/dynamics.md``).
"""

from repro.dynamics.engine import (
    DynamicStrategyEngine,
    DynamicStrategySolver,
    EventReport,
)
from repro.dynamics.events import (
    EventSchedule,
    LinkFlap,
    MobilityStep,
    NodeArrival,
    NodeDeparture,
    TopologyEvent,
    periodic_flap_schedule,
    poisson_churn_schedule,
    random_waypoint_schedule,
)
from repro.dynamics.graph import (
    DynamicExtendedGraph,
    DynamicTopology,
    ExtendedDelta,
    GraphDelta,
    index_frame,
)

__all__ = [
    "TopologyEvent",
    "NodeArrival",
    "NodeDeparture",
    "LinkFlap",
    "MobilityStep",
    "EventSchedule",
    "poisson_churn_schedule",
    "periodic_flap_schedule",
    "random_waypoint_schedule",
    "GraphDelta",
    "ExtendedDelta",
    "DynamicTopology",
    "DynamicExtendedGraph",
    "index_frame",
    "DynamicStrategyEngine",
    "DynamicStrategySolver",
    "EventReport",
]
