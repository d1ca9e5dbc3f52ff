"""Simulation engine: round-by-round execution of channel-access policies.

* :mod:`repro.sim.timing` -- the round structure of Fig. 2 / Table II, the
  effective-throughput factor ``theta = t_d / t_a`` and the Table II report.
* :mod:`repro.sim.engine` -- the per-round simulator and the one
  decide → play → observe loop (Algorithm 2's outer loop) that every
  simulator below runs.
* :mod:`repro.sim.batch` -- seed-streamed batch runner for ``R`` independent
  replications of one policy.
* :mod:`repro.sim.backends` -- pluggable serial / thread / process executors
  and the one traced replication fan-out shared by batches, the periodic
  and dynamic scenario runners and parameter sweeps.
* :mod:`repro.sim.periodic` -- periodic (stale-weight) update simulation of
  Section V-C: the same loop, each decision played for ``y`` slots.
* :mod:`repro.sim.dynamic` -- simulation under topology dynamics (churn,
  mobility, link flapping): the same loop, applying :mod:`repro.dynamics`
  event schedules before each decision.
* :mod:`repro.sim.results` -- result containers.
* :mod:`repro.sim.metrics` -- small numeric helpers shared by the experiments.
"""

from repro.sim.timing import TimingConfig
from repro.sim.engine import Simulator
from repro.sim.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    ensure_picklable,
    resolve_backend,
)
from repro.sim.batch import BatchResult, BatchSimulator, replication_rngs
from repro.sim.dynamic import (
    DynamicRoundRecord,
    DynamicRunResult,
    DynamicSimulator,
    EventBatchRecord,
)
from repro.sim.periodic import PeriodicSimulator, PeriodRecord, PeriodicResult
from repro.sim.results import RoundRecord, SimulationResult
from repro.sim.metrics import running_average, summarize_trace

__all__ = [
    "TimingConfig",
    "Simulator",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "ensure_picklable",
    "resolve_backend",
    "BatchResult",
    "BatchSimulator",
    "replication_rngs",
    "DynamicSimulator",
    "DynamicRunResult",
    "DynamicRoundRecord",
    "EventBatchRecord",
    "PeriodicSimulator",
    "PeriodRecord",
    "PeriodicResult",
    "RoundRecord",
    "SimulationResult",
    "running_average",
    "summarize_trace",
]
