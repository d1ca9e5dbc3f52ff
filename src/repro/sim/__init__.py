"""Simulation engine: round-by-round execution of channel-access policies.

* :mod:`repro.sim.timing` -- the round structure of Fig. 2 / Table II, the
  effective-throughput factor ``theta = t_d / t_a`` and the Table II report.
* :mod:`repro.sim.engine` -- the per-round simulator and the one
  decide → play → observe loop (Algorithm 2's outer loop) that every
  simulator below runs.
* :mod:`repro.sim.batch` -- the seed streams, the one-replication worker and
  the result of a batch of ``R`` independent replications of one policy; the
  one way to run a batch is
  :meth:`repro.api.ChannelAccessSystem.simulate_batch`.
* :mod:`repro.sim.backends` -- pluggable serial / thread / process executors
  and the one traced replication fan-out shared by batches, the periodic
  and dynamic scenario runners and parameter sweeps.
* :mod:`repro.sim.periodic` -- periodic (stale-weight) update simulation of
  Section V-C: the same loop, each decision played for ``y`` slots.
* :mod:`repro.sim.dynamic` -- simulation under topology dynamics (churn,
  mobility, link flapping): the same loop, applying :mod:`repro.dynamics`
  event schedules before each decision.
* :mod:`repro.sim.results` -- the one step trace every simulator fills (a
  preallocated column per recorded number, one row per decision) and the
  per-round result view over it; the periodic and dynamic results are views
  over the same trace.
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
from repro.sim.batch import BatchResult
from repro.sim.dynamic import DynamicRunResult, DynamicSimulator, EventBatchRecord
from repro.sim.periodic import PeriodicSimulator, PeriodicResult
from repro.sim.results import SimulationResult, StepTrace
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
    "DynamicSimulator",
    "DynamicRunResult",
    "EventBatchRecord",
    "PeriodicSimulator",
    "PeriodicResult",
    "SimulationResult",
    "StepTrace",
    "running_average",
    "summarize_trace",
]
